(** The engine driven through the skip index.

    Couples [Sdds_core.Engine] with {!Reader}: at each element, the
    subtree's tag set is tested against the live automata
    ([Engine.subtree_skippable]); irrelevant subtrees are jumped over
    without being decoded — in the full architecture, without even being
    transferred or decrypted, which is where the skip index pays for
    itself (experiment E3). *)

type result = {
  outputs : Sdds_core.Output.t list;
  skipped_subtrees : int;
  skipped_bytes : int;  (** encoded bytes jumped over *)
  skipped_ranges : (int * int) list;
      (** (offset, length) of each jumped region, in document order — what
          the smart-card layer uses to decide which encrypted chunks never
          need to be transferred or decrypted *)
  consumed_bytes : int;  (** encoded bytes actually read (header included) *)
  events_fed : int;  (** events that reached the engine *)
  engine_stats : Sdds_core.Engine.stats;
  reader_peak_words : int;  (** reader working-state high-water mark *)
}

val run :
  ?obs:Sdds_obs.Obs.t ->
  ?query:Sdds_xpath.Ast.t ->
  ?dispatch:bool ->
  ?use_index:bool ->
  ?compiled:Sdds_core.Compile.t ->
  Sdds_core.Rule.t list ->
  string ->
  result
(** [run rules encoded] evaluates the rule set over an encoded document.
    [use_index] (default [true]) enables skipping — it requires an
    [Indexed] encoding; with [false] (or a [Plain] encoding) every event
    is fed, which is the no-index baseline. [dispatch] and [compiled] are
    passed through to [Engine.create] (tag-indexed token dispatch, default
    on; and a precompiled automaton set — the prepared-evaluation cache
    hook).

    [obs] wraps the pass in an [engine.stream] span (one [skip.prune]
    instant per jumped subtree) and feeds the [skip.*] metrics
    ([considered], [pruned_subtrees], [pruned_bytes], and the
    [subtree_bytes] histogram) alongside the engine's [engine.*]
    metrics, which the engine publishes when it finishes (not when the
    index jumped the root and the engine saw no event). *)
