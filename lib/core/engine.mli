(** The streaming access-control evaluator — the paper's core contribution.

    The engine consumes SAX events and produces an {!Output.t} stream, with
    memory proportional to document {e depth} and rule-set size, never to
    document size (the SOE constraint of §2.3). It implements:

    - one non-deterministic automaton per rule (navigational spine +
      predicate paths), simulated with a {e token stack} that advances on
      [Open]/[Value] and backtracks on [Close];
    - a {e predicate set}: predicate instances are anchored at the node
      whose step carries them, become condition variables, resolve eagerly
      on satisfaction or negatively when their anchor closes ({e pending
      rules});
    - the {e sign stack}: per-node decisions combining
      Denial-Takes-Precedence and Most-Specific-Object-Takes-Precedence
      over the inherited sign, expressed over condition variables when
      pending rules are involved;
    - the suspension optimization: inside a subtree whose outcome is
      determined (denied with no positive automaton alive, or outside the
      query scope with no query automaton alive), rule evaluation is
      suspended and output suppressed — only predicate automata keep
      running, since they can affect nodes outside the subtree. It is
      always on: suspension changes no view (the oracle tests hold it),
      so it is not a mode.

    An optional query (same XPath fragment) is evaluated in the same pass;
    delivered nodes are those both authorized and inside a query match. *)

type t

val create :
  ?obs:Sdds_obs.Obs.t ->
  ?query:Sdds_xpath.Ast.t ->
  ?dispatch:bool ->
  ?compiled:Compile.t ->
  Rule.t list ->
  t
(** [create rules] builds an evaluator for a rule set (already filtered to
    the requesting subject). [compiled] supplies a ready-made automaton set
    and skips {!Compile.compile} — the prepared-evaluation cache hook; it
    must have been compiled from exactly these [rules] and [query] (the
    caller's responsibility — [query] is still needed to mark the stream as
    query-scoped). A node no rule reaches is denied (closed world,
    {!Rule}). [dispatch] (default [true]) enables
    tag-indexed token dispatch: each token is classed by its next step, so
    an open event only visits the tokens whose next step is [Any],
    condition-bearing, or waiting for the incoming tag's id (from
    {!Compile.tag_id}). Frames are reused records on one stack; each owns
    a slice of an own-token stack (its visited-every-open and child-axis
    tokens, in token order) and of a descendant stack, whose slice a
    child frame inherits and extends — the O(1) descendant self-loop.
    Disabling dispatch reproduces the naive linear scan over every live
    token — both modes produce byte-identical output streams (the
    differential tests enforce this), and the naive mode serves as the
    oracle.

    The engine keeps its own counts, which {!stats} reads. With [obs],
    {!finish} adds them to the scope's cells once, when the evaluation
    ends: counters [engine.events], [engine.delivered],
    [engine.suppressed], [engine.filtered], [engine.emitted],
    [engine.instances] and [engine.token_visits] add the evaluation's
    counts, and gauges [engine.live_tokens], [engine.state_words],
    [engine.frame_depth] and [engine.pending_instances] are set to its
    peaks. An evaluation that never reaches {!finish} (it raised, or the
    skip index jumped its root) publishes nothing. Instrumented and
    uninstrumented runs are behaviourally identical. *)

val feed : t -> Sdds_xml.Event.t -> Output.t list
(** Process one event. Raises [Invalid_argument] on a non-well-formed
    stream (close without open, text at top level, events after the root
    closed). *)

val finish : t -> unit
(** Asserts the stream ended at depth zero, then publishes the
    evaluation's counts to its [obs] scope, if any. Raises
    [Invalid_argument], publishing nothing, otherwise. Call it once. *)

val run :
  ?obs:Sdds_obs.Obs.t ->
  ?query:Sdds_xpath.Ast.t ->
  ?dispatch:bool ->
  Rule.t list ->
  Sdds_xml.Event.t list ->
  Output.t list
(** One-shot convenience over [create]/[feed]/[finish]. *)

(** {1 Skip analysis}

    Hook for the skip index: called at the position of a child subtree,
    {e before} feeding its events, with the subtree's tag summary. *)

val subtree_skippable :
  t -> tag:string -> tag_possible:(string -> bool) -> nonempty:bool -> bool
(** True only if skipping the whole subtree (not feeding any of its events)
    cannot change the delivered view or any pending condition. [tag] is the
    subtree root's tag: the analysis advances the live tokens one step over
    it, so a rule firing {e at} the subtree root (e.g. a denial of the whole
    subtree) is taken into account; it then checks that no live predicate
    automaton, no positive-rule automaton relevant under the (possibly
    just-determined) denial, and no query automaton relevant out of scope,
    could reach a further state given the subtree's tags. Any source of
    pendingness at the root makes the answer [false]. *)

(** {1 Instrumentation} *)

type stats = {
  mutable events : int;  (** input events processed *)
  mutable emitted : int;  (** output events produced, [Resolve] included *)
  mutable delivered : int;
      (** input events whose own output ([Open_node]/[Text_node]/
          [Close_node]) was emitted *)
  mutable suppressed : int;  (** input events consumed under suspension *)
  mutable filtered : int;
      (** text events dropped on an unsuppressed frame because the
          enclosing element is denied or out of query scope. The
          accounting always reconciles:
          [events = delivered + suppressed + filtered]. *)
  mutable instances : int;  (** predicate instances created *)
  mutable peak_tokens : int;  (** max live tokens across the stack *)
  mutable peak_state_words : int;  (** max of {!state_words} *)
  mutable token_visits : int;
      (** total token transitions attempted — the automaton work the cost
          model charges per token. With dispatch enabled only the tokens
          actually visited count, making the optimization measurable. *)
}

val stats : t -> stats

val state_words : t -> int
(** Current size of the engine's working state (frames, tokens, predicate
    instances, watchers), in machine words — what must fit in the SOE's
    secure RAM. Kept as running sums updated where the state changes, so
    reading it (and the gauges every open sets) costs O(1). *)

val depth : t -> int
