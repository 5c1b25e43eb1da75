(** The static policy analyzer: one call, all passes.

    Runs over a rule set and whatever context is available — an optional
    DTD-lite schema ({!Sdds_core.Schema}), an optional document tag
    dictionary, an optional RAM budget — and produces structured
    diagnostics ({!Diag}) plus the static memory bound
    ({!Memory_bound}). Each pass is isolated: if one raises, its failure
    becomes an [Internal_error] diagnostic and the other passes still
    report. *)

type report = {
  rules : Sdds_core.Rule.t array;  (** the analyzed rules, by index *)
  diagnostics : Diag.t list;  (** severity-ordered (errors first) *)
  bound : Memory_bound.t;  (** static worst-case SOE memory *)
  kept : int;  (** rules surviving dead-rule pruning *)
}

val run :
  ?schema:Sdds_core.Schema.t ->
  ?dictionary:string list ->
  ?depth:int ->
  ?budget_bytes:int ->
  ?query:Sdds_xpath.Ast.t ->
  Sdds_core.Rule.t list ->
  report
(** The evaluation depth for the memory bound is, in order of
    preference: [depth] if given, the schema's {!Sdds_core.Schema.depth_bound}
    if finite, else {!Memory_bound.default_depth}. [dictionary] is a
    document's tag list (e.g. {!Sdds_index.Dict.tags}): literal tags
    outside it yield [Unknown_tag] diagnostics and truncate the automata
    in the memory bound, exactly as the skip index would at runtime.
    [budget_bytes] turns the [Memory_bound] diagnostic into an error when
    exceeded. [query], when given, is compiled alongside the rules (as
    the SOE does) so the bound covers the query automaton too. *)

val has_errors : report -> bool
(** True when any diagnostic has severity [Error] — the admission
    criterion and the CLI's exit status. *)

val to_json : report -> Json.t

val pp : Format.formatter -> report -> unit
(** Human-readable multi-line report. *)
