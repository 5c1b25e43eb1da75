(** Compilation of rules and queries into non-deterministic automata.

    Each XPath becomes a {e spine} (the navigational path, Figure 2's white
    states) whose steps may reference compiled {e predicate paths}
    (Figure 2's gray states). Predicate paths nest. The runtime (see
    {!Engine}) walks these arrays with a token stack, comparing the
    integer tag ids this module assigns instead of tag strings; this
    module also provides the reachability test the skip index uses to
    discard automata inside a subtree from its tag bitmap. *)

type pred_id = int

type cstep = {
  axis : Sdds_xpath.Ast.axis;
  test : Sdds_xpath.Ast.test;
  step_preds : pred_id list;  (** predicate instances to anchor on a match *)
}

type cpath = cstep array

type cpred = {
  ppath : cpath;  (** [||] for self-predicates ([.] with a comparison) *)
  target : Sdds_xpath.Ast.pred_target;
}

type source =
  | Rule_src of int  (** index into the original rule list *)
  | Query_src

type spine = { source : source; sign : Rule.sign; cpath : cpath }
(** A query compiles as a positive spine with [source = Query_src]. *)

type token = {
  key : int;
      (** visit order: the spine index, or [Array.length spines + var] for
          a token of predicate instance [var] *)
  path : int;  (** index into [paths] *)
  pos : int;  (** steps already matched *)
  conds : int list;  (** sorted condition variables the token carries *)
}
(** One live state of a compiled automaton, as the engine's token stacks
    hold it. Tokens order by [key], then [pos], then [conds]. *)

type t = {
  spines : spine array;
  preds : cpred array;  (** shared table of all predicate paths, nested included *)
  paths : cpath array;
      (** every spine's path, then every predicate's: path [i < Array.length
          spines] is spine [i]'s, path [Array.length spines + p] is
          predicate [p]'s *)
  step_tags : int array array;
      (** per path and step, the id of the literal tag the step's [Name]
          test matches, or [-1] for [*] *)
  tag_ids : (string, int) Hashtbl.t;
      (** every literal tag a step names, numbered from 0 *)
  canon : token array array;
      (** per spine and position, the condition-free token: the engine
          reuses these instead of allocating a token per advance *)
}
(** Built once per compile, so a prepared-evaluation cache hit reuses the
    tag tables and canonical tokens too. *)

val compile : ?query:Sdds_xpath.Ast.t -> Rule.t list -> t
(** Rules must already be filtered to one subject. *)

val tag_id : t -> string -> int
(** The id of a literal tag in [tag_ids], [-1] when no step names it. *)

val can_complete :
  cpath -> from:int -> tag_possible:(string -> bool) -> nonempty:bool -> bool
(** [can_complete path ~from ~tag_possible ~nonempty] is false only when
    the path cannot possibly reach its final state inside a subtree whose
    element tags satisfy [tag_possible] — the test each automaton undergoes
    against a skip-index bitmap. [from] is the number of steps already
    matched; [nonempty] says whether the subtree contains any element at
    all (what a wildcard step needs). Predicates are ignored (a sound
    over-approximation: ignoring them can only make us process a skippable
    subtree, never skip a needed one). *)

val state_count : t -> int
(** Total number of automaton states (spine and predicate steps), the
    complexity measure reported by the rule-scaling benchmark. *)
