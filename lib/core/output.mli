(** The SOE's output stream.

    The engine annotates each delivered event with boolean expressions over
    condition variables instead of waiting for pending predicates — that is
    what keeps its memory footprint independent of document size. On the
    terminal, {!Stream_view} turns this stream plus the [Resolve] events
    into the final authorized view, releasing each event once it is
    determined; {!Reassembler.run} collects that view as a DOM. Between
    the two, the SOE wrapper [Sdds_soe.Guard] may re-encrypt the text of
    guarded regions. *)

type t =
  | Open_node of { tag : string; neg : Cond.t; pos : Cond.t; query : Cond.t }
      (** [neg]/[pos]: disjunction of the negative/positive rules firing
          directly at this node (already simplified against resolved
          conditions). The node's decision is
          [if neg then Deny else if pos then Allow else parent's].
          [query] is the disjunction of query matches firing here; the node
          is in query scope if it or an ancestor has a true [query]. *)
  | Text_node of string
      (** Text content; shares the decision of the enclosing element. *)
  | Close_node of string
  | Resolve of Cond.var * bool
      (** A pending predicate instance got its final value. Emitted at the
          latest when the subtree of the predicate's anchor node closes,
          eagerly when it becomes satisfiable earlier. *)

val pp : Format.formatter -> t -> unit

val is_static : t list -> bool
(** True when no output event carries an unresolved condition — the
    stream can be consumed without buffering. *)
