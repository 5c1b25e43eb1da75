(** Static worst-case SOE memory bounds by abstract interpretation of the
    compiled automata.

    The streaming engine's state is, at any instant, a stack of per-depth
    frames (tokens, text watchers, anchored predicate instances), a table
    of live predicate instances with their candidate conjunctions, and
    the reverse-dependency table — all sized in the same abstract
    field-words {!Sdds_core.Engine.state_words} counts at runtime. Every
    component is depth-bounded:

    - a token at position [i] exists only in frames at depth at least
      [i]; when no descendant axis precedes the position (and, for a
      predicate path, the anchor's own depth is unambiguous) its frame
      depth is {e exactly} known, and only descendant-axis-waiting
      tokens replicate into deeper frames;
    - distinct condition sets per token position multiply only at
      predicate-bearing steps whose match depth is ambiguous, by at most
      the number of open ancestors;
    - live instances of a predicate number one per possible anchor depth;
    - candidate conjunctions are distinct subsets of live condition
      variables (the engine dedups at insert {e and} after shortening),
      so each predicate-bearing step contributes its depth choices plus
      one for "already resolved".

    Summing over frame depths [0..depth] yields a bound that dominates
    every reachable [state_words] on documents of that element depth —
    the property the differential tests check against the engine. In
    bytes it is the card's RAM layout ({!Sdds_core.Ram}) at that worst
    case, so it covers what the card charges an unprotected evaluation.
    Against a card profile's RAM ([sdds analyze --profile]) it is the
    static RAM check, run before a policy is uploaded: a policy within
    the budget is served. The card's own check is the runtime one, at
    evaluation. *)

type t = {
  depth : int;  (** element depth the bound is evaluated at *)
  state_words : int;  (** dominates [Engine.peak_state_words] *)
  reader_words : int;  (** dominates the index reader's stack peak *)
  bound_bytes : int;
      (** the card's RAM charge ({!Sdds_core.Ram.charge}) at the worst
          case: [state_words] and [reader_words], a tag table holding
          every dictionary tag, and the publisher's default chunk
          buffer. It covers unprotected evaluations only: a protected
          one's guard state grows with the document. *)
}

val compute :
  ?tag_possible:(string -> bool) ->
  ?dict_size:int ->
  depth:int ->
  Sdds_core.Compile.t ->
  t
(** [tag_possible] restricts the tag alphabet (schema-declared tags, or a
    document dictionary): steps naming impossible tags never match, which
    truncates their paths' reachable positions. [dict_size] is the
    dictionary's size, which bounds the reader's tag sets and the
    output's tag table. Defaults: all tags possible, [dict_size = 64].
    Arithmetic saturates — a huge bound stays a huge bound instead of
    wrapping. *)

val default_depth : int
(** Assumed element depth when no schema bounds it: 16. *)
