(** Bounded exhaustive exploration of the protocol × fault product.

    Breadth-first over per-frame adversary choices (fault-free plus every
    kind in the config's alphabet while budget remains), deduplicating on
    {!Model.key} hashed with {!Sdds_util.Fnv}. At every expanded state
    the fault-free continuation is checked to terminate (the convergence
    invariant); every other invariant is judged per transition by
    {!Model.apply}. The first violation stops the search and is shrunk by
    greedy fault-dropping and tail-trimming into a minimized,
    deterministically-replayable {!Cex.t}. *)

module Fault = Sdds_fault.Fault

type stats = {
  expanded : int;  (** states dequeued and expanded *)
  transitions : int;  (** successor transitions taken *)
  dedup_hits : int;  (** successors already visited *)
  terminal_ok : int;  (** distinct halted-Ok states reached *)
  terminal_failed : int;  (** distinct typed-failure states reached *)
  max_depth : int;  (** deepest frame count explored *)
  truncated : bool;  (** stopped by the state cap, not exhaustion *)
}

type result = { cex : Cex.t option; stats : stats }

val default_max_states : int

val run : ?max_states:int -> depth:int -> Model.config -> result
(** Explore to [depth] frames. [cex = None] means no reachable
    interleaving within the bounds violates any invariant. *)

val replay : Model.config -> Fault.kind option list -> Invariant.violation option
(** Deterministically re-run a per-frame choice list from the initial
    state: the first violation it produces (with a convergence check on
    the final state), or [None] if every invariant holds — the oracle
    counterexample tests and minimization both use. *)
