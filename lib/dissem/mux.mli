(** Merged-automaton evaluation: one token walk drives many clusters.

    Predicate-free rule sets compile to spines only — plain paths with
    no condition variables — and different subscribers' spines mostly
    share prefixes ([//patient], [//patient/name], …). The mux merges
    every cluster's spines into one prefix trie keyed by (axis, test)
    and walks it {e once} per document event; which clusters a firing
    belongs to is a bitset on the trie node, and per-cluster frame state
    (inherited decision, suppression) is a pair of bitsets per open
    element. The cost of an event is one trie walk plus O(clusters/64)
    bitset work, instead of one full engine pass per subscriber.

    The contract is byte-identity, not approximation: for every cluster
    the emitted {!Sdds_core.Output.t} stream equals what a private
    {!Sdds_core.Engine.run} over that cluster's rules produces (default
    deny, suppression on, no query) — the differential property in
    [test/test_dissem.ml] holds it over randomized populations. The
    identity is exact because predicate-free spines fire constant
    conditions ([Cond.tt]/[Cond.ff] survive {!Sdds_core.Cond.disj}'s
    folding regardless of how many spines fire), so annotations carry no
    evaluation-order residue.

    Clusters whose rules do carry predicates cannot join the walk
    (condition-variable numbering is per-engine state); the planner
    routes them to solo engines ({!Cluster.t.solo}). *)

type t

val create : Sdds_core.Compile.t array -> t
(** One compiled rule set per cluster, all predicate-free. Raises
    [Invalid_argument] if any carries predicate paths. *)

val feed : t -> Sdds_xml.Event.t -> unit
(** Advance the shared walk by one document event, appending to every
    unsuppressed cluster's output stream. Same event-validity errors as
    the engine (mismatched close, event after document end). *)

val finish : t -> unit
(** Raises [Invalid_argument] if the document is incomplete. *)

val outputs : t -> Sdds_core.Output.t list array
(** Per-cluster annotated output, in cluster order. *)

val node_count : t -> int
(** Trie size after merging — [sum of per-cluster states - node_count]
    is the state the prefix sharing removed. *)

val token_visits : t -> int
(** Trie tokens visited so far, the shared walk's work measure (compare
    against the sum of per-cluster engine visits). *)
