(** The dissemination pipeline: one document stream, N subscribers,
    clustered evaluation.

    [run] takes the subscriber population (subject, rules — already
    subject-filtered), plans the clusters ({!Cluster.plan}), drives the
    predicate-free clusters through one shared {!Mux} walk and each
    predicate-carrying cluster through a private
    {!Sdds_core.Engine}, and demultiplexes: every subscriber receives
    its cluster's annotated output stream, one list per cluster that its
    members share physically ([==]). Decisions are per subscriber
    by construction — a cluster only ever contains subscribers with
    byte-identical rule sets, and the mux walk is output-equivalent to a
    private engine per cluster (the differential property).

    Evaluation defaults match the card's: closed-world default deny,
    suppression on, no query (dissemination pushes whole authorized
    views; queries are a pull-path concept).

    [obs] wiring: a [dissem.publish] root span (subscriber, cluster and
    evaluation counts as args), one [dissem.mux] child span for the
    shared walk, one [dissem.cluster] child span per cluster (digest,
    member count, shared flag), and the registry counters
    [dissem.subscribers], [dissem.clusters], [dissem.evaluations],
    [dissem.evaluations_saved] plus the [dissem.fanout] gauge
    (subscribers per evaluation, x1000). *)

type stats = {
  subscribers : int;
  clusters : int;
  mux_clusters : int;  (** predicate-free, served by the shared walk *)
  solo_clusters : int;  (** predicate-carrying, one engine each *)
  evaluations : int;  (** engine passes actually run *)
  naive_evaluations : int;  (** the per-subscriber baseline: N *)
  related_pairs : int;  (** latent overlap — see {!Cluster.t.related_pairs} *)
  trie_nodes : int;  (** merged-trie size, 0 when no mux cluster *)
  mux_token_visits : int;
}

val fanout_ratio : stats -> float
(** Subscribers served per evaluation ([n /. evaluations]; [0.] for an
    empty population). *)

val run :
  ?obs:Sdds_obs.Obs.t ->
  (string * Sdds_core.Rule.t list) list ->
  Sdds_xml.Event.t list ->
  ((string * Sdds_core.Output.t list) list * stats, Cluster.error) result
(** Per-subscriber outputs in subject-sorted order, plus the sharing
    accounting. The output list for each subscriber is byte-identical to
    [Engine.run its_rules events] (the naive oracle). Propagates the
    planner's typed refusals; raises like the engine on malformed event
    streams. *)

val run_plan :
  ?obs:Sdds_obs.Obs.t ->
  Cluster.t ->
  Sdds_xml.Event.t list ->
  (string * Sdds_core.Output.t list) list * stats
(** The evaluation half of {!run}, for callers that planned separately
    (e.g. to account per-cluster compilation before running). One entry
    per [plan.assignment] entry, in its order; members of one cluster
    get the same physical list. *)
