(** The unified client session: one API over every executor.

    Applications used to pick an API by deployment shape — a one-shot
    query wrapper against a local card, {!Proxy.Pool.serve} against a
    channel pool,
    {!Fleet.serve} against a card fleet. A client session erases the
    difference: build one with {!direct}, {!pooled} or {!fleet}, then
    {!serve} request batches and {!deliver} subscriptions through it.
    Internally every executor is driven through the {!Proxy.BACKEND}
    contract, so results are uniformly {!Proxy.Pool.served} — the
    single-card path synthesizes the wire accounting (channel 0, frames
    from the request upload and output download, the card's
    prepared-cache hit as [warm_setup]).

    Observability rides on whatever scope the underlying executor was
    created with: [proxy.request] / [fleet.request] spans per request,
    and for a direct {!deliver} the card's [dissem.publish] root span
    with per-cluster [dissem.cluster] children and the [dissem.*]
    sharing metrics. *)

type t

val direct : store:Sdds_dsp.Store.t -> card:Sdds_soe.Card.t -> t
(** A session on a local card (the single-terminal deployment). Queries
    run synchronously through [Proxy.run] — rekey-on-staleness retry
    included — and {!deliver} uses the card as a dissemination gateway
    with clustered shared evaluation ({!Sdds_soe.Card.disseminate}). *)

val pooled : Proxy.Pool.t -> t
(** A session over one card's logical channels ({!Proxy.Pool}). *)

val fleet : Fleet.t -> t
(** A session over a multi-card fleet ({!Fleet}). *)

val backend_name : t -> string
(** ["direct"], ["pool"] or ["fleet"] — for logs and reports. *)

val fleet_handle : t -> Fleet.t option
(** The underlying fleet of a {!fleet} session, for admin operations
    that have no meaning on the other executors — live resize
    ({!Fleet.add_card}, {!Fleet.remove_card}), {!Fleet.revive_card} and
    {!Fleet.stats}. All are safe between {!serve} calls, and resize is
    safe even {e during} one driven from another stream: the fleet's
    scheduler migrates affected requests instead of failing them. *)

val serve :
  t -> Proxy.Request.t list -> (Proxy.Pool.served, Proxy.error) result list
(** Execute a batch, results in request order. Direct sessions run the
    requests one after another (a lone terminal); pool and fleet
    sessions interleave them at frame granularity exactly as their
    [serve] would. Raises [Sdds_xpath.Parser.Error] on a malformed
    [xpath] in any request. *)

val query :
  t ->
  ?xpath:string ->
  ?protect:bool ->
  ?subject:string ->
  string ->
  (Proxy.Pool.served, Proxy.error) result
(** [query t doc_id] — {!serve} of one pull request. [protect] requires
    a direct session (guard messages have no wire codec); elsewhere it
    fails with [Protocol], same contract as the pool. *)

val deliver :
  t ->
  doc_id:string ->
  string list ->
  ( (string * (Proxy.Pool.served, Proxy.error) result) list
    * Sdds_dissem.Fanout.stats option,
    Proxy.error )
  result
(** [deliver t ~doc_id subjects] — the dissemination scenario: push one
    published document to every listed subscriber, each receiving
    exactly its own authorized view.

    On a {!direct} session the local card acts as the gateway:
    signature, integrity and decryption once for the whole population,
    identical rule sets clustered and evaluated once, predicate-free
    clusters sharing one merged walk — and the sharing accounting comes
    back as [Some stats]. The members of a cluster share one output list
    ({!Sdds_soe.Card.disseminate}), so the session reassembles,
    serializes and sizes each cluster's view once and hands every member
    the same immutable [served] record. Per-subscriber results are in
    listing order; a subscriber with no rule blob on the DSP fails alone
    with [No_rules], a broken or rolled-back blob with the card's typed
    error. A rules-digest collision or duplicated subject refuses the
    whole publish (the card's [Bad_rules] names the offending pair).

    On pool and fleet sessions rule blobs are MAC-bound per subject, so
    no evaluation can be shared: delivery is one push stream per
    subscriber, interleaved by the executor, and the stats are [None]. *)
