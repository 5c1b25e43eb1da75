(** The dissemination gateway session: one local card that pushes a
    published document to a population of subscribers, each receiving
    exactly its own authorized view.

    Pull requests do not go through this module: {!Proxy.run} serves
    one on a local card, {!Proxy.Pool} over one card's APDU channels and
    {!Fleet} over many cards.

    Observability rides on the card's scope: {!deliver} opens the card's
    [dissem.publish] root span with per-cluster [dissem.cluster] children
    and feeds the [dissem.*] sharing metrics. *)

type t

val direct : store:Sdds_dsp.Store.t -> card:Sdds_soe.Card.t -> t
(** A gateway session on a local card. The card must hold the key of
    the documents it disseminates, or its own subject a key grant for
    them. *)

val deliver :
  t ->
  doc_id:string ->
  string list ->
  ( (string * (Proxy.Pool.served, Proxy.error) result) list
    * Sdds_dissem.Fanout.stats,
    Proxy.error )
  result
(** [deliver t ~doc_id subjects] — the dissemination scenario: push one
    published document to every listed subscriber.

    The card acts as the gateway: signature, integrity and decryption
    once for the whole population, identical rule sets clustered and
    evaluated once, predicate-free clusters sharing one merged walk, and
    the sharing accounting comes back beside the views. The members of a
    cluster share one output list ({!Sdds_soe.Card.disseminate}), so the
    session writes each cluster's XML once, straight from the view
    builder's events ({!Sdds_core.Reassembler.xml}), sizes its stream
    once, and hands every member the same immutable [served] record:
    channel 0, no command frames, the output stream's bytes and frames.
    The record's [view] builds the cluster's DOM from the same list only
    when it is forced.

    Per-subscriber results are in listing order; a subscriber with no
    rule blob on the DSP fails alone with [No_rules], a broken or
    rolled-back blob with the card's typed error. A rules-digest
    collision or duplicated subject refuses the whole publish (the
    card's [Bad_rules] names the offending pair).

    The DSP is read in a {!Proxy.ticket}'s order: the document
    ([Unknown_document] without one), the subscribers' rule blobs, then
    the gateway subject's grant. The publish runs under the key rule
    ({!Proxy.keyed}), as {!Proxy.run} does for a query: a gateway that
    holds the document key needs no grant, one without it reads
    [No_grant] or [Card_error Bad_grant], and stale evidence installs the
    grant and retries the publish once. *)
