(** A seeded serving world: the deployment the paper's demo applications
    run on. Documents sit encrypted on the DSP store, each with a
    publisher-signed rule blob and a key grant for one subject, and
    cards personalized for that subject's user serve them.

    A world is a pure function of its inputs: {!create} draws from its
    DRBG in one fixed order, so the same DRBG seed, keys and document
    list give byte-identical ciphertexts, rule blobs and grants. Cards
    and hosts are made fresh per call, because they carry the volatile
    state that faults and churn attack. *)

type t

val create :
  Sdds_crypto.Drbg.t ->
  publisher:Sdds_crypto.Rsa.keypair ->
  user:Sdds_crypto.Rsa.keypair ->
  ?subject:string ->
  ?chunk_bytes:int ->
  (string * Sdds_xml.Dom.t * Sdds_core.Rule.t list) list ->
  t
(** [create drbg ~publisher ~user docs] publishes each
    [(doc_id, doc, rules)] in list order. Per document it publishes the
    document, then encrypts [rules] for [subject] (default ["u"]), then
    wraps the document key for [user]; all three draw from [drbg].
    [chunk_bytes] goes to {!Sdds_dsp.Publish.publish}. *)

val wards :
  doc_id:(int -> string) ->
  seed:(int -> int) ->
  int ->
  (string * Sdds_xml.Dom.t * Sdds_core.Rule.t list) list
(** [wards ~doc_id ~seed n] is the fleet population for {!create}.
    Document [i] is [doc_id i]: a hospital of [1 + i mod 3] patients
    generated from [Rng.create (seed i)]. Its rules for subject ["u"]
    allow [//patient] and deny [//ssn] for even [i], [//diagnosis] for
    odd [i], so neighbouring documents have distinct rule digests and
    hence distinct fleet affinity keys. *)

val store : t -> Sdds_dsp.Store.t
val publisher : t -> Sdds_crypto.Rsa.keypair
val user : t -> Sdds_crypto.Rsa.keypair

val drbg : t -> Sdds_crypto.Drbg.t
(** The DRBG {!create} drew from, for later publisher actions such as
    rotating a key or re-signing a policy. *)

val doc_key : t -> string -> string
(** The document key {!create} drew for a document id. Raises
    [Not_found] for an id the world did not publish. *)

val resolve : t -> string -> Sdds_soe.Card.doc_source option
(** The DSP's pull source for a document id: the [resolve] argument of
    {!Sdds_soe.Remote_card.Host.create}. *)

val host : profile:Sdds_soe.Cost.profile -> t -> Sdds_soe.Remote_card.Host.t
(** A fresh card for the world's user and subject, behind a fresh
    host. *)

val make_card :
  profile:Sdds_soe.Cost.profile ->
  t ->
  unit ->
  Sdds_soe.Remote_card.transport * (unit -> unit)
(** A fresh {!host}'s transport and tear hook: the [make_card] callback
    of {!Chaos.run} and {!Chaos.run_slo}. *)

val golden : t -> Proxy.Request.t -> string option
(** The fault-free view of a request: a fresh card served through
    {!Proxy.run}, memoized per (document, query). Raises [Failure] if
    that run fails. *)

val requests : t -> Sdds_util.Rng.t -> int -> Proxy.Request.t list
(** [requests w rng n] is [n] requests over the world's documents under
    zipf(1.1) popularity, the first document the hottest. Each request
    draws one number from [rng]. Request [i] has no query,
    [//patient/name] or [//patient] as [i mod 3] is 0, 1 or 2. *)
