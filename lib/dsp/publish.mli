(** Publisher-side pipeline: XML document → encrypted, indexed, integrity-
    protected chunk set ready for the DSP.

    Steps: dictionary-compress and embed the skip index ([Sdds_index]),
    split into fixed plaintext chunks, encrypt each chunk under the
    document key with a position-bound IV, build the Merkle tree over the
    ciphertext chunks, and sign the root. The document key never reaches
    the DSP — it is wrapped per-recipient through the PKI
    ([Wire.wrap_doc_key]). *)

type published = {
  doc_id : string;
  chunks : string array;  (** ciphertext chunks *)
  chunk_plain_bytes : int;
  plain_length : int;
  tree : Sdds_crypto.Merkle.tree;
      (** built at publish time; inclusion proofs are served from it, so a
          tamperer of [chunks] can at best serve stale-but-valid proofs *)
  merkle_root : string;
  root_signature : string;
  publisher : Sdds_crypto.Rsa.public;
}

val default_chunk_bytes : int
(** {!Sdds_core.Ram.default_chunk_bytes}: 240 plaintext bytes, one APDU
    frame worth of ciphertext. *)

val publish :
  Sdds_crypto.Drbg.t ->
  publisher:Sdds_crypto.Rsa.keypair ->
  doc_id:string ->
  ?chunk_bytes:int ->
  ?mode:Sdds_index.Encode.mode ->
  ?meta_threshold:int ->
  Sdds_xml.Dom.t ->
  published * string
(** Returns the published form and the fresh document key (to be wrapped
    for each authorized subject). Default mode:
    [Indexed { recursive = true }]. *)

val grant :
  Sdds_crypto.Drbg.t ->
  doc_key:string ->
  doc_id:string ->
  recipient:Sdds_crypto.Rsa.public ->
  string
(** Wrapped-key grant for one recipient. *)

val encrypt_rules_for :
  Sdds_crypto.Drbg.t ->
  publisher:Sdds_crypto.Rsa.keypair ->
  doc_key:string ->
  doc_id:string ->
  subject:string ->
  ?version:int ->
  Sdds_core.Rule.t list ->
  string
(** Encrypted, publisher-signed rule blob for the DSP rule store.
    [version] (default 0) is the monotonic anti-rollback counter; bump it
    on every policy update so cards refuse replays of older blobs. Updating
    a policy means replacing this small blob — no document re-encryption,
    no key redistribution; experiment E8 measures exactly this against the
    static-encryption baseline. The signature stops an authorized reader
    (who necessarily holds the document key) from minting themselves a
    wider policy. *)

val rotate :
  Sdds_crypto.Drbg.t ->
  publisher:Sdds_crypto.Rsa.keypair ->
  old_key:string ->
  published ->
  published * string
(** Re-encrypt every chunk under a fresh document key and re-sign —
    what a {e true revocation} costs. Removing a wrapped-key grant alone
    ("lazy revocation") stops {e future} grants but cannot take the old
    key back from a card that holds it; only rotation does, at a price
    proportional to the document (see experiment E8). Raises
    [Invalid_argument] if [old_key] does not decrypt the chunks. *)

val to_source :
  published -> delivery:[ `Pull | `Push ] -> Sdds_soe.Card.doc_source
(** View a published document as the card's input. *)
