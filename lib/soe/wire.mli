(** The cryptographic wire formats shared by the DSP, the terminal and the
    card: per-chunk encryption bound to the chunk's position, the wrapped
    document keys exchanged through the (simulated) PKI, and the encrypted
    access-rule blobs. These are the "communication protocol" and "access
    rights update protocol" pieces the demonstration adds around [2]. *)

val fresh_doc_key : Sdds_crypto.Drbg.t -> string
(** A 16-byte AES-128 document key. *)

val encrypt_chunk : key:string -> doc_id:string -> index:int -> string -> string
(** AES-128-CBC under the per-chunk IV, derived from the document id and
    chunk position — what makes every chunk independently decryptable
    (and skippable). Raises [Invalid_argument] on a bad key size. *)

val decrypt_chunk :
  key:string -> doc_id:string -> index:int -> string -> string option
(** [None] on corrupt ciphertext (bad length or padding). A chunk moved to
    a different position decrypts under the wrong IV and is rejected by the
    Merkle check (and usually by padding too). It expands [key] on every
    call; a reader of many chunks expands it once and calls
    {!decrypt_chunk_into}. *)

val decrypt_chunk_into :
  Sdds_crypto.Aes.key ->
  doc_id:string ->
  index:int ->
  string ->
  bytes ->
  int ->
  int ->
  int option
(** [decrypt_chunk_into k ~doc_id ~index cipher dst pos len] is
    {!decrypt_chunk} under an expanded key, writing the plaintext into
    [dst] from [pos] as {!Sdds_crypto.Mode.decrypt_cbc_into} does: its
    length, or [None] if the chunk does not open to at most [len]
    bytes. *)

val wrap_doc_key :
  Sdds_crypto.Drbg.t -> Sdds_crypto.Rsa.public -> doc_id:string -> string -> string
(** Encrypt [doc_id || key] under a recipient's public key — the grant a
    publisher deposits for each authorized user. *)

val unwrap_doc_key :
  Sdds_crypto.Rsa.secret -> doc_id:string -> string -> string option
(** [None] if the ciphertext is malformed or names another document. *)

val encode_rules : Sdds_core.Rule.t list -> string
(** Plain-text rule blob: one rule per line. *)

val decode_rules : string -> (Sdds_core.Rule.t list, string) result

val encrypt_rules :
  Sdds_crypto.Drbg.t ->
  key:string ->
  doc_id:string ->
  subject:string ->
  ?version:int ->
  signer:Sdds_crypto.Rsa.secret ->
  Sdds_core.Rule.t list ->
  string
(** [iv || AES-CBC(rules || signature) || HMAC]. The signature is the
    policy owner's, over (doc_id, subject, rules): confidentiality (rules
    reveal the sharing policy), integrity (a corrupted blob is rejected),
    and {e authority} — the document key is held by every authorized
    reader, so without the signature any reader could mint themselves a
    wider policy. The card accepts a rule blob only from the document's
    publisher. *)

val decrypt_rules :
  key:string ->
  doc_id:string ->
  subject:string ->
  publisher:Sdds_crypto.Rsa.public ->
  string ->
  (int * Sdds_core.Rule.t list, string) result
(** Returns the blob's {e version} along with the rules. Versions are
    monotonic per (document, subject); the card keeps the highest version
    it has enforced and refuses anything older, so the untrusted DSP
    cannot roll a policy back by replaying a stale (but genuinely signed)
    blob. *)

val signed_root_message : doc_id:string -> merkle_root:string -> plain_length:int -> string
(** The message a publisher signs: binds the chunk tree to the document
    identity and its exact plaintext length (so truncation is detected). *)
