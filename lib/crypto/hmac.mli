(** HMAC-SHA256 (RFC 2104).

    It authenticates the encrypted rule blobs ([Wire.encrypt_rules] in
    the card runtime, under a key derived from the document key) and
    drives the deterministic random bit generator ({!Drbg}). Document
    chunks carry no MAC: the card checks the chunks it consumes against
    the publisher's signed Merkle root ({!Merkle.multiverify}), which is
    what lets it skip the others. *)

val mac : key:string -> string -> string
(** 32-byte tag. Any key length (hashed down if longer than the block). *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time comparison of the expected and presented tags. *)
