(** Block-cipher modes of operation over {!Aes}.

    The document store encrypts each chunk independently (CBC with a
    per-chunk IV derived from the chunk position) so the SOE can decrypt and
    skip at chunk granularity — the property the skip index depends on. CTR
    is used for the guarded-output re-encryption, where random access to the
    keystream is convenient. *)

val pad_pkcs7 : string -> string
(** Append PKCS#7 padding up to the next 16-byte boundary (always at least
    one byte). *)

val unpad_pkcs7 : string -> string option
(** [None] if the padding is malformed. *)

val encrypt_cbc : Aes.key -> iv:string -> string -> string
(** [encrypt_cbc k ~iv plain] pads and encrypts. [iv] must be 16 bytes. *)

val decrypt_cbc : Aes.key -> iv:string -> string -> string option
(** Decrypts and unpads; [None] on malformed padding or a ciphertext whose
    length is not a positive multiple of 16. A wrapper over
    {!decrypt_cbc_into}. *)

val decrypt_cbc_into :
  Aes.key -> iv:string -> string -> bytes -> int -> int -> int option
(** [decrypt_cbc_into k ~iv cipher dst pos len] decrypts and unpads
    [cipher] into [dst] from [pos], reading [cipher] and [iv] in place,
    and returns the plaintext's length. [None] on malformed padding, on a
    ciphertext whose length is not a positive multiple of 16, or on a
    plaintext longer than [len]. No byte of [dst] outside
    [pos .. pos + len - 1] is written, but on [None] those may have
    been. It allocates nothing beyond the option: the last block is
    deciphered into a 16-byte scratch block shared by every call, so it
    must not be called from two domains or threads at once. Raises
    [Invalid_argument] if [iv] is not 16 bytes or the range is not
    within [dst]. *)

val ctr_transform : Aes.key -> nonce:string -> string -> string
(** [ctr_transform k ~nonce data] XORs [data] with the AES-CTR keystream;
    involutive, works for any length. [nonce] must be 16 bytes (the initial
    counter block; the low 32 bits are incremented per block). *)
