(** AES block cipher (FIPS 197), from scratch.

    The SOE decrypts document chunks with AES; the cost model charges per
    block processed. Key sizes 128, 192 and 256 bits are supported. Rounds
    are table-driven: four 256-entry tables of 32-bit words fold SubBytes,
    ShiftRows and MixColumns into four lookups and XORs per column, four
    more do the same for decryption (FIPS 197's equivalent inverse cipher,
    its round keys derived once in {!expand_key}), and the state lives in
    four integers, so a block allocates nothing. Lookups are indexed by
    secret bytes: the implementation is not hardened against cache-timing
    side channels (the threat model puts the cipher inside the
    tamper-resistant SOE). *)

type key

val expand_key : string -> key
(** [expand_key k] precomputes the round keys. [k] must be 16, 24 or
    32 bytes; raises [Invalid_argument] otherwise. *)

val key_bits : key -> int

val block_size : int
(** 16 bytes. *)

val encrypt_block : key -> bytes -> int -> bytes -> int -> unit
(** [encrypt_block k src spos dst dpos] encrypts the 16-byte block at
    [src[spos..]] into [dst[dpos..]]. [src] and [dst] may be the same
    buffer at the same offset. *)

val decrypt_block : key -> bytes -> int -> bytes -> int -> unit

val encrypt_block_string : key -> string -> string
(** Convenience wrappers over 16-byte strings, for tests and vectors. *)

val decrypt_block_string : key -> string -> string
