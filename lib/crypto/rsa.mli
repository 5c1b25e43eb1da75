(** Textbook-with-padding RSA over {!Bignum} — the simulated PKI.

    The demo paper explicitly {e simulates} its PKI ("PKI is a well-known
    technique that need not be demonstrated"); this module plays that role:
    users exchange the secret document keys under each other's public keys,
    and publishers sign Merkle roots. Key sizes are kept small (512–1024
    bits) because the simulation needs protocol shape, not 2026-grade
    security margins. PKCS#1 v1.5-style padding for both encryption and
    signatures. *)

type public = { n : Bignum.t; e : Bignum.t }
type secret = { n : Bignum.t; e : Bignum.t; d : Bignum.t }
type keypair = { public : public; secret : secret }

val generate : Drbg.t -> bits:int -> keypair
(** [generate drbg ~bits] creates a keypair with a [bits]-bit modulus
    (two [bits/2]-bit primes, e = 65537).
    Raises [Invalid_argument] if [bits < 64]. *)

val modulus_bytes : public -> int

val encrypt : Drbg.t -> public -> string -> string
(** Block-type-02 padding; the message must leave at least 11 bytes of
    overhead. Raises [Invalid_argument] if the message is too long. *)

val decrypt : secret -> string -> string option
(** [None] on a malformed ciphertext or padding. *)

val sign : secret -> string -> string
(** Block-type-01 padding over the SHA-256 digest of the message. *)

val verify : public -> string -> signature:string -> bool
(** True only when the signature recovers, byte for byte, the block {!sign}
    builds for the message (RFC 8017, 8.2.2). False for a modulus too small
    to hold that block (under 43 bytes). *)

val fingerprint : public -> string
(** Short hex identifier of a public key: the first 16 hex digits of the
    SHA-256 of its encoding. *)
