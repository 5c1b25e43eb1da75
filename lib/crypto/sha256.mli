(** SHA-256 (FIPS 180-4).

    Merkle tree hashing ({!Merkle}), the chunk IVs and rule-blob keys of
    the wire format, and HMAC all build on this digest. A block loads its
    sixteen message words straight from the input and keeps the state in
    integers, so hashing allocates nothing per block.

    The one-shot digests ({!digest}, {!digest3}) run on one scratch
    context shared by the whole program, as is the message schedule of
    every context: the module is not safe to call from two domains or
    threads at once (nothing in this repository does). *)

val digest_size : int
(** 32 bytes. *)

val digest : string -> string
(** One-shot digest (raw 32 bytes; hex-encode with [Sdds_util.Hex]). It
    allocates only its result. *)

val digest3 : string -> string -> string -> string
(** [digest3 a b c] is [digest (a ^ b ^ c)] without building the
    concatenation: how Merkle leaves and nodes, and the chunk IVs, are
    hashed from their parts. It allocates only its result. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** Incremental interface: a context hashes a message fed in pieces.
    Within the library, only {!digest} and {!digest3} use it, on the
    shared scratch context; a caller holding a message in pieces of its
    own makes a context with {!init}. *)

val finalize : ctx -> string
(** Returns the digest; the context must not be fed afterwards. The
    padding is written into the context's own block, so finalizing
    allocates only the result. *)
