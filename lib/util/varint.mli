(** LEB128-style unsigned variable-length integers.

    Varints are the workhorse of the skip-index encoding: subtree byte sizes
    and tag identifiers are stored as varints so that small subtrees cost a
    single byte of metadata. *)

val write : Buffer.t -> int -> unit
(** [write buf n] appends the varint encoding of [n] to [buf].
    Raises [Invalid_argument] if [n < 0]. *)

val read : string -> int -> int * int
(** [read s pos] decodes a varint at offset [pos] of [s] and returns
    [(value, next_pos)]. Raises [Invalid_argument] on truncated input or an
    encoding wider than [Sys.int_size] bits. *)

val next : string -> int ref -> int
(** [next s pos] is {!read} for a cursor: it decodes the varint at offset
    [!pos], moves [pos] just past it and returns the value, allocating
    nothing. It reads the same bytes and raises the same errors as
    {!read}, which is written over it; on an error [pos] is unchanged. *)

val size : int -> int
(** [size n] is the number of bytes [write] would emit for [n]. *)

val write_bytes : bytes -> int -> int -> int
(** [write_bytes b pos n] writes the encoding of [n] into [b] starting at
    [pos] and returns the offset just past it. The caller must have reserved
    at least [size n] bytes. *)
