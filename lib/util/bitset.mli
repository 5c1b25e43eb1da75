(** Fixed-capacity bit sets backed by [bytes].

    Used for the skip index's descendant-tag bitmaps: one bit per entry of
    the document's tag dictionary. The recursive compression of the index
    relies on {!project} / {!inject_into}, which re-express a subset bitmap
    using only the positions set in a parent bitmap. The decoders write
    into a set the caller owns, so reading a bitmap allocates nothing. *)

type t

val create : int -> t
(** [create n] is an empty set able to hold members in [0, n-1]. *)

val capacity : t -> int

val copy : t -> t

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

val cardinal : t -> int
(** Number of set bits. *)

val is_empty : t -> bool

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src].
    Raises [Invalid_argument] on capacity mismatch. *)

val inter : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] is true iff every member of [a] is in [b]. *)

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate over members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t

val project : parent:t -> t -> t
(** [project ~parent sub] compresses [sub] (which must satisfy
    [subset sub parent]) into a bitset of capacity [cardinal parent] whose
    [i]-th bit tells whether the [i]-th member of [parent] is in [sub]. *)

val inject_into : t -> parent:t -> string -> int -> int
(** [inject_into t ~parent s pos] undoes {!project} in place: it reads at
    offset [pos] of [s] the {!encode}d bytes of a packed set of capacity
    [cardinal parent], overwrites [t] with its expansion (a subset of
    [parent]) and returns the offset just past those bytes. Raises
    [Invalid_argument] if [t] and [parent] differ in capacity or [s] is too
    short. [t] must not be [parent]. *)

val encode : Buffer.t -> t -> unit
(** Append [ceil (capacity / 8)] raw bytes. The capacity itself is not
    written; the reader must know it. *)

val decode_into : t -> string -> int -> int
(** [decode_into t s pos] overwrites [t] with the raw bytes {!encode} wrote
    for a set of [t]'s capacity, read at offset [pos] of [s], and returns
    the offset just past them. Padding bits past the capacity are dropped.
    Raises [Invalid_argument] if [s] is too short. *)

val encoded_size : capacity:int -> int

val pp : Format.formatter -> t -> unit
