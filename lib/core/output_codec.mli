(** Binary wire format for the SOE output stream.

    The annotated events cross the card → terminal link through APDU
    frames; this codec defines their exact byte representation, so the
    cost model charges real sizes and the proxy can reassemble from raw
    frames. Varint-based, self-delimiting; condition expressions are
    encoded structurally. *)

val encode : Buffer.t -> Output.t -> unit

val encode_list : Output.t list -> string

val decode : string -> int -> Output.t * int
(** [decode s pos] returns the event and the next offset.
    Raises [Invalid_argument] on malformed input. *)

val decode_list : string -> Output.t list
(** Raises [Invalid_argument] on trailing or malformed bytes. *)

val encoded_size : Output.t -> int
(** The number of bytes [encode] appends for one event. Exact, computed
    by arithmetic over the event's fields: it encodes nothing and does
    not allocate. *)

val size_list : Output.t list -> int
(** [size_list outs] is [String.length (encode_list outs)] exactly, and
    like {!encoded_size} it encodes nothing and does not allocate. The
    size of a stream crossing the card → terminal link. *)
