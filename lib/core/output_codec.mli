(** Binary wire format for the SOE output stream.

    The annotated events cross the card → terminal link through APDU
    frames; this codec defines their exact byte representation, so the
    cost model charges real sizes and the proxy can reassemble from raw
    frames.

    The format is compact in the way the skip index's encoding is: the
    reader holds one tag dictionary, and this stream builds its own as
    it goes. Every event starts with a one-byte header varint:
    - text, then the string (varint length, bytes);
    - close, and nothing else: the decoder takes the tag from its open
      stack;
    - resolve-true or resolve-false, then the variable as a varint;
    - one of 54 open codes: whether the tag is new to the stream, times
      the shape of [neg], [pos] and [query], each true, false or "an
      expression follows". A new tag is written by name (varint length,
      bytes) and appended to the stream's first-occurrence table; a
      known one is written as its index in that table. Each expression
      slot is then written structurally (constants, variables, and
      n-ary conjunctions and disjunctions with their arity).

    An event's bytes therefore depend on the stream before it: only whole
    streams have sizes. *)

val encode_list : Output.t list -> string
(** Raises [Invalid_argument] on a [Close_node] whose tag differs from
    the open element it closes, or that closes nothing. The engine and
    the mux never emit one. *)

val iter : (Output.t -> unit) -> string -> unit
(** [iter f bytes] decodes the stream with a cursor and passes each
    event to [f] as soon as it is read, so the terminal can feed the
    view builder straight from the wire. Decoding allocates the events
    and the texts, no (value, position) pair per varint, and one shared
    [Close_node] per table tag. Raises [Invalid_argument] on malformed
    bytes: a header out of range, a close with no open element, a tag
    index beyond the table, a truncated string or varint, or a bad
    condition; [f] has then seen the events before the fault. A stream
    that ends with elements still open decodes; the view builder
    refuses it. *)

val decode_list : string -> Output.t list
(** {!iter} collecting the events into a list, with the same
    refusals. *)

val size_list : Output.t list -> int
(** [size_list outs] is [String.length (encode_list outs)] exactly, on
    every stream [encode_list] accepts. It encodes nothing: the size
    comes by arithmetic over the events, and its only allocation is the
    stream's tag table, none per event. It does not check closes. *)
