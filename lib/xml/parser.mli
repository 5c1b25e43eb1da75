(** Event-based (SAX-style) XML parser.

    Covers the fragment the system exchanges: elements, attributes
    (surfaced as ['@'-tagged] child elements, in attribute order, before
    other children), character data, CDATA sections, comments, processing
    instructions and the XML declaration (both skipped), and the five
    predefined entities plus decimal/hex character references. Namespaces
    are kept verbatim in names. DTDs are not supported. *)

exception Error of int * string
(** [Error (offset, message)]: byte offset in the input where parsing
    failed. *)

val dom_of_string : string -> Dom.t
(** Parse a complete document into its tree.
    Raises {!Error} on malformed input. *)

val fold : string -> ('a -> Event.t -> 'a) -> 'a -> 'a
(** [fold s f init] runs [f] over each event without materializing the
    event list — the streaming entry point. *)
