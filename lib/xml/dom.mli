(** In-memory tree representation of XML documents.

    The streaming engine never builds a DOM (that is the point of the paper);
    the DOM exists for document generators, the declarative access-control
    oracle used in tests, and result reassembly on the terminal side, which
    is not memory-constrained. *)

type t =
  | Element of string * t list  (** tag and children in document order *)
  | Text of string

val element : string -> t list -> t
val text : string -> t

val tag : t -> string option
(** [tag n] is [Some name] for elements, [None] for text nodes. *)

val children : t -> t list
(** Children of an element; [[]] for text nodes. *)

val equal : t -> t -> bool

val to_events : t -> Event.t list
(** Document-order event stream of the tree. *)

val of_events : Event.t list -> t
(** Rebuilds a tree from a well-formed single-rooted stream.
    Raises [Invalid_argument] otherwise. *)

val node_count : t -> int
(** Number of element nodes. *)

val text_bytes : t -> int
(** Total bytes of text content. *)

val depth : t -> int
(** Height of the tree ([1] for a leaf element). *)

val distinct_tags : t -> string list
(** Sorted list of distinct element tags. *)

val find_all : (string list -> t -> bool) -> t -> t list
(** [find_all p doc] returns, in document order, the element nodes [n] for
    which [p rev_path n] holds, where [rev_path] is the list of ancestor tags
    innermost-first (excluding [n] itself). *)

val pp : Format.formatter -> t -> unit
(** Compact single-line rendering, for debugging and test failure output. *)
