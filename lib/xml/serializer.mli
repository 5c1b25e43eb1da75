(** Rendering XML text, from events or from a tree.

    ['@'-tagged] pseudo-elements produced by the parser are rendered back as
    real attributes, so [to_string (Parser.dom_of_string s)] round-trips
    modulo whitespace. There is one renderer, the event-driven {!Writer};
    {!to_string} feeds it a walk of the tree. *)

val escape_text : string -> string
(** Escape [&], [<] and [>] for character data. *)

val escape_attribute : string -> string
(** Escape ampersand, [<] and double quote for attribute values. *)

(** An event sink that writes XML as the events arrive, holding no tree:
    one frame per open element, reused across elements.

    The rendering rules:
    - an [@]-tagged child of an element becomes an attribute of its open
      tag wherever it sits among the children, and only its direct text
      is its value (elements inside it are dropped); one read after the
      element's content is spliced in at the open tag's end;
    - an element with no content child closes as [/>];
    - with [~indent:true], every node starts on its own line, indented
      two spaces per level, except an element's only content child when
      it is a text, which stays inline;
    - a root tagged [@x] is an ordinary element, and text outside any
      element is written as text.

    Any well-formed single-rooted stream is rendered byte for byte as
    {!to_string} renders the tree it describes. *)
module Writer : sig
  type t

  val create : ?indent:bool -> unit -> t
  (** [indent] defaults to [false]. *)

  val event : t -> Event.t -> unit
  (** Raises [Invalid_argument] on a close with nothing open. *)

  val contents : t -> string
  (** The text written so far: [""] when no event was written. *)
end

val to_string : ?indent:bool -> Dom.t -> string
(** Render a tree. With [~indent:true] (default [false]), elements are
    placed on their own indented lines. *)
