(** Rendering DOM trees back to XML text.

    ['@'-tagged] pseudo-elements produced by the parser are rendered back as
    real attributes, so [to_string (Parser.dom_of_string s)] round-trips
    modulo whitespace. *)

val escape_text : string -> string
(** Escape [&], [<] and [>] for character data. *)

val escape_attribute : string -> string
(** Escape ampersand, [<] and double quote for attribute values. *)

val to_string : ?indent:bool -> Dom.t -> string
(** Render a tree. With [~indent:true] (default [false]), elements are
    placed on their own indented lines. *)
