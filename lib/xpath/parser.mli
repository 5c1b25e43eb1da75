(** Parser for the XP{[],*,//} concrete syntax.

    Accepted grammar (whitespace allowed around tokens inside predicates):
    {v
    path  ::= ('/' | '//') relpath
    rel   ::= step (('/' | '//') step)*
    step  ::= name | '@' name | '*'           followed by predicates
    pred  ::= '[' ppath (op literal)? ']'
    ppath ::= '.' | ('.//' | './')? rel
    op    ::= '=' | '!=' | '<' | '<=' | '>' | '>='
    literal ::= double- or single-quoted string | number
    v} *)

exception Error of int * string
(** Position (byte offset) and description of a syntax error. *)

val parse : string -> Ast.t
(** Raises {!Error} on malformed input. *)
