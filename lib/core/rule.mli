(** Access-control rules: the <sign, subject, object> triples of §2.2.

    The [object] is an XP{[],*,//} expression; rules propagate to the
    descendants of the nodes they target, conflicts are resolved by
    Denial-Takes-Precedence and Most-Specific-Object-Takes-Precedence, and
    a node no rule reaches is denied: the world is closed. A policy that
    wants an open world says so with one more rule, [+, s, /*], which
    allows the document element and, by propagation, everything no other
    rule reaches. *)

type sign = Allow | Deny

type t = {
  sign : sign;
  subject : string;  (** user or role the rule applies to *)
  path : Sdds_xpath.Ast.t;  (** the object *)
}

val make : sign -> subject:string -> string -> t
(** [make sign ~subject xpath] parses the object expression.
    Raises [Sdds_xpath.Parser.Error] on a malformed path. *)

val allow : subject:string -> string -> t
val deny : subject:string -> string -> t

val for_subject : string -> t list -> t list
(** Rules applying to the given subject (exact match). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val parse : string -> t
(** Inverse of {!to_string}: ["+|- , subject , xpath"], e.g.
    ["+, alice, //patient/name"]. Raises [Invalid_argument] or
    [Sdds_xpath.Parser.Error] on malformed input. *)

val pp_sign : Format.formatter -> sign -> unit
val equal : t -> t -> bool
