(** Abstract syntax of the XPath fragment XP{[],*,//}.

    This is the fragment the paper adopts for both access-control rules and
    queries: node tests, the child axis [/], the descendant axis [//],
    wildcards [*], and predicates [[...]]. Predicates are relative paths,
    optionally ending in a comparison with a literal (the rule examples of
    the underlying VLDB'04 system compare element content, e.g.
    [//patient[age>60]]); they may nest. Attributes appear as ['@'-prefixed]
    node tests, matching the parser's attribute encoding. *)

type axis =
  | Child  (** [/] — immediate children *)
  | Descendant  (** [//] — any depth below (strict descendants) *)

type test =
  | Name of string  (** tag or ['@'-prefixed] attribute name *)
  | Any  (** [*] *)

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type pred_target =
  | Exists  (** [[p]] — some node matches [p] *)
  | Value of comparison * string
      (** [[p op lit]] — some node matching [p] has text content standing in
          [op] to [lit]; numeric comparison when both sides parse as
          numbers, lexicographic otherwise *)

type step = { axis : axis; test : test; preds : pred list }

and pred = { ppath : step list; target : pred_target }
(** A predicate path is relative to the node carrying it. [ppath = []]
    denotes [.] (the node itself) and is only meaningful with a [Value]
    target. *)

type t = { steps : step list }
(** An absolute location path; the first step's axis is relative to the
    document root (so [{axis = Child}] first step matches the document
    element, as in [/a], and [{axis = Descendant}] is [//a]). *)

val compare_values : comparison -> string -> string -> bool
(** [compare_values op actual literal] implements the comparison semantics
    described under {!Value}. *)

val pp : Format.formatter -> t -> unit
(** Prints concrete syntax that {!Parser.parse} accepts. *)

val to_string : t -> string

val equal : t -> t -> bool

val size : t -> int
(** Total number of steps, nested predicate paths included — a complexity
    measure used by the benchmarks. *)
