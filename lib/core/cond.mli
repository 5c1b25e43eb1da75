(** Condition variables and boolean expressions over them.

    A rule whose navigational path has reached its final state while some of
    its predicate paths have not is {e pending} (§2.3 of the paper). Each
    outstanding predicate instance is a {e condition variable}, resolved to
    a boolean when the subtree of its anchor node closes (or eagerly, as
    soon as it is satisfied). Node decisions are boolean expressions over
    these variables; {!Settle}, the status rule of {!Stream_view} and of
    the card's guards, evaluates them as [Resolve] events arrive. *)

type var = int
(** Condition variable identifier, unique within one engine run. *)

type t =
  | True
  | False
  | Var of var
  | And of t list  (** invariant (smart constructors): >= 2 elements, no nested [And], no constants *)
  | Or of t list  (** same invariant *)

val tt : t
val ff : t
val var : var -> t

val conj : t list -> t
(** Conjunction with simplification (constant folding, flattening,
    deduplication of variables). *)

val disj : t list -> t

val of_bool : bool -> t

val to_bool : t -> bool option
(** [Some b] when the expression is the constant [b]. *)

val vars : t -> var list
(** Sorted, without duplicates. *)

val eval : (var -> bool) -> t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val size : t -> int
(** Number of nodes in the expression — used by the SOE memory
    accountant. *)
