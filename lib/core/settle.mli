(** When a streamed node's status settles: the one copy of the decision
    and scope rules. {!Stream_view} builds the view with it, and the
    card's [Guard.Protector] releases or destroys a sealed region's key
    with it.

    A node's status is its decision, [if neg then Deny else if pos then
    Allow else parent's] (the root carries [Deny], the closed-world
    default of {!Rule}), and whether it is
    in scope: no query, its parent in scope, or its own query condition
    true. Both are three-valued under the variables resolved so far; the
    status settles once both are known, and never changes after, since
    conditions only resolve. A node is retried only when a variable it
    mentions resolves or its parent settles. *)

type 'a node = private {
  mutable neg : Cond.t;  (** replaced by its constant once known *)
  mutable pos : Cond.t;
  mutable query : Cond.t;
  parent : 'a node;  (** the root is its own parent *)
  mutable bits : int;
  mutable waiters : 'a node list;  (** unsettled children awaiting it *)
  mutable data : 'a;  (** the client's own state for this node *)
}

type 'a t

val create : has_query:bool -> on_settle:('a node -> unit) -> 'a -> 'a t
(** A settled root carrying the given data. [on_settle] runs once for
    every other node, when it settles. *)

val root : 'a t -> 'a node

val add :
  'a t -> parent:'a node -> neg:Cond.t -> pos:Cond.t -> query:Cond.t -> 'a ->
  'a node
(** A child of [parent], settled (and [on_settle] run) before [add]
    returns if the values resolved so far decide it. *)

val resolve : 'a t -> Cond.var -> bool -> unit
(** Raises [Invalid_argument] when the variable was resolved already. *)

val settled : 'a node -> bool
val visible : 'a node -> bool  (** settled as Allow and in scope *)

val inherits : 'a t -> 'a node -> bool
(** Its own conditions are constant false, so its status is its
    parent's. Meaningful right after [add]. *)

val set_data : 'a node -> 'a -> unit

val mark : 'a node -> int -> unit
(** Sets flags of the client's own in [bits], from 8 up; the status
    uses the bits below. *)

val unresolved : 'a t -> int
(** Variables some [add] mentioned that are not resolved yet. *)
