(* The engine numbers condition variables densely from 0, so the
   identity spreads them evenly over the buckets, at a fraction of the
   cost of the generic hash. *)
module Vars = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

type 'a node = {
  mutable neg : Cond.t;
  mutable pos : Cond.t;
  mutable query : Cond.t;
  parent : 'a node;
  mutable bits : int;
  mutable waiters : 'a node list;
  mutable data : 'a;
}

(* [bits] below 8; a client may keep flags of its own above ([mark]). *)
let settled_bit = 1 (* the status is known: [allow] and [in_scope] hold it *)
let allow = 2
let in_scope = 4

let has n bit = n.bits land bit <> 0
let has_all n bits = n.bits land bits = bits
let settled n = has n settled_bit
let visible n = has_all n (settled_bit lor allow lor in_scope)
let set_data n d = n.data <- d
let mark n bits = n.bits <- n.bits lor bits

type tri = F | T | U

(* A mentioned variable: its value, and while it is [U] the nodes waiting
   on it. *)
type 'a slot = { mutable value : tri; mutable waiting : 'a node list }

type 'a t = {
  has_query : bool;
  on_settle : 'a node -> unit;
  vars : 'a slot Vars.t;
  mutable unresolved : int;  (* mentioned variables still [U] *)
  root : 'a node;
}

(* The root is settled as Deny: the closed-world default. *)
let create ~has_query ~on_settle data =
  let bits = settled_bit lor if has_query then 0 else in_scope in
  let rec root =
    { neg = Cond.ff; pos = Cond.ff; query = Cond.ff; parent = root; bits;
      waiters = []; data }
  in
  { has_query; on_settle; vars = Vars.create 32; unresolved = 0; root }

let root t = t.root
let unresolved t = t.unresolved

(* Three-valued evaluation under the values resolved so far. *)
let rec eval t = function
  | Cond.True -> T
  | Cond.False -> F
  | Cond.Var v -> (
      match Vars.find t.vars v with s -> s.value | exception Not_found -> U)
  | Cond.And xs ->
      List.fold_left
        (fun acc x -> if acc == F then F else match eval t x with T -> acc | r -> r)
        T xs
  | Cond.Or xs ->
      List.fold_left
        (fun acc x -> if acc == T then T else match eval t x with F -> acc | r -> r)
        F xs

let const = function Cond.True | Cond.False -> true | _ -> false

(* Some condition of [n] that counts still mentions a variable. *)
let pending t n =
  not (const n.neg && const n.pos && ((not t.has_query) || const n.query))

let inherits t n =
  match (n.neg, n.pos, n.query) with
  | Cond.False, Cond.False, Cond.False -> true
  | Cond.False, Cond.False, _ -> not t.has_query
  | _ -> false

let fix t c =
  match c with
  | Cond.True | Cond.False -> c
  | _ -> ( match eval t c with T -> Cond.True | F -> Cond.False | U -> c)

(* T = Allow: [if neg then Deny else if pos then Allow else parent's]. *)
let decision n =
  match (n.neg, n.pos) with
  | Cond.True, _ -> F
  | Cond.False, Cond.True -> T
  | Cond.False, Cond.False ->
      if not (settled n.parent) then U
      else if has n.parent allow then T
      else F
  | _ -> U

(* In scope: no query, or the parent in scope, or its own query true. *)
let scope t n =
  if (not t.has_query) || has_all n.parent (settled_bit lor in_scope) then T
  else
    match n.query with
    | Cond.True -> T
    | Cond.False -> if settled n.parent then F else U
    | _ -> U

(* Tried when [n] is added, when a variable it mentions resolves, and
   when its parent settles. *)
let rec settle t n =
  if not (settled n) then begin
    if pending t n then begin
      n.neg <- fix t n.neg;
      n.pos <- fix t n.pos;
      if t.has_query then n.query <- fix t n.query
    end;
    match (decision n, scope t n) with
    | U, _ | _, U -> ()
    | d, s ->
        n.bits <-
          n.bits lor settled_bit
          lor (if d == T then allow else 0)
          lor if s == T then in_scope else 0;
        t.on_settle n;
        if n.waiters != [] then begin
          let ws = n.waiters in
          n.waiters <- [];
          List.iter (settle t) ws
        end
  end

(* Record that [n] mentions the variables of [c]: it waits on the
   unresolved ones, and each must be resolved by the end. *)
let rec watch t n c =
  match c with
  | Cond.True | Cond.False -> ()
  | Cond.Var v -> (
      match Vars.find t.vars v with
      | { value = U; waiting } as s -> s.waiting <- n :: waiting
      | _ -> ()
      | exception Not_found ->
          t.unresolved <- t.unresolved + 1;
          Vars.add t.vars v { value = U; waiting = [ n ] })
  | Cond.And xs | Cond.Or xs -> List.iter (watch t n) xs

let add t ~parent ~neg ~pos ~query data =
  let n = { neg; pos; query; parent; bits = 0; waiters = []; data } in
  if pending t n then begin
    watch t n neg;
    watch t n pos;
    if t.has_query then watch t n query
  end;
  settle t n;
  if not (settled n || settled parent) then
    parent.waiters <- n :: parent.waiters;
  n

let resolve t v b =
  let value = if b then T else F in
  match Vars.find t.vars v with
  | { value = U; waiting } as s ->
      t.unresolved <- t.unresolved - 1;
      s.value <- value;
      s.waiting <- [];
      List.iter (settle t) waiting
  | _ -> invalid_arg "Settle.resolve: condition resolved twice"
  | exception Not_found -> Vars.add t.vars v { value; waiting = [] }
