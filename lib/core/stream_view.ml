module Event = Sdds_xml.Event

(* The engine numbers condition variables densely from 0, so the
   identity spreads them evenly over the buckets, at a fraction of the
   cost of the generic hash. *)
module Vars = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

(* A buffered element. Its status — the pair (decision, in query scope) —
   follows from its own conditions and its parent's status. It is cached
   in [bits] once it settles; conditions only ever resolve, so a settled
   status never changes. *)
type node = {
  tag : string;
  mutable neg : Cond.t;  (** each condition is replaced by its constant once known *)
  mutable pos : Cond.t;
  mutable query : Cond.t;
  parent : node;  (** the sentinel is its own parent *)
  mutable bits : int;
  mutable live : int;  (** element children not known dead *)
  mutable size : int;  (** element nodes in the subtree, summed at close *)
  mutable first : item;  (** items not yet released, in document order *)
  mutable last : item;
  mutable waiters : node list;  (** unsettled children awaiting this status *)
}

and item =
  | Nil
  | Elem of { node : node; mutable next : item }
  | Text of { text : string; mutable next : item }

(* [bits] *)
let settled = 1 (* the status is known: [allow] and [in_scope] hold it *)
let allow = 2
let in_scope = 4
let is_open = 8 (* still receiving events *)
let shown = 16 (* this node or a descendant is known visible *)
let dead = 32 (* closed, and known invisible through its whole subtree *)

let has n bit = n.bits land bit <> 0
let has_all n bits = n.bits land bits = bits
let visible n = has_all n (settled lor allow lor in_scope)

type tri = F | T | U

(* A mentioned variable: its value, and while it is [U] the nodes waiting
   on it. *)
type slot = { mutable value : tri; mutable waiting : node list }

type t = {
  has_query : bool;
  emit : Event.t -> unit;
  vars : slot Vars.t;
  mutable unresolved : int;  (** mentioned variables still [U] *)
  root : node;  (** sentinel; its one child is the document element *)
  mutable top : node;  (** innermost open element ([root] outside) *)
  mutable cursor : node;  (** deepest released element on the frontier *)
  mutable buffered : int;
  mutable peak : int;
}

let create ?(default = Rule.Deny) ~has_query ~emit () =
  let bits =
    settled lor is_open
    lor (if default = Rule.Allow then allow else 0)
    lor if has_query then 0 else in_scope
  in
  let rec root =
    { tag = "#root"; neg = Cond.ff; pos = Cond.ff; query = Cond.ff;
      parent = root; bits; live = 0; size = 0; first = Nil; last = Nil;
      waiters = [] }
  in
  { has_query; emit; vars = Vars.create 32; unresolved = 0; root; top = root;
    cursor = root; buffered = 0; peak = 0 }

let peak_buffered_nodes t = t.peak

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
      if not (has n.parent settled) then U
      else if has n.parent allow then T
      else F
  | _ -> U

(* In scope: no query, or the parent in scope, or its own query true. *)
let scope t n =
  if (not t.has_query) || has_all n.parent (settled lor in_scope) then T
  else
    match n.query with
    | Cond.True -> T
    | Cond.False -> if has n.parent settled then F else U
    | _ -> U

let rec show n =
  if not (has n shown) then begin
    n.bits <- n.bits lor shown;
    show n.parent
  end

(* Settled, closed, not shown and no live child: nothing in the subtree
   can appear. The sentinel never closes, so never dies. *)
let rec die n =
  if n.bits land (settled lor is_open lor shown lor dead) = settled && n.live = 0
  then begin
    n.bits <- n.bits lor dead;
    n.parent.live <- n.parent.live - 1;
    die n.parent
  end

(* Tried when [n] opens, when a variable it mentions resolves, and when
   its parent settles. *)
let rec settle t n =
  if not (has n settled) then begin
    if pending t n then begin
      n.neg <- fix t n.neg;
      n.pos <- fix t n.pos;
      if t.has_query then n.query <- fix t n.query
    end;
    match (decision n, scope t n) with
    | U, _ | _, U -> ()
    | d, s ->
        n.bits <-
          n.bits lor settled
          lor (if d == T then allow else 0)
          lor if s == T then in_scope else 0;
        if visible n then show n else die n;
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

let push n item =
  (match n.last with
  | Nil -> n.first <- item
  | Elem c -> c.next <- item
  | Text c -> c.next <- item);
  n.last <- item

let pop n next =
  n.first <- next;
  if next == Nil then n.last <- Nil

(* Release from the cursor on, as far as the items are settled. *)
let rec pump t =
  let c = t.cursor in
  match c.first with
  | Nil ->
      if not (has c is_open) then begin
        t.emit (Event.Close c.tag);
        t.buffered <- t.buffered - 1;
        t.cursor <- c.parent;
        pump t
      end
  | Text { text; next } ->
      if has c settled then begin
        pop c next;
        if visible c then t.emit (Event.Value text);
        pump t
      end
  | Elem { node = n; next } ->
      if has n shown then begin
        pop c next;
        t.emit (Event.Open n.tag);
        t.cursor <- n;
        pump t
      end
      else if has n dead then begin
        pop c next;
        t.buffered <- t.buffered - n.size;
        pump t
      end

(* [n] is the cursor and holds nothing back: its next item is released
   as soon as it is settled. *)
let at_frontier t n = n == t.cursor && n.first == Nil

let open_node t tag neg pos query =
  let p = t.top in
  (* The sentinel's size counts a document element already closed. *)
  if p == t.root && p.size > 0 then invalid_arg "Stream_view: several roots";
  let n =
    { tag; neg; pos; query; parent = p; bits = is_open; live = 0; size = 1;
      first = Nil; last = Nil; waiters = [] }
  in
  t.buffered <- t.buffered + 1;
  if t.buffered > t.peak then t.peak <- t.buffered;
  p.live <- p.live + 1;
  t.top <- n;
  if pending t n then begin
    watch t n neg;
    watch t n pos;
    if t.has_query then watch t n query
  end;
  settle t n;
  if not (has n settled || has p settled) then p.waiters <- n :: p.waiters;
  if at_frontier t p && has n shown then begin
    t.emit (Event.Open tag);
    t.cursor <- n
  end
  else begin
    push p (Elem { node = n; next = Nil });
    pump t
  end

let feed t out =
  match out with
  | Output.Open_node { tag; neg; pos; query } -> open_node t tag neg pos query
  | Output.Text_node v ->
      let p = t.top in
      if p == t.root then invalid_arg "Stream_view: text outside elements";
      if at_frontier t p && has p settled then begin
        if visible p then t.emit (Event.Value v)
      end
      else push p (Text { text = v; next = Nil })
  | Output.Close_node tag ->
      let n = t.top in
      if n == t.root then invalid_arg "Stream_view: close without open";
      if not (String.equal n.tag tag) then
        invalid_arg "Stream_view: mismatched close";
      n.bits <- n.bits land lnot is_open;
      t.top <- n.parent;
      n.parent.size <- n.parent.size + n.size;
      die n;
      pump t
  | Output.Resolve (v, b) -> (
      let value = if b then T else F in
      match Vars.find t.vars v with
      | { value = U; waiting } as s ->
          t.unresolved <- t.unresolved - 1;
          s.value <- value;
          s.waiting <- [];
          List.iter (settle t) waiting;
          pump t
      | _ -> invalid_arg "Stream_view: condition resolved twice"
      | exception Not_found -> Vars.add t.vars v { value; waiting = [] })

let finish t =
  if t.top != t.root then invalid_arg "Stream_view.finish: elements still open";
  if t.unresolved > 0 then
    invalid_arg "Stream_view.finish: unresolved conditions remain";
  (* Every node is settled and closed now, so shown or dead: all released. *)
  assert (t.cursor == t.root && t.root.first == Nil)
