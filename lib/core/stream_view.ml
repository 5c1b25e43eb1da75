module Event = Sdds_xml.Event

(* A buffered element. Its status lives in its [Settle.node]; this is
   what the view keeps beside it. *)
type node = elem Settle.node

and elem = {
  tag : string;
  mutable live : int;  (** element children not known dead *)
  mutable size : int;  (** element nodes in the subtree, summed at close *)
  mutable first : item;  (** items not yet released, in document order *)
  mutable last : item;
}

and item =
  | Nil
  | Elem of { node : node; mutable next : item }
  | Text of { text : string; mutable next : item }

(* This module's flags in [Settle.node.bits]. *)
let closed = 8 (* received its close *)
let shown = 16 (* this node or a descendant is known visible *)
let dead = 32 (* closed, and known invisible through its whole subtree *)

let has (n : node) flag = n.bits land flag <> 0

type t = {
  emit : Event.t -> unit;
  settle : elem Settle.t;
  root : node;  (** sentinel; its one child is the document element *)
  mutable top : node;  (** innermost open element ([root] outside) *)
  mutable cursor : node;  (** deepest released element on the frontier *)
  mutable buffered : int;
  mutable peak : int;
}

let rec show (n : node) =
  if not (has n shown) then begin
    Settle.mark n shown;
    show n.parent
  end

(* Settled, closed, not shown and no live child: nothing in the subtree
   can appear. The sentinel never closes, so never dies. *)
let rec die (n : node) =
  let e = n.data in
  if Settle.settled n && n.bits land (closed lor shown lor dead) = closed
     && e.live = 0
  then begin
    Settle.mark n dead;
    n.parent.data.live <- n.parent.data.live - 1;
    die n.parent
  end

let on_settle n = if Settle.visible n then show n else die n

let create ~has_query ~emit () =
  let settle =
    Settle.create ~has_query ~on_settle
      { tag = "#root"; live = 0; size = 0; first = Nil; last = Nil }
  in
  let root = Settle.root settle in
  { emit; settle; root; top = root; cursor = root; buffered = 0; peak = 0 }

let peak_buffered_nodes t = t.peak

let push (e : elem) item =
  (match e.last with
  | Nil -> e.first <- item
  | Elem c -> c.next <- item
  | Text c -> c.next <- item);
  e.last <- item

let pop (e : elem) next =
  e.first <- next;
  if next == Nil then e.last <- Nil

(* Release from the cursor on, as far as the items are settled. *)
let rec pump t =
  let c = t.cursor in
  let e = c.data in
  match e.first with
  | Nil ->
      if has c closed then begin
        t.emit (Event.Close e.tag);
        t.buffered <- t.buffered - 1;
        t.cursor <- c.parent;
        pump t
      end
  | Text { text; next } ->
      if Settle.settled c then begin
        pop e next;
        if Settle.visible c then t.emit (Event.Value text);
        pump t
      end
  | Elem { node = n; next } ->
      if has n shown then begin
        pop e next;
        t.emit (Event.Open n.data.tag);
        t.cursor <- n;
        pump t
      end
      else if has n dead then begin
        pop e next;
        t.buffered <- t.buffered - n.data.size;
        pump t
      end

(* [n] is the cursor and holds nothing back: its next item is released
   as soon as it is settled. *)
let at_frontier t (n : node) = n == t.cursor && n.data.first == Nil

let open_node t tag neg pos query =
  let p = t.top in
  (* The sentinel's size counts a document element already closed. *)
  if p == t.root && p.data.size > 0 then
    invalid_arg "Stream_view: several roots";
  t.buffered <- t.buffered + 1;
  if t.buffered > t.peak then t.peak <- t.buffered;
  p.data.live <- p.data.live + 1;
  let n =
    Settle.add t.settle ~parent:p ~neg ~pos ~query
      { tag; live = 0; size = 1; first = Nil; last = Nil }
  in
  t.top <- n;
  if at_frontier t p && has n shown then begin
    t.emit (Event.Open tag);
    t.cursor <- n
  end
  else begin
    push p.data (Elem { node = n; next = Nil });
    pump t
  end

let feed t out =
  match out with
  | Output.Open_node { tag; neg; pos; query } -> open_node t tag neg pos query
  | Output.Text_node v ->
      let p = t.top in
      if p == t.root then invalid_arg "Stream_view: text outside elements";
      if at_frontier t p && Settle.settled p then begin
        if Settle.visible p then t.emit (Event.Value v)
      end
      else push p.data (Text { text = v; next = Nil })
  | Output.Close_node tag ->
      let n = t.top in
      let e = n.data in
      if n == t.root then invalid_arg "Stream_view: close without open";
      if not (String.equal e.tag tag) then
        invalid_arg "Stream_view: mismatched close";
      Settle.mark n closed;
      t.top <- n.parent;
      n.parent.data.size <- n.parent.data.size + e.size;
      die n;
      pump t
  | Output.Resolve (v, b) ->
      Settle.resolve t.settle v b;
      pump t

let finish t =
  if t.top != t.root then invalid_arg "Stream_view.finish: elements still open";
  if Settle.unresolved t.settle > 0 then
    invalid_arg "Stream_view.finish: unresolved conditions remain";
  (* Every node is settled and closed now, so shown or dead: all released. *)
  assert (t.cursor == t.root && t.root.data.first == Nil)
