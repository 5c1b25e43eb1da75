module Dom = Sdds_xml.Dom
module Event = Sdds_xml.Event
module Writer = Sdds_xml.Serializer.Writer

(* Feed every output [outputs] passes on through one view builder. *)
let release ~has_query ~emit outputs =
  let sv = Stream_view.create ~has_query ~emit () in
  outputs (Stream_view.feed sv);
  Stream_view.finish sv

let xml ~has_query outputs =
  let w = Writer.create ~indent:true () in
  release ~has_query ~emit:(Writer.event w) outputs;
  match Writer.contents w with "" -> None | s -> Some s

(* An element of the view still open: its tag, its children so far (last
   first) and the element it sits in. *)
type frame = { tag : string; mutable kids : Dom.t list; up : frame }

let run ~has_query outs =
  let rec top = { tag = ""; kids = []; up = top } in
  let cur = ref top in
  (* [Stream_view] releases a well-formed sequence with one root. *)
  let emit = function
    | Event.Open tag -> cur := { tag; kids = []; up = !cur }
    | Event.Value v -> !cur.kids <- Dom.Text v :: !cur.kids
    | Event.Close _ ->
        let f = !cur in
        f.up.kids <- Dom.Element (f.tag, List.rev f.kids) :: f.up.kids;
        cur := f.up
  in
  release ~has_query ~emit (fun feed -> List.iter feed outs);
  match top.kids with [ view ] -> Some view | _ -> None
