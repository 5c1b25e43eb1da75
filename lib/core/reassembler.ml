module Dom = Sdds_xml.Dom
module Event = Sdds_xml.Event

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
  let sv = Stream_view.create ~has_query ~emit () in
  List.iter (Stream_view.feed sv) outs;
  Stream_view.finish sv;
  match top.kids with [ view ] -> Some view | _ -> None
