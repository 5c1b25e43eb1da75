module Dom = Sdds_xml.Dom
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

let run ~has_query outs =
  let evs = ref [] in
  release ~has_query ~emit:(fun ev -> evs := ev :: !evs)
    (fun feed -> List.iter feed outs);
  match !evs with [] -> None | evs -> Some (Dom.of_events (List.rev evs))
