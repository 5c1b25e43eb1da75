type result = {
  view : Sdds_xml.Dom.t option;
  view_bytes : int;
  server_events : int;
}

let evaluate ?query ~rules doc =
  let view = Sdds_core.Oracle.authorized_view ?query ~rules doc in
  let view_bytes =
    match view with
    | None -> 0
    | Some v -> String.length (Sdds_xml.Serializer.to_string v)
  in
  { view; view_bytes; server_events = List.length (Sdds_xml.Dom.to_events doc) }
