let authorized_view ?query ~rules doc =
  let outs = Engine.run ?query rules (Sdds_xml.Dom.to_events doc) in
  Reassembler.run ~has_query:(query <> None) outs

let authorized_view_for ?query ~subject ~rules doc =
  let rules = Rule.for_subject subject rules in
  let query = Option.map Sdds_xpath.Parser.parse query in
  authorized_view ?query ~rules doc
