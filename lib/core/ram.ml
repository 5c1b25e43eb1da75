let field_bytes n = 2 * n
let element_words ~tag_set = 3 + ((tag_set + 31) / 32)

module Tags = Hashtbl.Make (String)

let tag_table_entries outputs =
  let seen = Tags.create 16 in
  List.iter
    (function
      | Output.Open_node { tag; _ } -> Tags.replace seen tag () | _ -> ())
    outputs;
  Tags.length seen

let default_chunk_bytes = 240
let chunk_slack_bytes = 16
let fixed_bytes = 128

let charge ~state_words ~reader_words ~tags ~held_bytes ~chunk_bytes =
  field_bytes (state_words + reader_words + tags)
  + held_bytes + chunk_bytes + chunk_slack_bytes + fixed_bytes
