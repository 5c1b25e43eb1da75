type t = {
  docs : (string, Publish.published) Hashtbl.t;
  rules : (string * string, string) Hashtbl.t;
  grants : (string * string, string) Hashtbl.t;
}

let create () =
  { docs = Hashtbl.create 8; rules = Hashtbl.create 8; grants = Hashtbl.create 8 }

let put_document t p = Hashtbl.replace t.docs p.Publish.doc_id p
let get_document t id = Hashtbl.find_opt t.docs id

let list_documents t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.docs [])

let put_rules t ~doc_id ~subject blob =
  Hashtbl.replace t.rules (doc_id, subject) blob

let get_rules t ~doc_id ~subject = Hashtbl.find_opt t.rules (doc_id, subject)

let put_grant t ~doc_id ~subject wrapped =
  Hashtbl.replace t.grants (doc_id, subject) wrapped

let get_grant t ~doc_id ~subject = Hashtbl.find_opt t.grants (doc_id, subject)

let fold_rules t f init =
  Hashtbl.fold
    (fun (doc_id, subject) blob acc -> f ~doc_id ~subject blob acc)
    t.rules init

let fold_grants t f init =
  Hashtbl.fold
    (fun (doc_id, subject) wrapped acc -> f ~doc_id ~subject wrapped acc)
    t.grants init

let with_doc t doc_id f =
  match Hashtbl.find_opt t.docs doc_id with
  | None -> invalid_arg ("Store: unknown document " ^ doc_id)
  | Some p -> f p

let check_chunk p i =
  if i < 0 || i >= Array.length p.Publish.chunks then
    invalid_arg "Store: chunk index out of range"

let tamper_substitute t ~doc_id ~chunk data =
  with_doc t doc_id (fun p ->
      check_chunk p chunk;
      p.Publish.chunks.(chunk) <- data)

let tamper_swap t ~doc_id i j =
  with_doc t doc_id (fun p ->
      check_chunk p i;
      check_chunk p j;
      let tmp = p.Publish.chunks.(i) in
      p.Publish.chunks.(i) <- p.Publish.chunks.(j);
      p.Publish.chunks.(j) <- tmp)

let tamper_truncate t ~doc_id ~keep_chunks =
  with_doc t doc_id (fun p ->
      if keep_chunks < 0 || keep_chunks > Array.length p.Publish.chunks then
        invalid_arg "Store: bad truncation";
      Hashtbl.replace t.docs doc_id
        { p with Publish.chunks = Array.sub p.Publish.chunks 0 keep_chunks })

let tamper_flip_bit t ~doc_id ~chunk ~bit =
  with_doc t doc_id (fun p ->
      check_chunk p chunk;
      let b = Bytes.of_string p.Publish.chunks.(chunk) in
      let byte = bit / 8 in
      if byte >= Bytes.length b then invalid_arg "Store: bit out of range";
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl (bit mod 8)));
      p.Publish.chunks.(chunk) <- Bytes.to_string b)
