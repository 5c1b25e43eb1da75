module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Host = Sdds_soe.Remote_card.Host
module Rule = Sdds_core.Rule
module Rng = Sdds_util.Rng

type t = {
  store : Store.t;
  publisher : Rsa.keypair;
  user : Rsa.keypair;
  subject : string;
  drbg : Drbg.t;
  doc_ids : string array;
  doc_keys : (string, string) Hashtbl.t;
  golden : (string * string option, string option) Hashtbl.t;
}

let create drbg ~publisher ~user ?(subject = "u") ?chunk_bytes docs =
  let store = Store.create () in
  let doc_keys = Hashtbl.create 8 in
  List.iter
    (fun (doc_id, doc, rules) ->
      let published, doc_key =
        Publish.publish drbg ~publisher ~doc_id ?chunk_bytes doc
      in
      Hashtbl.replace doc_keys doc_id doc_key;
      Store.put_document store published;
      Store.put_rules store ~doc_id ~subject
        (Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id ~subject
           rules);
      Store.put_grant store ~doc_id ~subject
        (Publish.grant drbg ~doc_key ~doc_id ~recipient:user.Rsa.public))
    docs;
  {
    store;
    publisher;
    user;
    subject;
    drbg;
    doc_ids = Array.of_list (List.map (fun (id, _, _) -> id) docs);
    doc_keys;
    golden = Hashtbl.create 32;
  }

let wards ~doc_id ~seed n =
  List.init n (fun i ->
      ( doc_id i,
        Sdds_xml.Generator.hospital
          (Rng.create (Int64.of_int (seed i)))
          ~patients:(1 + (i mod 3)),
        [ Rule.allow ~subject:"u" "//patient";
          Rule.deny ~subject:"u"
            (if i mod 2 = 0 then "//ssn" else "//diagnosis") ] ))

let store w = w.store
let publisher w = w.publisher
let user w = w.user
let drbg w = w.drbg
let doc_key w doc_id = Hashtbl.find w.doc_keys doc_id

let resolve w doc_id =
  Option.map
    (fun p -> Publish.to_source p ~delivery:`Pull)
    (Store.get_document w.store doc_id)

let host ~profile w =
  let card = Card.create ~profile ~subject:w.subject w.user in
  Host.create ~card ~resolve:(resolve w) ()

let make_card ~profile w () =
  let host = host ~profile w in
  (Host.process host, fun () -> Host.tear host)

let golden w (r : Proxy.Request.t) =
  let key = (r.Proxy.Request.doc_id, r.Proxy.Request.xpath) in
  match Hashtbl.find_opt w.golden key with
  | Some xml -> xml
  | None ->
      let card = Card.create ~profile:Cost.fleet ~subject:w.subject w.user in
      let xml =
        match Proxy.run (Proxy.create ~store:w.store ~card) r with
        | Ok o -> o.Proxy.xml
        | Error e ->
            failwith (Format.asprintf "golden run failed: %a" Proxy.pp_error e)
      in
      Hashtbl.add w.golden key xml;
      xml

let requests w rng n =
  let docs = Array.length w.doc_ids in
  let cum =
    let weights =
      Array.init docs (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) 1.1)
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      weights
  in
  let pick_doc () =
    let u = float_of_int (Rng.int rng 1_000_000) /. 1.0e6 in
    let rec go k = if k >= docs - 1 || u <= cum.(k) then k else go (k + 1) in
    w.doc_ids.(go 0)
  in
  let xpaths = [| None; Some "//patient/name"; Some "//patient" |] in
  List.init n (fun i ->
      Proxy.Request.make
        ?xpath:xpaths.(i mod Array.length xpaths)
        (pick_doc ()))
