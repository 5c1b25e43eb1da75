module Remote_card = Sdds_soe.Remote_card
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Proxy = Sdds_proxy.Proxy
module Fleet = Sdds_proxy.Fleet
module Publish = Sdds_dsp.Publish
module World = Sdds_proxy.World
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Oracle = Sdds_core.Oracle
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

let dom = Alcotest.testable Dom.pp Dom.equal
let dom_opt = Alcotest.(option dom)

(* One world: a published hospital document on a DSP store and a
   personalized card behind an APDU host. *)
type world = {
  store : Store.t;
  doc : Dom.t;
  rules : Rule.t list;
  encrypted_rules : string;
  wrapped : string;
  source : Card.doc_source;
  transport : Remote_card.transport;
  card : Card.t;
}

let world =
  lazy
    (let drbg = Drbg.create ~seed:"remote-card" in
     let publisher = Rsa.generate drbg ~bits:512 in
     let user = Rsa.generate drbg ~bits:512 in
     let doc = Generator.hospital (Rng.create 41L) ~patients:6 in
     let rules =
       [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]
     in
     let w =
       World.create drbg ~publisher ~user [ ("remote-doc", doc, rules) ]
     in
     let store = World.store w in
     let card = Card.create ~profile:Cost.modern ~subject:"u" user in
     let host = Remote_card.Host.create ~card ~resolve:(World.resolve w) () in
     {
       store;
       doc;
       rules;
       encrypted_rules =
         Option.get (Store.get_rules store ~doc_id:"remote-doc" ~subject:"u");
       wrapped =
         Option.get (Store.get_grant store ~doc_id:"remote-doc" ~subject:"u");
       source = Option.get (World.resolve w "remote-doc");
       transport = Remote_card.Host.process host;
       card;
     })

(* One request through a fresh pool over the world's host. [rules]
   replaces the rule blob the store serves for this one request; the
   original is put back afterwards. *)
let serve ?rules w req =
  let pool =
    Proxy.Pool.create ~store:w.store ~transport:w.transport ~subject:"u" ()
  in
  let serve_one () =
    match Proxy.Pool.serve pool [ req ] with [ r ] -> r | _ -> assert false
  in
  let put = Store.put_rules w.store ~doc_id:"remote-doc" ~subject:"u" in
  match rules with
  | None -> serve_one ()
  | Some rules ->
      put rules;
      Fun.protect ~finally:(fun () -> put w.encrypted_rules) serve_one

let test_remote_equals_direct () =
  let w = Lazy.force world in
  match serve w (Proxy.Request.make "remote-doc") with
  | Error e -> Alcotest.failf "request failed: %a" Proxy.pp_error e
  | Ok s ->
      Alcotest.check dom_opt "view through APDU = oracle"
        (Oracle.authorized_view ~rules:w.rules w.doc)
        (Lazy.force s.Proxy.Pool.view);
      Alcotest.(check bool) "several frames each way" true
        (s.Proxy.Pool.command_frames > 2
        && s.Proxy.Pool.response_frames = s.Proxy.Pool.command_frames);
      Alcotest.(check bool) "wire bytes counted" true
        (s.Proxy.Pool.wire_bytes > String.length w.encrypted_rules)

let test_remote_with_query () =
  let w = Lazy.force world in
  match serve w (Proxy.Request.make ~xpath:"//patient/name" "remote-doc") with
  | Error e -> Alcotest.failf "request failed: %a" Proxy.pp_error e
  | Ok s ->
      Alcotest.check dom_opt "query through APDU"
        (Oracle.authorized_view ~rules:w.rules
           ~query:(Sdds_xpath.Parser.parse "//patient/name")
           w.doc)
        (Lazy.force s.Proxy.Pool.view)

let test_remote_unknown_document () =
  let w = Lazy.force world in
  let resp =
    w.transport
      {
        Apdu.cla = Apdu.base_cla;
        ins = Remote_card.Ins.select;
        p1 = 0;
        p2 = 0;
        data = "nope";
      }
  in
  match Remote_card.classify ~doc_id:"nope" resp with
  | Remote_card.Fatal (Card.No_key id) ->
      Alcotest.(check string) "names the document" "nope" id
  | _ -> Alcotest.fail "expected select failure"

let test_remote_out_of_sequence () =
  let w = Lazy.force world in
  (* Evaluate without selecting or loading rules on a fresh host. *)
  let host =
    Remote_card.Host.create ~card:w.card ~resolve:(fun _ -> Some w.source) ()
  in
  let resp =
    Remote_card.Host.process host
      { Apdu.cla = 0x80; ins = Remote_card.Ins.evaluate; p1 = 0; p2 = 0; data = "" }
  in
  Alcotest.(check bool) "bad state" true
    ((resp.Apdu.sw1, resp.Apdu.sw2) = Remote_card.Sw.bad_state)

let test_remote_bad_class_and_ins () =
  let w = Lazy.force world in
  let resp =
    w.transport { Apdu.cla = 0x00; ins = 0xFF; p1 = 0; p2 = 0; data = "" }
  in
  Alcotest.(check bool) "bad ins" true
    ((resp.Apdu.sw1, resp.Apdu.sw2) = Remote_card.Sw.bad_ins)

let test_remote_security_error_mapped () =
  let w = Lazy.force world in
  (* Corrupt the rule blob: the MAC failure must surface as SW 6982. *)
  let bad = Bytes.of_string w.encrypted_rules in
  Bytes.set_uint8 bad 20 (Bytes.get_uint8 bad 20 lxor 1);
  match
    serve ~rules:(Bytes.to_string bad) w (Proxy.Request.make "remote-doc")
  with
  | Error (Proxy.Card_error (Card.Bad_rules _)) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Proxy.pp_error e
  | Ok _ -> Alcotest.fail "expected security error"

(* A terminal that sends raw frames can upload a query that does not
   parse. The card must refuse it at EVALUATE, arm no stream, and answer
   a word the pool reads as a typed protocol error, not as a lost session
   it would replay: evaluating without the query would serve the policy's
   whole view. The control is the same exchange with a query that
   parses, whose drained stream is the query's view. *)
let test_malformed_query_refused () =
  let w = Lazy.force world in
  let exchange query =
    let host =
      Remote_card.Host.create ~card:w.card
        ~resolve:(fun id ->
          if String.equal id "remote-doc" then Some w.source else None)
        ()
    in
    let send (cmd : Apdu.command) =
      let r = Remote_card.Host.process host cmd in
      (r.Apdu.sw1, r.Apdu.sw2, r.Apdu.payload)
    in
    let frame ins p2 data = { Apdu.cla = 0x80; ins; p1 = 0; p2; data } in
    let ok what (sw1, sw2, _) =
      Alcotest.(check (pair int int)) what Remote_card.Sw.ok (sw1, sw2)
    in
    ok "select" (send (frame Remote_card.Ins.select 0 "remote-doc"));
    ok "grant" (send (frame Remote_card.Ins.grant 0 w.wrapped));
    let chain ins data =
      List.iter
        (fun f -> ok "chain frame" (send f))
        (Apdu.segment ~cla:0x80 ~ins data)
    in
    chain Remote_card.Ins.rules w.encrypted_rules;
    chain Remote_card.Ins.query query;
    let sw1, sw2, payload = send (frame Remote_card.Ins.evaluate 0 "") in
    let stream = Buffer.create 256 in
    Buffer.add_string stream payload;
    let rec drain block sw1 =
      if sw1 = fst Remote_card.Sw.more_data then begin
        let sw1', _, payload =
          send (frame Remote_card.Ins.get_response (block land 0xff) "")
        in
        Buffer.add_string stream payload;
        drain (block + 1) sw1'
      end
    in
    drain 1 sw1;
    let after = send (frame Remote_card.Ins.get_response 0 "") in
    ((sw1, sw2), Buffer.contents stream, after)
  in
  let sw, stream, _ = exchange "//patient/name" in
  Alcotest.(check bool) "control: the query's stream is served" true
    (sw = Remote_card.Sw.ok || fst sw = fst Remote_card.Sw.more_data);
  Alcotest.check dom_opt "control: the query's view"
    (Oracle.authorized_view ~rules:w.rules
       ~query:(Sdds_xpath.Parser.parse "//patient/name")
       w.doc)
    (Sdds_core.Reassembler.run ~has_query:true
       (Sdds_core.Output_codec.decode_list stream));
  let sw, stream, (after1, after2, _) = exchange "//patient[" in
  Alcotest.(check (pair int int)) "malformed query: 6A80 at EVALUATE"
    (0x6A, 0x80) sw;
  Alcotest.(check (pair int int)) "the word is bad_query"
    Remote_card.Sw.bad_query sw;
  Alcotest.(check int) "no stream served" 0 (String.length stream);
  Alcotest.(check (pair int int)) "nothing to drain" Remote_card.Sw.bad_state
    (after1, after2);
  match
    Remote_card.classify ~doc_id:"remote-doc"
      { Apdu.sw1 = fst sw; sw2 = snd sw; payload = "" }
  with
  | Remote_card.Unknown _ -> ()
  | _ -> Alcotest.fail "the pool must read 6A80 as a protocol error"

let test_remote_chain_gap () =
  (* A dropped frame in a chained command must fail fast, not silently
     concatenate. *)
  let w = Lazy.force world in
  let host =
    Sdds_soe.Remote_card.Host.create ~card:w.card
      ~resolve:(fun _ -> Some w.source)
      ()
  in
  let send ins p1 p2 data =
    Sdds_soe.Remote_card.Host.process host
      { Apdu.cla = 0x80; ins; p1; p2; data }
  in
  ignore (send Remote_card.Ins.select 0 0 "remote-doc");
  ignore (send Remote_card.Ins.rules 1 0 "frame0");
  let resp = send Remote_card.Ins.rules 0 2 "frame2" in
  Alcotest.(check bool) "gap rejected" true
    ((resp.Apdu.sw1, resp.Apdu.sw2) = Remote_card.Sw.bad_state)

let test_select_clears_chain_state () =
  (* An aborted chained upload must not survive a SELECT: the next upload
     would otherwise be concatenated with the stale frames. *)
  let w = Lazy.force world in
  let host =
    Sdds_soe.Remote_card.Host.create ~card:w.card
      ~resolve:(fun id ->
        if String.equal id "remote-doc" then Some w.source else None)
      ()
  in
  let send ins p1 p2 data =
    Sdds_soe.Remote_card.Host.process host
      { Apdu.cla = 0x80; ins; p1; p2; data }
  in
  let ok (resp : Apdu.response) =
    (resp.Apdu.sw1, resp.Apdu.sw2) = Remote_card.Sw.ok
  in
  ignore (send Remote_card.Ins.select 0 0 "remote-doc");
  (* Start a rules upload and abandon it mid-chain. *)
  Alcotest.(check bool) "first frame accepted" true
    (ok (send Remote_card.Ins.rules 1 0 "half an upload"));
  ignore (send Remote_card.Ins.select 0 0 "remote-doc");
  (* A stale continuation frame (seq 1 of the abandoned chain) must be
     rejected, not resumed and not treated as a fresh chain. *)
  let stale = send Remote_card.Ins.rules 1 1 "stale continuation" in
  Alcotest.(check bool) "stale continuation rejected" true
    ((stale.Apdu.sw1, stale.Apdu.sw2) = Remote_card.Sw.bad_state);
  (* A complete upload after the SELECT must evaluate cleanly — i.e. the
     abandoned frames were dropped, not prepended. *)
  ignore (send Remote_card.Ins.select 0 0 "remote-doc");
  ignore (send Remote_card.Ins.grant 0 0 w.wrapped);
  let frames =
    Apdu.segment ~cla:0x80 ~ins:Remote_card.Ins.rules w.encrypted_rules
  in
  List.iter
    (fun (f : Apdu.command) ->
      Alcotest.(check bool) "upload frame accepted" true
        (ok (send f.Apdu.ins f.Apdu.p1 f.Apdu.p2 f.Apdu.data)))
    frames;
  let resp = send Remote_card.Ins.evaluate 0 0 "" in
  Alcotest.(check bool) "evaluate succeeds after re-upload" true
    (ok resp || resp.Apdu.sw1 = fst Remote_card.Sw.more_data)

(* ------------------------------------------------------------------ *)
(* One ticket and one key rule: every front door answers alike          *)
(* ------------------------------------------------------------------ *)

(* A result's constructor: string payloads do not cross the wire
   ([Remote_card.of_sw] rebuilds them), so the paths are compared by
   constructor. *)
let constructor = function
  | Ok _ -> "view"
  | Error (Proxy.Card_error e) -> (
      "Card_error "
      ^
      match e with
      | Card.No_key _ -> "No_key"
      | Card.Stale_key _ -> "Stale_key"
      | Card.Bad_grant -> "Bad_grant"
      | Card.Bad_signature -> "Bad_signature"
      | Card.Integrity_failure _ -> "Integrity_failure"
      | Card.Memory_exceeded _ -> "Memory_exceeded"
      | Card.Bad_rules _ -> "Bad_rules"
      | Card.Replayed_rules _ -> "Replayed_rules")
  | Error (Proxy.Unknown_document _) -> "Unknown_document"
  | Error Proxy.No_grant -> "No_grant"
  | Error Proxy.No_rules -> "No_rules"
  | Error (Proxy.Link_failure _) -> "Link_failure"
  | Error Proxy.Overloaded -> "Overloaded"
  | Error (Proxy.Protocol _) -> "Protocol"

(* What the DSP holds for subject "u" of a 2-patient hospital "d", and
   whether u's card already holds d's key, against the answer
   [Proxy.run], [Pool.serve] over an in-process host and a one-card
   [Fleet] must all give. *)
let test_front_doors_agree () =
  let drbg = Drbg.create ~seed:"front-doors" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let other = Rsa.generate drbg ~bits:512 in
  let doc = Generator.hospital (Rng.create 43L) ~patients:2 in
  let published, key = Publish.publish drbg ~publisher ~doc_id:"d" doc in
  let rotated, new_key =
    Publish.rotate drbg ~publisher ~old_key:key published
  in
  let rules_under doc_key =
    Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"d"
      ~subject:"u"
      [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]
  in
  let grant_under doc_key (kp : Rsa.keypair) =
    Publish.grant drbg ~doc_key ~doc_id:"d" ~recipient:kp.Rsa.public
  in
  let good = grant_under key user in
  let rows =
    [ ("rules + grant", published, Some (rules_under key), Some good, false,
       "view");
      ("neither", published, None, None, false, "No_rules");
      ("rules only", published, Some (rules_under key), None, false,
       "No_grant");
      ("grant only", published, None, Some good, false, "No_rules");
      ( "grant for another key", published, Some (rules_under key),
        Some (grant_under key other), false, "Card_error Bad_grant" );
      ( "key held, grant it cannot unwrap", published, Some (rules_under key),
        Some (grant_under key other), true, "view" );
      ( "rotated: fresh rules, fresh grant it cannot unwrap", rotated,
        Some (rules_under new_key), Some (grant_under new_key other), true,
        "Card_error Bad_rules" ) ]
  in
  List.iter
    (fun (row, document, rules, grant, holds_key, target) ->
      let store = Store.create () in
      Store.put_document store document;
      Option.iter (Store.put_rules store ~doc_id:"d" ~subject:"u") rules;
      Option.iter (Store.put_grant store ~doc_id:"d" ~subject:"u") grant;
      let card () =
        let card = Card.create ~profile:Cost.fleet ~subject:"u" user in
        if holds_key then
          Alcotest.(check bool) (row ^ ": key installed") true
            (Result.is_ok
               (Card.install_wrapped_key card ~doc_id:"d" ~wrapped:good));
        card
      in
      let host () =
        Remote_card.Host.process
          (Remote_card.Host.create ~card:(card ())
             ~resolve:(fun id ->
               Option.map
                 (fun p -> Publish.to_source p ~delivery:`Pull)
                 (Store.get_document store id))
             ())
      in
      let req = Proxy.Request.make "d" in
      let xml r = Result.map (fun s -> s.Proxy.Pool.xml) r in
      let answers =
        [ ( "Proxy.run",
            Result.map
              (fun o -> o.Proxy.xml)
              (Proxy.run (Proxy.create ~store ~card:(card ())) req) );
          ( "Pool.serve",
            xml
              (List.hd
                 (Proxy.Pool.serve
                    (Proxy.Pool.create ~store ~transport:(host ())
                       ~subject:"u" ())
                    [ req ])) );
          ( "Fleet",
            xml
              (List.hd
                 (Fleet.serve
                    (Fleet.create ~store ~subject:"u" [| host () |])
                    [ req ]))
                .Fleet.result ) ]
      in
      List.iter
        (fun (path, answer) ->
          Alcotest.(check string) (row ^ ": " ^ path) target
            (constructor answer))
        answers;
      match answers with
      | (_, (Ok _ as view)) :: rest ->
          List.iter
            (fun (path, answer) ->
              Alcotest.(check bool) (row ^ ": " ^ path ^ " view") true
                (answer = view))
            rest
      | _ -> ())
    rows

let suite =
  [
    Alcotest.test_case "remote = direct" `Quick test_remote_equals_direct;
    Alcotest.test_case "remote with query" `Quick test_remote_with_query;
    Alcotest.test_case "remote unknown document" `Quick
      test_remote_unknown_document;
    Alcotest.test_case "remote out of sequence" `Quick
      test_remote_out_of_sequence;
    Alcotest.test_case "remote bad class/ins" `Quick
      test_remote_bad_class_and_ins;
    Alcotest.test_case "remote security mapping" `Quick
      test_remote_security_error_mapped;
    Alcotest.test_case "every front door answers alike" `Quick
      test_front_doors_agree;
    Alcotest.test_case "malformed query refused at evaluate" `Quick
      test_malformed_query_refused;
    Alcotest.test_case "remote chain gap" `Quick test_remote_chain_gap;
    Alcotest.test_case "select clears chain state" `Quick
      test_select_clears_chain_state;
  ]
