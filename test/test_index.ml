module Dict = Sdds_index.Dict
module Encode = Sdds_index.Encode
module Reader = Sdds_index.Reader
module Indexed_engine = Sdds_index.Indexed_engine
module Dom = Sdds_xml.Dom
module Event = Sdds_xml.Event
module Xml_parser = Sdds_xml.Parser
module Generator = Sdds_xml.Generator
module Rule = Sdds_core.Rule
module Oracle = Sdds_core.Oracle
module Reassembler = Sdds_core.Reassembler
module Rng = Sdds_util.Rng
module Bitset = Sdds_util.Bitset

let dom = Alcotest.testable Dom.pp Dom.equal
let dom_opt = Alcotest.(option dom)

let sample =
  Xml_parser.dom_of_string
    "<hospital><patient><name>jo</name><ssn>123</ssn></patient><admin><log>x</log></admin></hospital>"

(* ------------------------------------------------------------------ *)
(* Dict                                                                *)
(* ------------------------------------------------------------------ *)

let test_dict_build () =
  let d = Dict.build sample in
  Alcotest.(check int) "size" 6 (Dict.size d);
  Alcotest.(check (option int)) "first tag" (Some 0) (Dict.id_of_tag d "hospital");
  Alcotest.(check string) "tag_of_id" "patient" (Dict.tag_of_id d 1);
  Alcotest.(check bool) "mem" true (Dict.mem d "ssn");
  Alcotest.(check (option int)) "absent" None (Dict.id_of_tag d "nope")

let test_dict_roundtrip () =
  let d = Dict.build sample in
  let buf = Buffer.create 64 in
  Dict.encode buf d;
  Alcotest.(check int) "encoded_size" (Buffer.length buf) (Dict.encoded_size d);
  let d', next = Dict.decode (Buffer.contents buf) 0 in
  Alcotest.(check int) "consumed" (Buffer.length buf) next;
  Alcotest.(check (list string)) "tags" (Dict.tags d) (Dict.tags d')

let test_dict_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Dict.of_tags: duplicate")
    (fun () -> ignore (Dict.of_tags [ "a"; "b"; "a" ]))

(* ------------------------------------------------------------------ *)
(* Encode / Reader roundtrips                                          *)
(* ------------------------------------------------------------------ *)

let modes =
  [ ("plain", Encode.Plain);
    ("indexed", Encode.Indexed { recursive = true });
    ("indexed-flat", Encode.Indexed { recursive = false }) ]

let test_encode_roundtrip () =
  List.iter
    (fun (name, mode) ->
      let encoded = Encode.encode ~mode sample in
      Alcotest.check dom (name ^ " roundtrip") sample (Reader.to_dom encoded))
    modes

let test_encode_events_roundtrip () =
  let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) sample in
  Alcotest.(check int) "same events"
    (List.length (Dom.to_events sample))
    (List.length (Reader.to_events encoded));
  Alcotest.(check bool) "event equality" true
    (List.equal Event.equal (Dom.to_events sample) (Reader.to_events encoded))

let qcheck_encode_roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip (all modes)" ~count:200
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc =
        Generator.random_tree rng
          ~tags:[| "a"; "b"; "c"; "d"; "e"; "f"; "g" |]
          ~max_depth:6 ~max_children:4 ~text_probability:0.3
      in
      List.for_all
        (fun (_, mode) ->
          Dom.equal doc (Reader.to_dom (Encode.encode ~mode doc))
          && Dom.equal doc
               (Reader.to_dom (Encode.encode ~meta_threshold:0 ~mode doc)))
        modes)

let test_reader_bad_input () =
  let expect s =
    match Reader.create s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected failure"
  in
  expect "";
  expect "XXXX\x00";
  expect "SDX1\x77";
  (* Truncated body must fail during reading, not loop. *)
  let encoded = Encode.encode ~mode:Encode.Plain sample in
  let truncated = String.sub encoded 0 (String.length encoded - 3) in
  let r = Reader.create truncated in
  let rec drain () =
    match Reader.next r with Some _ -> drain () | None -> () in
  (match drain () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected truncation error")

let test_reader_metadata () =
  (* threshold 0: every element carries metadata. *)
  let encoded =
    Encode.encode ~meta_threshold:0 ~mode:(Encode.Indexed { recursive = true })
      sample
  in
  let r = Reader.create encoded in
  (match Reader.next r with
  | Some (Reader.Elem { tag; tags = Some tags; subtree_bytes = Some n }) ->
      Alcotest.(check string) "root tag" "hospital" tag;
      Alcotest.(check int) "root sees all tags" 6 (Bitset.cardinal tags);
      Alcotest.(check bool) "size positive" true (n > 0)
  | _ -> Alcotest.fail "expected root element");
  (match Reader.next r with
  | Some (Reader.Elem { tag; tags = Some tags; _ }) ->
      Alcotest.(check string) "patient" "patient" tag;
      let d = Reader.dict r in
      let mem t = Bitset.mem tags (Option.get (Dict.id_of_tag d t)) in
      Alcotest.(check bool) "has name" true (mem "name");
      Alcotest.(check bool) "has ssn" true (mem "ssn");
      Alcotest.(check bool) "no admin" false (mem "admin")
  | _ -> Alcotest.fail "expected patient element")

let test_reader_skip () =
  let encoded =
    Encode.encode ~meta_threshold:0 ~mode:(Encode.Indexed { recursive = true })
      sample
  in
  let r = Reader.create encoded in
  ignore (Reader.next r) (* hospital *);
  ignore (Reader.next r) (* patient *);
  let skipped = Reader.skip_subtree r in
  Alcotest.(check bool) "skipped bytes" true (skipped > 0);
  (* Next item is the admin sibling. *)
  (match Reader.next r with
  | Some (Reader.Elem { tag = "admin"; _ }) -> ()
  | _ -> Alcotest.fail "expected admin after skip");
  (* skip_subtree out of position raises *)
  ignore (Reader.next r);
  ignore (Reader.next r);
  (match Reader.next r with
  | Some (Reader.Close _) -> ()
  | _ -> Alcotest.fail "expected close");
  (match Reader.skip_subtree r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected skip error")

let test_skip_on_plain_rejected () =
  let encoded = Encode.encode ~mode:Encode.Plain sample in
  let r = Reader.create encoded in
  ignore (Reader.next r);
  match Reader.skip_subtree r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected error on plain skip"

(* ------------------------------------------------------------------ *)
(* Size stats                                                          *)
(* ------------------------------------------------------------------ *)

let test_size_stats () =
  let doc = Generator.hospital (Rng.create 3L) ~patients:20 in
  let plain = Encode.encode ~mode:Encode.Plain doc in
  let rec_ = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
  let flat = Encode.encode ~mode:(Encode.Indexed { recursive = false }) doc in
  let sp = Reader.size_stats plain in
  let sr = Reader.size_stats rec_ in
  let sf = Reader.size_stats flat in
  Alcotest.(check int) "plain has no metadata" 0 sp.Reader.metadata_bytes;
  Alcotest.(check bool) "indexed has metadata" true (sr.Reader.metadata_bytes > 0);
  Alcotest.(check bool) "recursive smaller than flat" true
    (sr.Reader.metadata_bytes < sf.Reader.metadata_bytes);
  Alcotest.(check int) "stats add up" sr.Reader.total_bytes
    (sr.Reader.header_bytes + sr.Reader.metadata_bytes + sr.Reader.payload_bytes);
  (* The index must stay a modest fraction of the document. *)
  Alcotest.(check bool) "overhead below 15%" true
    (float_of_int sr.Reader.metadata_bytes
    < 0.15 *. float_of_int sr.Reader.total_bytes)

(* ------------------------------------------------------------------ *)
(* Indexed evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let allow p = Rule.allow ~subject:"u" p
let deny p = Rule.deny ~subject:"u" p

let view ?(has_query = false) res =
  Reassembler.run ~has_query res.Indexed_engine.outputs

let test_indexed_engine_skips_and_agrees () =
  let doc = Generator.hospital (Rng.create 9L) ~patients:10 in
  let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
  (* Deny everything except admissions: large folders are skippable. *)
  let rules = [ deny "/hospital"; allow "//admission" ] in
  let res = Indexed_engine.run rules encoded in
  Alcotest.check dom_opt "matches oracle"
    (Oracle.authorized_view ~rules doc)
    (view res);
  Alcotest.(check bool) "skipped something" true
    (res.Indexed_engine.skipped_subtrees > 0);
  Alcotest.(check bool) "saved bytes" true
    (res.Indexed_engine.skipped_bytes > String.length encoded / 4)

let test_indexed_engine_no_index_baseline () =
  let doc = Generator.hospital (Rng.create 9L) ~patients:5 in
  let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
  let rules = [ deny "/hospital"; allow "//admission" ] in
  let res = Indexed_engine.run ~use_index:false rules encoded in
  Alcotest.(check int) "no skips" 0 res.Indexed_engine.skipped_subtrees;
  Alcotest.check dom_opt "still correct"
    (Oracle.authorized_view ~rules doc)
    (view res)

let test_indexed_engine_query_skips () =
  let doc = Generator.agenda (Rng.create 11L) ~courses:30 in
  let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
  let rules = [ allow "/courses" ] in
  let query = Sdds_xpath.Parser.parse "//place/building" in
  let res = Indexed_engine.run ~query rules encoded in
  Alcotest.check dom_opt "query + index matches oracle"
    (Oracle.authorized_view ~rules ~query doc)
    (view ~has_query:true res)

let qcheck_indexed_matches_oracle =
  QCheck2.Test.make ~name:"indexed engine = oracle (random)" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc =
        Generator.random_tree rng
          ~tags:[| "a"; "b"; "c"; "d"; "e" |]
          ~max_depth:6 ~max_children:4 ~text_probability:0.25
      in
      let tags = [| "a"; "b"; "c"; "d"; "e" |] in
      let values = [| "acute"; "10"; "benign" |] in
      let cfg =
        { Sdds_xpath.Random_path.default with max_steps = 3; predicate_probability = 0.4 }
      in
      let rules =
        List.init
          (1 + Rng.int rng 4)
          (fun _ ->
            {
              Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
              subject = "u";
              path = Sdds_xpath.Random_path.generate rng cfg ~tags ~values;
            })
      in
      let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
      let res = Indexed_engine.run rules encoded in
      let expected = Oracle.authorized_view ~rules doc in
      match (expected, view res) with
      | None, None -> true
      | Some a, Some b -> Dom.equal a b
      | None, Some _ | Some _, None -> false)

let suite =
  [
    Alcotest.test_case "dict build" `Quick test_dict_build;
    Alcotest.test_case "dict roundtrip" `Quick test_dict_roundtrip;
    Alcotest.test_case "dict duplicate" `Quick test_dict_duplicate;
    Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
    Alcotest.test_case "encode events roundtrip" `Quick
      test_encode_events_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_encode_roundtrip;
    Alcotest.test_case "reader bad input" `Quick test_reader_bad_input;
    Alcotest.test_case "reader metadata" `Quick test_reader_metadata;
    Alcotest.test_case "reader skip" `Quick test_reader_skip;
    Alcotest.test_case "skip on plain rejected" `Quick
      test_skip_on_plain_rejected;
    Alcotest.test_case "size stats" `Quick test_size_stats;
    Alcotest.test_case "indexed engine skips + agrees" `Quick
      test_indexed_engine_skips_and_agrees;
    Alcotest.test_case "indexed engine no-index baseline" `Quick
      test_indexed_engine_no_index_baseline;
    Alcotest.test_case "indexed engine query" `Quick
      test_indexed_engine_query_skips;
    QCheck_alcotest.to_alcotest qcheck_indexed_matches_oracle;
  ]
