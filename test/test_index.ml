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
  let rec drain () = if Reader.advance r <> Reader.End then drain () in
  (match drain () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected truncation error")

let kind =
  Alcotest.testable
    (fun ppf k ->
      Format.pp_print_string ppf
        (match k with
        | Reader.Open -> "Open"
        | Reader.Text -> "Text"
        | Reader.Close -> "Close"
        | Reader.End -> "End"))
    ( = )

let expect_open r tag =
  Alcotest.check kind ("open " ^ tag) Reader.Open (Reader.advance r);
  Alcotest.(check string) "tag" tag (Reader.tag r)

let raises_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_reader_metadata () =
  (* threshold 0: every element carries metadata. *)
  let encoded =
    Encode.encode ~meta_threshold:0 ~mode:(Encode.Indexed { recursive = true })
      sample
  in
  let r = Reader.create encoded in
  let d = Reader.dict r in
  expect_open r "hospital";
  Alcotest.(check int) "root id" 0 (Reader.tag_id r);
  Alcotest.(check bool) "root has summary" true (Reader.has_summary r);
  Alcotest.(check int) "root sees all tags" 6
    (Bitset.cardinal (Reader.summary r));
  Alcotest.(check bool) "size positive" true (Reader.subtree_bytes r > 0);
  expect_open r "patient";
  let patient = Reader.summary r in
  let mem t = Bitset.mem (Reader.summary r) (Option.get (Dict.id_of_tag d t)) in
  Alcotest.(check bool) "has name" true (mem "name");
  Alcotest.(check bool) "has ssn" true (mem "ssn");
  Alcotest.(check bool) "no admin" false (mem "admin");
  (* name, "jo", /name, ssn, "123", /ssn, /patient *)
  for _ = 1 to 7 do
    ignore (Reader.advance r)
  done;
  Alcotest.(check string) "patient closed" "patient" (Reader.tag r);
  expect_open r "admin";
  (* The sibling's summary is the same depth's set, overwritten in place. *)
  Alcotest.(check bool) "summary reused" true (Reader.summary r == patient);
  Alcotest.(check bool) "admin has log" true (mem "log");
  Alcotest.(check bool) "admin has no name" false (mem "name")

let test_reader_skip () =
  let encoded =
    Encode.encode ~meta_threshold:0 ~mode:(Encode.Indexed { recursive = true })
      sample
  in
  let r = Reader.create encoded in
  expect_open r "hospital";
  expect_open r "patient";
  let at = Reader.byte_pos r in
  let declared = Reader.subtree_bytes r in
  let skipped = Reader.skip_subtree r in
  Alcotest.(check bool) "skipped bytes" true (skipped > 0);
  Alcotest.(check int) "landed" (at + skipped) (Reader.byte_pos r);
  Alcotest.(check bool) "declared size covers the skip" true
    (declared > skipped);
  Alcotest.(check string) "skip keeps the tag" "patient" (Reader.tag r);
  Alcotest.(check bool) "no summary after skip" false (Reader.has_summary r);
  raises_invalid "second skip" (fun () -> Reader.skip_subtree r);
  (* Next item is the admin sibling. *)
  expect_open r "admin";
  (* skip_subtree out of position raises *)
  expect_open r "log";
  Alcotest.check kind "text" Reader.Text (Reader.advance r);
  Alcotest.(check string) "text" "x" (Reader.text r);
  Alcotest.check kind "close" Reader.Close (Reader.advance r);
  raises_invalid "skip after close" (fun () -> Reader.skip_subtree r)

let test_skip_on_plain_rejected () =
  let encoded = Encode.encode ~mode:Encode.Plain sample in
  let r = Reader.create encoded in
  expect_open r "hospital";
  Alcotest.(check bool) "no summary" false (Reader.has_summary r);
  raises_invalid "plain skip" (fun () -> Reader.skip_subtree r)

(* What each accessor answers after each step, and what it refuses. *)
let test_reader_cursor_contract () =
  (* The default threshold: the leaves carry no metadata. *)
  let encoded =
    Encode.encode ~mode:(Encode.Indexed { recursive = true }) sample
  in
  let r = Reader.create encoded in
  raises_invalid "tag before any step" (fun () -> Reader.tag r);
  expect_open r "hospital";
  let hospital = Reader.event r in
  Alcotest.(check bool) "open event" true
    (Event.equal hospital (Event.Open "hospital"));
  raises_invalid "text on an open" (fun () -> Reader.text r);
  expect_open r "patient";
  expect_open r "name";
  Alcotest.(check bool) "leaf has no summary" false (Reader.has_summary r);
  raises_invalid "summary without metadata" (fun () -> Reader.summary r);
  raises_invalid "size without metadata" (fun () -> Reader.subtree_bytes r);
  raises_invalid "skip without metadata" (fun () -> Reader.skip_subtree r);
  Alcotest.check kind "text" Reader.Text (Reader.advance r);
  Alcotest.(check string) "text" "jo" (Reader.text r);
  Alcotest.(check bool) "text event" true
    (Event.equal (Reader.event r) (Event.Value "jo"));
  raises_invalid "tag on a text" (fun () -> Reader.tag r);
  raises_invalid "tag id on a text" (fun () -> Reader.tag_id r);
  Alcotest.check kind "close" Reader.Close (Reader.advance r);
  Alcotest.(check string) "closed tag" "name" (Reader.tag r);
  let rec drain last =
    match Reader.advance r with
    | Reader.End -> last
    | Reader.Close when Reader.tag r = "hospital" ->
        drain (Some (Reader.event r))
    | _ -> drain last
  in
  (match drain None with
  | Some close ->
      Alcotest.(check bool) "close event" true
        (Event.equal close (Event.Close "hospital"))
  | None -> Alcotest.fail "no root close");
  Alcotest.check kind "end again" Reader.End (Reader.advance r);
  raises_invalid "event at the end" (fun () -> Reader.event r);
  (* One shared event per tag across the whole document. *)
  let doc = Xml_parser.dom_of_string "<a><b>1</b><b>2</b></a>" in
  match Reader.to_events (Encode.encode ~mode:Encode.Plain doc) with
  | [ _; b1; _; c1; b2; _; c2; _ ] ->
      Alcotest.(check bool) "opens shared" true (b1 == b2);
      Alcotest.(check bool) "closes shared" true (c1 == c2)
  | evs -> Alcotest.failf "%d events" (List.length evs)

(* The encoder never indexes a child of an unindexed element (a child is
   smaller than its parent), but a hostile encoding can: the child's
   bitmap is then projected onto its nearest indexed ancestor's set. The
   dictionary is a, d, b, c; the root [a] holds {a, b, c}; [b] carries no
   metadata; its child [c] is packed against a's set, where its third bit
   is c (against the full dictionary it would be b). *)
let test_reader_inherited_basis () =
  let encoded =
    "SDX1\x01" ^ "\x04\x01a\x01d\x01b\x01c"
    (* a, indexed: size 8, bitmap {a, b, c} *)
    ^ "\x03\x08\x0d"
    (* b, unindexed *)
    ^ "\x06"
    (* c, indexed: size 2, packed bitmap: the third member of {a, b, c} *)
    ^ "\x09\x02\x04"
    ^ "\x00\x00\x00"
  in
  let r = Reader.create encoded in
  expect_open r "a";
  Alcotest.(check (list int)) "root summary" [ 0; 2; 3 ]
    (Bitset.elements (Reader.summary r));
  expect_open r "b";
  Alcotest.(check bool) "b unindexed" false (Reader.has_summary r);
  expect_open r "c";
  Alcotest.(check (list int)) "c projected on a's set" [ 3 ]
    (Bitset.elements (Reader.summary r));
  List.iter
    (fun k -> Alcotest.check kind "rest" k (Reader.advance r))
    [ Reader.Close; Reader.Close; Reader.Close; Reader.End ];
  (* Under [-/* +//c//b], c holds no b: it is skipped, from just past its
     bitmap (offset 21) to its declared end. *)
  let res =
    Indexed_engine.run
      [ Rule.deny ~subject:"u" "/*"; Rule.allow ~subject:"u" "//c//b" ]
      encoded
  in
  Alcotest.(check (list (pair int int))) "c skipped" [ (21, 1) ]
    res.Indexed_engine.skipped_ranges

(* A chain deeper than the reader's first stack slots: the slots grow,
   and the peak is 3 words per open element, plus the tag set's words in
   an [Indexed] encoding. *)
let test_reader_deep_stack () =
  let depth = 40 in
  let rec chain d =
    if d = depth then Dom.Text "leaf"
    else Dom.Element ((if d mod 2 = 0 then "a" else "b"), [ chain (d + 1) ])
  in
  let doc = chain 0 in
  List.iter
    (fun (name, mode) ->
      List.iter
        (fun meta_threshold ->
          let encoded = Encode.encode ?meta_threshold ~mode doc in
          Alcotest.check dom (name ^ " deep roundtrip") doc
            (Reader.to_dom encoded);
          let per_elem = if mode = Encode.Plain then 3 else 4 in
          Alcotest.(check int)
            (name ^ " peak words")
            (depth * per_elem)
            (Indexed_engine.run [ Rule.allow ~subject:"u" "//b" ] encoded)
              .Indexed_engine.reader_peak_words)
        [ Some 0; None ])
    modes

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
      (* Every summary path: injected or flat summaries, on every element
         (threshold 0: a skip check at each open) or on the big ones only
         (leaves inherit their indexed ancestor's), with and without a
         query. *)
      let mode = Encode.Indexed { recursive = Rng.bool rng } in
      let meta_threshold = if Rng.bool rng then Some 0 else None in
      let query =
        if Rng.bool rng then
          Some (Sdds_xpath.Random_path.generate rng cfg ~tags ~values)
        else None
      in
      let encoded = Encode.encode ?meta_threshold ~mode doc in
      let res = Indexed_engine.run ?query rules encoded in
      let expected = Oracle.authorized_view ?query ~rules doc in
      match (expected, view ~has_query:(query <> None) res) with
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
    Alcotest.test_case "reader cursor contract" `Quick
      test_reader_cursor_contract;
    Alcotest.test_case "reader deep stack" `Quick test_reader_deep_stack;
    Alcotest.test_case "reader inherited basis" `Quick
      test_reader_inherited_basis;
    Alcotest.test_case "size stats" `Quick test_size_stats;
    Alcotest.test_case "indexed engine skips + agrees" `Quick
      test_indexed_engine_skips_and_agrees;
    Alcotest.test_case "indexed engine no-index baseline" `Quick
      test_indexed_engine_no_index_baseline;
    Alcotest.test_case "indexed engine query" `Quick
      test_indexed_engine_query_skips;
    QCheck_alcotest.to_alcotest qcheck_indexed_matches_oracle;
  ]
