module Stream_view = Sdds_core.Stream_view
module Reassembler = Sdds_core.Reassembler
module Engine = Sdds_core.Engine
module Oracle = Sdds_core.Oracle
module Output = Sdds_core.Output
module Cond = Sdds_core.Cond
module Rule = Sdds_core.Rule
module Dom = Sdds_xml.Dom
module Event = Sdds_xml.Event
module Xml_parser = Sdds_xml.Parser
module Generator = Sdds_xml.Generator
module Random_path = Sdds_xpath.Random_path
module Rng = Sdds_util.Rng

let allow p = Rule.allow ~subject:"u" p
let deny p = Rule.deny ~subject:"u" p

(* Run engine output through Stream_view, collecting emitted events and
   the number emitted before the stream ended. *)
let stream ?query rules doc =
  let events = ref [] in
  let sv =
    Stream_view.create ~has_query:(query <> None)
      ~emit:(fun ev -> events := ev :: !events)
      ()
  in
  let engine = Engine.create ?query rules in
  let before_finish = ref 0 in
  List.iter
    (fun ev ->
      List.iter (Stream_view.feed sv) (Engine.feed engine ev);
      before_finish := List.length !events)
    (Dom.to_events doc);
  Engine.finish engine;
  Stream_view.finish sv;
  (List.rev !events, !before_finish, Stream_view.peak_buffered_nodes sv)

(* The declarative view, computed on the DOM without the engine or this
   module. *)
let expected_events ?query rules doc =
  match Oracle.authorized_view ?query ~rules doc with
  | None -> []
  | Some view -> Dom.to_events view

let check_same ?query rules doc label =
  let got, _, _ = stream ?query rules doc in
  let want = expected_events ?query rules doc in
  Alcotest.(check bool)
    (label ^ ": same events")
    true
    (List.equal Event.equal want got)

let test_static_stream_is_incremental () =
  let doc = Generator.agenda (Rng.create 3L) ~courses:50 in
  let rules = [ allow "//course"; deny "//instructor" ] in
  let events, before_finish, peak = stream rules doc in
  Alcotest.(check bool) "events emitted early" true
    (before_finish = List.length events && before_finish > 0);
  (* With no pending conditions, buffering stays around the path depth,
     far below the ~50-course document. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak buffer small (%d)" peak)
    true (peak <= 8);
  check_same rules doc "static"

let test_pending_blocks_then_flushes () =
  let doc = Xml_parser.dom_of_string "<a><b><d>x</d><c>1</c></b><e>t</e></a>" in
  let rules = [ allow "//b[c]/d"; allow "//e" ] in
  check_same rules doc "pending"

let test_pending_false_discards () =
  let doc = Xml_parser.dom_of_string "<a><b><d>x</d></b><e>t</e></a>" in
  let rules = [ allow "//b[c]/d"; allow "//e" ] in
  check_same rules doc "pending-false"

let test_empty_view_emits_nothing () =
  let doc = Xml_parser.dom_of_string "<a><b>x</b></a>" in
  let events, _, _ = stream [ deny "/a" ] doc in
  Alcotest.(check int) "nothing" 0 (List.length events)

let node ?(neg = Cond.ff) ?(pos = Cond.tt) tag =
  Output.Open_node { tag; neg; pos; query = Cond.ff }

(* Both entry points refuse [outs] with [Invalid_argument]. *)
let refused label outs =
  let sv = Stream_view.create ~has_query:false ~emit:(fun _ -> ()) () in
  (match
     List.iter (Stream_view.feed sv) outs;
     Stream_view.finish sv
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "%s: Stream_view accepted it" label);
  match Reassembler.run ~has_query:false outs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: Reassembler.run accepted it" label

let test_malformed_stream () =
  let sv =
    Stream_view.create ~has_query:false ~emit:(fun _ -> ()) ()
  in
  (match Stream_view.feed sv (Output.Close_node "a") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected close-without-open error");
  (match Stream_view.finish sv with
  | exception Invalid_argument _ -> Alcotest.fail "empty stream should finish"
  | () -> ());
  let a = Output.Close_node "a" and b = Output.Close_node "b" in
  (* A second root, whether the first was released or dropped. *)
  refused "second root" [ node "a"; a; node "b"; b ];
  refused "second root, denied"
    [ node ~pos:Cond.ff "a"; a; node ~pos:Cond.ff "b"; b ];
  refused "text outside elements" [ Output.Text_node "x" ];
  refused "mismatched close" [ node "a"; b ];
  refused "unclosed element" [ node "a" ];
  refused "unresolved condition" [ node ~pos:(Cond.var 1) "a"; a ];
  (* An unresolved variable refuses the stream even where the node's
     status does not need it. *)
  refused "unresolved, masked by a visible child"
    [ node ~pos:(Cond.var 1) "a"; node "b"; b; a ];
  refused "unresolved, masked by a true disjunct"
    [ node ~pos:(Cond.disj [ Cond.var 1; Cond.var 2 ]) "a";
      Output.Resolve (2, true); a ]

(* The engine resolves each variable once; a repeat is a malformed
   stream, whatever the value. *)
let test_repeated_resolve () =
  let c1 = 1 in
  refused "resolved twice"
    [ node ~pos:(Cond.var c1) "a"; Output.Resolve (c1, true);
      Output.Resolve (c1, false); Output.Close_node "a" ];
  refused "resolved twice, same value"
    [ node ~pos:(Cond.var c1) "a"; Output.Close_node "a";
      Output.Resolve (c1, true); Output.Resolve (c1, true) ]

(* E13's three subscriptions over its feed: the input event after which
   the first event is released, and the peak buffer, as recorded when
   [Stream_view] re-pumped from the root after every event. *)
let test_e13_pins () =
  let doc = Generator.feed_tagged (Rng.create 13L) ~events:300 in
  let events = Dom.to_events doc in
  Alcotest.(check int) "input events" 6002 (List.length events);
  List.iter
    (fun (path, first_at, peak) ->
      let consumed = ref 0 and first = ref None in
      let sv =
        Stream_view.create ~has_query:false
          ~emit:(fun _ -> if !first = None then first := Some !consumed)
          ()
      in
      let engine = Engine.create [ allow path ] in
      List.iter
        (fun ev ->
          incr consumed;
          List.iter (Stream_view.feed sv) (Engine.feed engine ev))
        events;
      Engine.finish engine;
      Stream_view.finish sv;
      Alcotest.(check (option int))
        (path ^ ": first release after input event")
        (Some first_at) !first;
      Alcotest.(check int) (path ^ ": peak buffered nodes") peak
        (Stream_view.peak_buffered_nodes sv))
    [ ("//sports", 82, 30); ("//feed", 1, 3); ({|//*[rating="G"]|}, 10, 2094) ]

let qcheck_stream_view_equals_oracle =
  QCheck2.Test.make ~name:"stream view = oracle view" ~count:400
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let tags = [| "a"; "b"; "c"; "d"; "e" |] in
      let values = [| "1"; "2"; "x" |] in
      let cfg =
        { Random_path.default with max_steps = 3; predicate_probability = 0.5 }
      in
      let doc =
        Generator.random_tree rng ~tags ~max_depth:6 ~max_children:4
          ~text_probability:0.3
      in
      let rules =
        List.init
          (1 + Rng.int rng 4)
          (fun _ ->
            {
              Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
              subject = "u";
              path = Random_path.generate rng cfg ~tags ~values;
            })
      in
      let query =
        if Rng.bool rng then Some (Random_path.generate rng cfg ~tags ~values)
        else None
      in
      let got, _, _ = stream ?query rules doc in
      List.equal Event.equal (expected_events ?query rules doc) got)

let suite =
  [
    Alcotest.test_case "static stream incremental" `Quick
      test_static_stream_is_incremental;
    Alcotest.test_case "pending blocks then flushes" `Quick
      test_pending_blocks_then_flushes;
    Alcotest.test_case "pending false discards" `Quick
      test_pending_false_discards;
    Alcotest.test_case "empty view" `Quick test_empty_view_emits_nothing;
    Alcotest.test_case "malformed stream" `Quick test_malformed_stream;
    Alcotest.test_case "repeated resolve" `Quick test_repeated_resolve;
    Alcotest.test_case "E13 release pins" `Quick test_e13_pins;
    QCheck_alcotest.to_alcotest qcheck_stream_view_equals_oracle;
  ]
