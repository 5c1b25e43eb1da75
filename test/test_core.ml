module Cond = Sdds_core.Cond
module Rule = Sdds_core.Rule
module Compile = Sdds_core.Compile
module Engine = Sdds_core.Engine
module Oracle = Sdds_core.Oracle
module Output = Sdds_core.Output
module Reassembler = Sdds_core.Reassembler
module Sdds = Sdds_core.Sdds
module Dom = Sdds_xml.Dom
module Event = Sdds_xml.Event
module Xml_parser = Sdds_xml.Parser
module Generator = Sdds_xml.Generator
module Xp = Sdds_xpath.Parser
module Random_path = Sdds_xpath.Random_path
module Rng = Sdds_util.Rng

let dom = Alcotest.testable Dom.pp Dom.equal
let dom_opt = Alcotest.(option dom)

(* ------------------------------------------------------------------ *)
(* Cond                                                                *)
(* ------------------------------------------------------------------ *)

let test_cond_simplify () =
  Alcotest.(check bool) "and true" true (Cond.conj [ Cond.tt; Cond.tt ] = Cond.tt);
  Alcotest.(check bool) "and false" true
    (Cond.conj [ Cond.var 1; Cond.ff ] = Cond.ff);
  Alcotest.(check bool) "or true" true
    (Cond.disj [ Cond.var 1; Cond.tt ] = Cond.tt);
  Alcotest.(check bool) "or empty" true (Cond.disj [] = Cond.ff);
  Alcotest.(check bool) "and single" true
    (Cond.conj [ Cond.var 3; Cond.tt ] = Cond.var 3);
  Alcotest.(check bool) "dedup" true
    (Cond.conj [ Cond.var 1; Cond.var 1 ] = Cond.var 1);
  (* Nested flattening *)
  let e = Cond.conj [ Cond.var 1; Cond.conj [ Cond.var 2; Cond.var 3 ] ] in
  Alcotest.(check (list int)) "flattened vars" [ 1; 2; 3 ] (Cond.vars e)

let test_cond_eval () =
  let e = Cond.disj [ Cond.conj [ Cond.var 1; Cond.var 2 ]; Cond.var 3 ] in
  Alcotest.(check (list int)) "vars" [ 1; 2; 3 ] (Cond.vars e);
  Alcotest.(check bool) "eval" true (Cond.eval (fun v -> v <> 3) e);
  Alcotest.(check bool) "eval f" false (Cond.eval (fun v -> v = 1) e);
  Alcotest.(check bool) "to_bool" true (Cond.to_bool e = None)

(* ------------------------------------------------------------------ *)
(* Rule                                                                *)
(* ------------------------------------------------------------------ *)

let test_rule_parse () =
  let r = Rule.parse "+, alice, //patient/name" in
  Alcotest.(check bool) "sign" true (r.Rule.sign = Rule.Allow);
  Alcotest.(check string) "subject" "alice" r.Rule.subject;
  Alcotest.(check bool) "roundtrip" true
    (Rule.equal r (Rule.parse (Rule.to_string r)));
  let d = Rule.parse "-, bob, //ssn" in
  Alcotest.(check bool) "deny" true (d.Rule.sign = Rule.Deny)

let test_rule_parse_errors () =
  let expect s =
    match Rule.parse s with
    | exception Invalid_argument _ -> ()
    | exception Sdds_xpath.Parser.Error _ -> ()
    | _ -> Alcotest.fail ("expected failure on " ^ s)
  in
  expect "";
  expect "+";
  expect "+, alice";
  expect "*, alice, //a";
  expect "+, , //a";
  expect "+, alice, not-a-path"

let test_rule_for_subject () =
  let rules =
    [ Rule.allow ~subject:"alice" "//a";
      Rule.deny ~subject:"bob" "//b";
      Rule.allow ~subject:"alice" "//c" ]
  in
  Alcotest.(check int) "alice rules" 2
    (List.length (Rule.for_subject "alice" rules));
  Alcotest.(check int) "carol rules" 0
    (List.length (Rule.for_subject "carol" rules))

(* ------------------------------------------------------------------ *)
(* Oracle semantics                                                    *)
(* ------------------------------------------------------------------ *)

let doc1 = Xml_parser.dom_of_string "<a><b><c>1</c><d>x</d></b><b><d>y</d></b></a>"
(* ids: a=0 b=1 c=2 d=3 b=4 d=5 *)

let allow p = Rule.allow ~subject:"u" p
let deny p = Rule.deny ~subject:"u" p

let test_oracle_default_deny () =
  Alcotest.(check (list int)) "no rules" [] (Oracle.allowed_ids ~rules:[] doc1);
  Alcotest.check dom_opt "empty view" None
    (Oracle.authorized_view ~rules:[] doc1)

let test_oracle_propagation () =
  (* +//b propagates to all of b's subtrees. *)
  Alcotest.(check (list int)) "allow b" [ 1; 2; 3; 4; 5 ]
    (Oracle.allowed_ids ~rules:[ allow "//b" ] doc1)

let test_oracle_figure2_rule () =
  (* The paper's Figure 2 rule: +//b[c]/d applies to d under the first b
     only. *)
  Alcotest.(check (list int)) "b[c]/d" [ 3 ]
    (Oracle.allowed_ids ~rules:[ allow "//b[c]/d" ] doc1);
  Alcotest.check dom_opt "structural ancestors kept, text pruned"
    (Some
       (Dom.element "a"
          [ Dom.element "b" [ Dom.element "d" [ Dom.text "x" ] ] ]))
    (Oracle.authorized_view ~rules:[ allow "//b[c]/d" ] doc1)

let test_oracle_denial_precedence () =
  (* Both signs apply directly at node 3: denial wins. *)
  Alcotest.(check (list int)) "deny beats allow" [ 5 ]
    (Oracle.allowed_ids
       ~rules:[ allow "//d"; deny "//b[c]/d" ]
       doc1)

let test_oracle_most_specific () =
  (* -//a then +/a/b: the deeper rule overrides the propagated denial. *)
  Alcotest.(check (list int)) "specific allow under deny"
    [ 1; 2; 3 ]
    (Oracle.allowed_ids ~rules:[ deny "//a"; allow "/a/b[c]" ] doc1);
  (* Deny deeper under an allow. *)
  Alcotest.(check (list int)) "specific deny under allow"
    [ 0; 1; 3; 4; 5 ]
    (Oracle.allowed_ids ~rules:[ allow "//a"; deny "//c" ] doc1)

(* Open world is a policy, not a mode: the rule +/* under the closed
   default allows every node no other rule reaches. *)
let test_oracle_default_allow () =
  Alcotest.(check (list int)) "open world"
    [ 0; 1; 2; 3; 4; 5 ]
    (Oracle.allowed_ids ~rules:[ allow "/*" ] doc1)

let test_oracle_query () =
  (* Allow everything, query selects first-b subtree. *)
  let view =
    Oracle.authorized_view ~rules:[ allow "//a" ]
      ~query:(Xp.parse "//b[c]") doc1
  in
  Alcotest.check dom_opt "query scopes view"
    (Some
       (Dom.element "a"
          [ Dom.element "b"
              [ Dom.element "c" [ Dom.text "1" ];
                Dom.element "d" [ Dom.text "x" ] ] ]))
    view;
  (* Query matching nothing -> nothing delivered. *)
  Alcotest.check dom_opt "empty query" None
    (Oracle.authorized_view ~rules:[ allow "//a" ]
       ~query:(Xp.parse "//zzz") doc1)

(* ------------------------------------------------------------------ *)
(* Engine vs hand-computed outputs                                     *)
(* ------------------------------------------------------------------ *)

let view ?query rules doc = Sdds.authorized_view ?query ~rules doc

let test_engine_figure2 () =
  Alcotest.check dom_opt "engine matches oracle on Figure 2"
    (Oracle.authorized_view ~rules:[ allow "//b[c]/d" ] doc1)
    (view [ allow "//b[c]/d" ] doc1)

let test_engine_pending_predicate_after_target () =
  (* d arrives BEFORE c: the rule is pending when d is seen, and must be
     delivered once c satisfies the predicate later (the paper's pending
     rule mechanism). *)
  let doc = Xml_parser.dom_of_string "<a><b><d>x</d><c>1</c></b></a>" in
  Alcotest.check dom_opt "pending rule delivers"
    (Some
       (Dom.element "a"
          [ Dom.element "b" [ Dom.element "d" [ Dom.text "x" ] ] ]))
    (view [ allow "//b[c]/d" ] doc);
  (* And without the c, nothing. *)
  let doc2 = Xml_parser.dom_of_string "<a><b><d>x</d></b></a>" in
  Alcotest.check dom_opt "unsatisfied predicate" None
    (view [ allow "//b[c]/d" ] doc2)

let test_engine_pending_value_predicate () =
  let doc =
    Xml_parser.dom_of_string
      "<r><patient><name>n1</name><age>71</age></patient><patient><name>n2</name><age>30</age></patient></r>"
  in
  let rules = [ allow "//patient[age>60]" ] in
  Alcotest.check dom_opt "value predicate"
    (Some
       (Dom.element "r"
          [ Dom.element "patient"
              [ Dom.element "name" [ Dom.text "n1" ];
                Dom.element "age" [ Dom.text "71" ] ] ]))
    (view rules doc)

let test_engine_nested_predicate () =
  let doc =
    Xml_parser.dom_of_string "<a><b><x><y>k</y></x><t>v</t></b><b><x/><t>w</t></b></a>"
  in
  (* b[x[y]]/t: only the first b's t. *)
  Alcotest.check dom_opt "nested predicate"
    (Oracle.authorized_view ~rules:[ allow "//b[x[y]]/t" ] doc)
    (view [ allow "//b[x[y]]/t" ] doc)

let test_engine_self_value_predicate () =
  let doc = Xml_parser.dom_of_string "<f><r>G</r><r>R</r></f>" in
  Alcotest.check dom_opt "self comparison"
    (Some (Dom.element "f" [ Dom.element "r" [ Dom.text "G" ] ]))
    (view [ allow {|//r[.="G"]|} ] doc)

let test_engine_attribute_rules () =
  let doc = Xml_parser.dom_of_string {|<r><i id="1"><v>a</v></i><i id="2"><v>b</v></i></r>|} in
  Alcotest.check dom_opt "attribute predicate"
    (Oracle.authorized_view ~rules:[ allow {|//i[@id="2"]|} ] doc)
    (view [ allow {|//i[@id="2"]|} ] doc)

let test_engine_query () =
  let doc = Generator.agenda (Rng.create 4L) ~courses:6 in
  let rules = [ allow "//course"; deny "//instructor" ] in
  let query = Xp.parse "//course[credit>2]/title" in
  Alcotest.check dom_opt "query composition"
    (Oracle.authorized_view ~rules ~query doc)
    (view ~query rules doc)

let test_engine_errors () =
  let t = Engine.create [ allow "//a" ] in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Engine.feed t (Event.Value "top-level"));
  ignore (Engine.feed t (Event.Open "a"));
  expect_invalid (fun () -> Engine.feed t (Event.Close "b"));
  ignore (Engine.feed t (Event.Close "a"));
  expect_invalid (fun () -> Engine.feed t (Event.Open "again"));
  Engine.finish t;
  let t2 = Engine.create [] in
  ignore (Engine.feed t2 (Event.Open "a"));
  expect_invalid (fun () -> Engine.finish t2)

let test_engine_suppression_stats () =
  let doc = Generator.hospital (Rng.create 5L) ~patients:5 in
  let events = Dom.to_events doc in
  (* Deny the root with no positive rule anywhere: once the denial is
     determined and no positive automaton is alive, the whole document is
     consumed under suspension. (A positive rule that merely matches
     nothing would NOT allow suspension — without the skip index the
     engine cannot know its tag never occurs.) *)
  let t = Engine.create [ deny "/hospital" ] in
  List.iter (fun ev -> ignore (Engine.feed t ev)) events;
  Engine.finish t;
  let st = Engine.stats t in
  Alcotest.(check int) "everything suppressed" (List.length events)
    st.Engine.suppressed;
  (* An allow that could still match below keeps every frame visible,
     though it never fires. *)
  let t2 = Engine.create [ deny "/hospital"; allow "//nothing" ] in
  List.iter (fun ev -> ignore (Engine.feed t2 ev)) events;
  Engine.finish t2;
  Alcotest.(check int) "no suppression" 0 (Engine.stats t2).Engine.suppressed

let test_engine_memory_bounded () =
  (* Peak working state must not grow with document length for a flat
     document (it grows with depth, not size). *)
  let peak n =
    let doc = Generator.agenda (Rng.create 7L) ~courses:n in
    let t = Engine.create [ allow "//course[credit>2]"; deny "//instructor" ] in
    List.iter (fun ev -> ignore (Engine.feed t ev)) (Dom.to_events doc);
    Engine.finish t;
    (Engine.stats t).Engine.peak_state_words
  in
  let p1 = peak 20 and p2 = peak 200 in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d vs %d size-independent" p1 p2)
    true
    (p2 <= p1 * 2)

let test_engine_depth () =
  let t = Engine.create [] in
  Alcotest.(check int) "depth 0" 0 (Engine.depth t);
  ignore (Engine.feed t (Event.Open "a"));
  ignore (Engine.feed t (Event.Open "b"));
  Alcotest.(check int) "depth 2" 2 (Engine.depth t)

let test_subtree_skippable () =
  (* Rules: +//b[c]/d. At depth 1 inside <a>, a subtree containing no d
     and no c is skippable; one containing d (and c) is not. *)
  let t = Engine.create [ allow "//b[c]/d" ] in
  ignore (Engine.feed t (Event.Open "a"));
  let possible tags tag = List.mem tag tags in
  Alcotest.(check bool) "no useful tags -> skip" true
    (Engine.subtree_skippable t ~tag:"x" ~tag_possible:(possible [ "x"; "y" ])
       ~nonempty:true);
  Alcotest.(check bool) "has b,c,d -> keep" false
    (Engine.subtree_skippable t ~tag:"b"
       ~tag_possible:(possible [ "b"; "c"; "d" ])
       ~nonempty:true);
  (* d alone cannot fire //b[c]/d's spine: b is missing. *)
  Alcotest.(check bool) "d alone -> skip" true
    (Engine.subtree_skippable t ~tag:"d" ~tag_possible:(possible [ "d" ])
       ~nonempty:true)

let test_subtree_skippable_pending_pred () =
  (* Inside <a><b> with rule +//b[.//c]/d, the live predicate instance for
     [.//c] anchored at b roams b's whole subtree: an inner subtree that
     could contain c must NOT be skipped even if it cannot contain d. *)
  let t = Engine.create [ allow "//b[.//c]/d" ] in
  ignore (Engine.feed t (Event.Open "a"));
  ignore (Engine.feed t (Event.Open "b"));
  let possible tags tag = List.mem tag tags in
  Alcotest.(check bool) "c-bearing subtree kept" false
    (Engine.subtree_skippable t ~tag:"x" ~tag_possible:(possible [ "x"; "c" ])
       ~nonempty:true);
  Alcotest.(check bool) "useless subtree skipped" true
    (Engine.subtree_skippable t ~tag:"z" ~tag_possible:(possible [ "z" ])
       ~nonempty:true);
  (* With a child-axis predicate [c], a grandchild subtree cannot satisfy
     it even if the tag c occurs there — the one-step lookahead proves the
     skip safe. But a subtree whose root IS a c satisfies the predicate at
     its root and must be read. *)
  let t2 = Engine.create [ allow "//b[c]/d" ] in
  ignore (Engine.feed t2 (Event.Open "a"));
  ignore (Engine.feed t2 (Event.Open "b"));
  Alcotest.(check bool) "child-axis pred: deep c is irrelevant" true
    (Engine.subtree_skippable t2 ~tag:"x" ~tag_possible:(possible [ "x"; "c" ])
       ~nonempty:true);
  Alcotest.(check bool) "child-axis pred: root c fires" false
    (Engine.subtree_skippable t2 ~tag:"c" ~tag_possible:(possible [ "c" ])
       ~nonempty:true)

let test_output_is_static_without_predicates () =
  let doc = doc1 in
  let outs = Engine.run [ allow "//b"; deny "//d" ] (Dom.to_events doc) in
  Alcotest.(check bool) "no conditions" true (Output.is_static outs)

let run_mode ~dispatch ?query rules events =
  let t = Engine.create ?query ~dispatch rules in
  let outs = List.concat_map (Engine.feed t) events in
  Engine.finish t;
  (outs, Engine.stats t)

let check_reconciles what (st : Engine.stats) =
  Alcotest.(check int)
    (what ^ ": events = delivered + suppressed + filtered")
    st.Engine.events
    (st.Engine.delivered + st.Engine.suppressed + st.Engine.filtered)

let test_engine_stats_reconcile () =
  let events =
    [
      Event.Open "a";
      Event.Open "b";
      Event.Value "x";
      Event.Close "b";
      Event.Close "a";
    ]
  in
  (* Text under a determined denial on an UNSUPPRESSED frame (an allow
     can still reach inside b, so b stays visible) is dropped without
     being delivered — it must count as filtered, not vanish from the
     books. *)
  let _, st =
    run_mode ~dispatch:true [ deny "//b"; allow "//b/c" ] events
  in
  Alcotest.(check int) "filtered text counted" 1 st.Engine.filtered;
  Alcotest.(check int) "rest delivered" 4 st.Engine.delivered;
  check_reconciles "deny, unsuppressed frame" st;
  (* With an allow that cannot reach inside b, the b subtree is consumed
     under suspension instead. *)
  let _, st = run_mode ~dispatch:true [ allow "/a"; deny "/a/b" ] events in
  Alcotest.(check int) "subtree suppressed" 3 st.Engine.suppressed;
  Alcotest.(check int) "nothing filtered" 0 st.Engine.filtered;
  check_reconciles "deny, suppression" st;
  (* Out-of-query-scope text on an unsuppressed frame hits the same leak:
     b is allowed but outside the query, which can still reach inside
     it. *)
  let query = Xp.parse "/a/b/zzz" in
  let _, st = run_mode ~dispatch:true ~query [ allow "//a" ] events in
  Alcotest.(check int) "out-of-scope text filtered" 1 st.Engine.filtered;
  check_reconciles "query, unsuppressed frame" st

(* The acceptance criterion for the dispatch layer: on a tag-rich document
   with rules naming only a few tags, the tokens actually visited must drop
   by at least 2x versus the naive scan-everything engine. *)
let test_dispatch_reduces_token_visits () =
  let doc = Generator.hospital (Rng.create 11L) ~patients:30 in
  let events = Dom.to_events doc in
  let rules =
    [
      allow "//patient";
      deny "//ssn";
      allow "//folder/prescription/drug";
      deny "//comment";
      deny {|//patient[age>"80"]|};
    ]
  in
  let outs_d, st_d = run_mode ~dispatch:true rules events in
  let outs_n, st_n = run_mode ~dispatch:false rules events in
  Alcotest.(check string) "identical output"
    (Sdds_core.Output_codec.encode_list outs_n)
    (Sdds_core.Output_codec.encode_list outs_d);
  Alcotest.(check bool)
    (Printf.sprintf "visits %d -> %d is >= 2x" st_n.Engine.token_visits
       st_d.Engine.token_visits)
    true
    (st_n.Engine.token_visits >= 2 * st_d.Engine.token_visits)

(* The engine's bytes before its hot path was flattened: one MD5 per case
   over the encoded outputs, every [Engine.stats] field, the skipped
   ranges of the skip-index cases and, for the direct cases, [state_words]
   and [depth] after every event. The naive-scan property below compares
   two modes of one engine; these pins compare the engine with the one it
   replaced. *)
let stream_digest ?(trace = "") ?(ranges = []) outs (st : Engine.stats) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Sdds_core.Output_codec.encode_list outs);
  Printf.bprintf b "|%d %d %d %d %d %d %d %d %d|" st.Engine.events
    st.Engine.emitted st.Engine.delivered st.Engine.suppressed
    st.Engine.filtered st.Engine.instances st.Engine.peak_tokens
    st.Engine.peak_state_words st.Engine.token_visits;
  List.iter (fun (start, len) -> Printf.bprintf b "%d+%d " start len) ranges;
  Buffer.add_string b trace;
  Digest.to_hex (Digest.string (Buffer.contents b))

let traced_digest ~dispatch ?query rules events =
  let t = Engine.create ?query ~dispatch rules in
  let trace = Buffer.create 4096 in
  let outs =
    List.concat_map
      (fun ev ->
        let outs = Engine.feed t ev in
        Printf.bprintf trace "%d/%d " (Engine.state_words t) (Engine.depth t);
        outs)
      events
  in
  Engine.finish t;
  stream_digest ~trace:(Buffer.contents trace) outs (Engine.stats t)

let test_engine_stream_pins () =
  let check name want got = Alcotest.(check string) name want got in
  let e14_doc = Generator.hospital (Rng.create 14L) ~patients:60 in
  let e14_rules =
    [ allow "//patient"; deny "//ssn"; allow "//folder/prescription/drug";
      deny "//comment"; deny {|//patient[age>"80"]|} ]
  in
  let e14_events = Dom.to_events e14_doc in
  List.iter
    (fun (dispatch, want) ->
      check
        (Printf.sprintf "E14 dispatch=%b" dispatch)
        want
        (traced_digest ~dispatch e14_rules e14_events))
    [ (true, "78b6e0498db6c13efd04e4494046941d");
      (false, "06fb58b0eb3b41543a2765e20420cf20") ];
  let encoded =
    Sdds_index.Encode.encode ~meta_threshold:0
      ~mode:(Sdds_index.Encode.Indexed { recursive = true })
      (Generator.hospital (Rng.create 5L) ~patients:20)
  in
  let policies =
    [ ("broad", [ allow "//patient"; deny "//ssn" ]);
      ("narrow", [ allow "//admission" ]);
      ("pred", [ allow {|//patient[age>"60"]/admission|} ]) ]
  in
  let queries = [ None; Some "//patient/name"; Some "//patient/admission" ] in
  let want =
    [ "b79278da88ee6f53b27d3e7ad1e3b1a3"; "16d949388964c65c227028d40ffbb255";
      "1be39a8cf33bb6e1de53ce6e168d1d19"; "0927a894e41067c4cc3a8c64eac8919c";
      "c17a2a1b8e8607835f89e11ff3363205"; "b37e42d5bc37b8949d49c0e35704fb81";
      "7d977dcba0874fc7f0975fe3ed909907"; "24bbbc1b82ac1a5d803e00bf64fd861f";
      "2173ffa151b98740318ed7187d8df25d" ]
  in
  List.iteri
    (fun i ((pol, rules), q) ->
      let query = Option.map Xp.parse q in
      let r = Sdds_index.Indexed_engine.run ?query rules encoded in
      check
        (Printf.sprintf "skip index %s %s" pol (Option.value q ~default:"-"))
        (List.nth want i)
        (stream_digest ~ranges:r.Sdds_index.Indexed_engine.skipped_ranges
           r.Sdds_index.Indexed_engine.outputs
           r.Sdds_index.Indexed_engine.engine_stats))
    (List.concat_map
       (fun pol -> List.map (fun q -> (pol, q)) queries)
       policies);
  (* Denied folders whose children leave no positive automaton alive: a
     suppression boundary that carries a predicate automaton across. *)
  let boundary_rules =
    [ allow {|/hospital/patient[age>"40"]|}; deny "/hospital/patient/folder";
      allow "/hospital/patient/folder[.//drug]/analysis"; deny "//ssn" ]
  in
  List.iter
    (fun (dispatch, want) ->
      check
        (Printf.sprintf "boundary dispatch=%b" dispatch)
        want
        (traced_digest ~dispatch boundary_rules e14_events))
    [ (true, "01cde424f88213fe71a5364d88ef0e86");
      (false, "418cfeebb8694753a7bc9666be61e415") ];
  let feed = Dom.to_events (Generator.feed_tagged (Rng.create 5L) ~events:100) in
  check "feed channels -//*[rating=R]" "f5543f0f529cef7b7c94a0054bf110af"
    (traced_digest ~dispatch:true
       [ allow "//sports"; allow "//news"; deny {|//*[rating="R"]|} ]
       feed);
  (* Open world, written as the rule +/* under the closed default. *)
  check "default allow" "2466184a5099204bc7f388dddd1d672c"
    (traced_digest ~dispatch:true
       ~query:(Xp.parse "//patient[name]//*")
       [ allow "/*"; deny "//ssn"; deny {|//patient[age>"80"]|};
         allow {|//patient[age>"80"]/name|} ]
       e14_events)

(* Gc.minor_words is deterministic, so the engine's allocation is pinned
   like an output: frames, token stacks and per-open scratch are reused,
   so what an event allocates is mostly the [Output.t] values it returns
   (about 5-8 words per delivered event). *)
let test_engine_allocation () =
  let events = Dom.to_events (Generator.hospital (Rng.create 14L) ~patients:60) in
  let t =
    Engine.create
      [ allow "//patient"; deny "//ssn"; allow "//folder/prescription/drug";
        deny "//comment"; deny {|//patient[age>"80"]|} ]
  in
  let before = Gc.minor_words () in
  List.iter (fun ev -> ignore (Sys.opaque_identity (Engine.feed t ev))) events;
  let per_event =
    (Gc.minor_words () -. before) /. float_of_int (List.length events)
  in
  Engine.finish t;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event <= 10" per_event)
    true (per_event <= 10.0)

(* ------------------------------------------------------------------ *)
(* Property tests: engine = oracle                                     *)
(* ------------------------------------------------------------------ *)

let gen_case =
  (* A seed, expanded deterministically into (doc, rules, query). *)
  QCheck2.Gen.(int_bound 1_000_000)

let expand_case ~with_query seed =
  let rng = Rng.create (Int64.of_int seed) in
  let doc =
    Generator.random_tree rng
      ~tags:[| "a"; "b"; "c"; "d"; "e" |]
      ~max_depth:6 ~max_children:4 ~text_probability:0.25
  in
  let tags = [| "a"; "b"; "c"; "d"; "e" |] in
  let values = [| "acute"; "benign"; "chronic"; "10" |] in
  let cfg =
    {
      Random_path.default with
      Random_path.max_steps = 3;
      predicate_probability = 0.5;
      value_predicate_probability = 0.3;
      nested_predicate_probability = 0.25;
    }
  in
  let n_rules = 1 + Rng.int rng 5 in
  let rules =
    List.init n_rules (fun _ ->
        let path = Random_path.generate rng cfg ~tags ~values in
        {
          Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
          subject = "u";
          path;
        })
  in
  let query =
    if with_query && Rng.bool rng then
      Some (Random_path.generate rng cfg ~tags ~values)
    else None
  in
  (doc, rules, query)

let equal_view a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Dom.equal x y
  | None, Some _ | Some _, None -> false

let qcheck_engine_matches_oracle =
  QCheck2.Test.make ~name:"engine view = oracle view" ~count:500 gen_case
    (fun seed ->
      let doc, rules, query = expand_case ~with_query:false seed in
      ignore query;
      equal_view
        (Oracle.authorized_view ~rules doc)
        (view rules doc))

let qcheck_engine_matches_oracle_query =
  QCheck2.Test.make ~name:"engine+query view = oracle view" ~count:500
    gen_case (fun seed ->
      let doc, rules, query = expand_case ~with_query:true seed in
      equal_view
        (Oracle.authorized_view ~rules ?query doc)
        (view ?query rules doc))

let qcheck_engine_default_allow =
  QCheck2.Test.make ~name:"engine = oracle under open world" ~count:200
    gen_case (fun seed ->
      let doc, rules, _ = expand_case ~with_query:false seed in
      let rules = allow "/*" :: rules in
      equal_view (Oracle.authorized_view ~rules doc) (view rules doc))

(* The differential guarantee behind the dispatch layer: the bucketed
   engine's output stream is byte-for-byte the naive engine's (same
   events, same condition-variable numbering, same order), its stats agree
   except that it visits no MORE tokens, and both runs' accounting
   reconciles, over 700 fuzzed (document, ruleset, query) triples. *)
let qcheck_dispatch_equals_naive =
  QCheck2.Test.make ~name:"dispatch = naive scan, byte-identical" ~count:700
    gen_case (fun seed ->
      let doc, rules, query = expand_case ~with_query:true seed in
      let events = Dom.to_events doc in
      let outs_d, s_d = run_mode ~dispatch:true ?query rules events in
      let outs_n, s_n = run_mode ~dispatch:false ?query rules events in
      let reconciles (st : Engine.stats) =
        st.Engine.events
        = st.Engine.delivered + st.Engine.suppressed + st.Engine.filtered
      in
      String.equal
        (Sdds_core.Output_codec.encode_list outs_d)
        (Sdds_core.Output_codec.encode_list outs_n)
      && reconciles s_d && reconciles s_n
      && s_d.Engine.events = s_n.Engine.events
      && s_d.Engine.emitted = s_n.Engine.emitted
      && s_d.Engine.delivered = s_n.Engine.delivered
      && s_d.Engine.suppressed = s_n.Engine.suppressed
      && s_d.Engine.filtered = s_n.Engine.filtered
      && s_d.Engine.instances = s_n.Engine.instances
      && s_d.Engine.peak_tokens = s_n.Engine.peak_tokens
      && s_d.Engine.peak_state_words = s_n.Engine.peak_state_words
      && s_d.Engine.token_visits <= s_n.Engine.token_visits)

let suite =
  [
    Alcotest.test_case "cond simplify" `Quick test_cond_simplify;
    Alcotest.test_case "cond eval" `Quick test_cond_eval;
    Alcotest.test_case "rule parse" `Quick test_rule_parse;
    Alcotest.test_case "rule parse errors" `Quick test_rule_parse_errors;
    Alcotest.test_case "rule for_subject" `Quick test_rule_for_subject;
    Alcotest.test_case "oracle default deny" `Quick test_oracle_default_deny;
    Alcotest.test_case "oracle propagation" `Quick test_oracle_propagation;
    Alcotest.test_case "oracle figure-2 rule" `Quick test_oracle_figure2_rule;
    Alcotest.test_case "oracle denial precedence" `Quick
      test_oracle_denial_precedence;
    Alcotest.test_case "oracle most-specific" `Quick test_oracle_most_specific;
    Alcotest.test_case "oracle default allow" `Quick test_oracle_default_allow;
    Alcotest.test_case "oracle query" `Quick test_oracle_query;
    Alcotest.test_case "engine figure-2" `Quick test_engine_figure2;
    Alcotest.test_case "engine pending predicate" `Quick
      test_engine_pending_predicate_after_target;
    Alcotest.test_case "engine pending value predicate" `Quick
      test_engine_pending_value_predicate;
    Alcotest.test_case "engine nested predicate" `Quick
      test_engine_nested_predicate;
    Alcotest.test_case "engine self value predicate" `Quick
      test_engine_self_value_predicate;
    Alcotest.test_case "engine attribute rules" `Quick
      test_engine_attribute_rules;
    Alcotest.test_case "engine query" `Quick test_engine_query;
    Alcotest.test_case "engine errors" `Quick test_engine_errors;
    Alcotest.test_case "engine suppression stats" `Quick
      test_engine_suppression_stats;
    Alcotest.test_case "engine memory bounded" `Quick
      test_engine_memory_bounded;
    Alcotest.test_case "engine depth" `Quick test_engine_depth;
    Alcotest.test_case "subtree skippable" `Quick test_subtree_skippable;
    Alcotest.test_case "subtree skippable pending pred" `Quick
      test_subtree_skippable_pending_pred;
    Alcotest.test_case "output static" `Quick
      test_output_is_static_without_predicates;
    Alcotest.test_case "engine stats reconcile" `Quick
      test_engine_stats_reconcile;
    Alcotest.test_case "dispatch reduces token visits" `Quick
      test_dispatch_reduces_token_visits;
    Alcotest.test_case "engine stream pins" `Quick test_engine_stream_pins;
    Alcotest.test_case "engine allocation" `Quick test_engine_allocation;
    QCheck_alcotest.to_alcotest qcheck_engine_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_engine_matches_oracle_query;
    QCheck_alcotest.to_alcotest qcheck_engine_default_allow;
    QCheck_alcotest.to_alcotest qcheck_dispatch_equals_naive;
  ]

(* ------------------------------------------------------------------ *)
(* Output codec                                                        *)
(* ------------------------------------------------------------------ *)

module Output_codec = Sdds_core.Output_codec

(* Every prefix of [events] round-trips, and [size_list] of it is the
   length of its encoding. *)
let check_codec what events =
  let rec prefixes acc rev = function
    | [] -> List.rev (List.rev rev :: acc)
    | e :: rest -> prefixes (List.rev rev :: acc) (e :: rev) rest
  in
  List.iteri
    (fun i prefix ->
      let encoded = Output_codec.encode_list prefix in
      let what = Printf.sprintf "%s[..%d]" what i in
      Alcotest.(check bool) (what ^ " roundtrip") true
        (Output_codec.decode_list encoded = prefix);
      Alcotest.(check int) (what ^ " size_list") (String.length encoded)
        (Output_codec.size_list prefix))
    (prefixes [] [] events)

let open_ ?(neg = Cond.ff) ?(pos = Cond.tt) ?(query = Cond.tt) tag =
  Output.Open_node { tag; neg; pos; query }

let test_codec_unit () =
  let events =
    [
      open_ "a"
        ~pos:(Cond.disj [ Cond.var 3; Cond.conj [ Cond.var 1; Cond.var 2 ] ]);
      Output.Text_node "hello & <world>";
      open_ "b" ~neg:(Cond.var 4) ~query:(Cond.var 5);
      Output.Close_node "b";
      open_ "b" ~pos:Cond.ff ~query:Cond.ff;
      open_ "a";
      Output.Close_node "a";
      Output.Close_node "b";
      Output.Resolve (3, true);
      Output.Resolve (1, false);
      Output.Close_node "a";
    ]
  in
  let encoded = Output_codec.encode_list events in
  Alcotest.(check int) "count" 11
    (List.length (Output_codec.decode_list encoded));
  check_codec "one-byte" events;
  (* The layout: header (4 + 27 if the tag is new + 9 neg + 3 pos +
     query shape, each 0 true, 1 false, 2 expression), the tag by name
     or by table index, then the expression slots; a bare close. *)
  Alcotest.(check string) "layout"
    "\x28\x01a\x00\x01x\x0d\x00\x01\x31\x01b\x02\x03\x01\x01"
    (Output_codec.encode_list
       [ open_ "a"; Output.Text_node "x"; open_ "a"; Output.Close_node "a";
         open_ "b" ~neg:(Cond.var 3); Output.Close_node "b";
         Output.Close_node "a" ]);
  (* Engine streams keep every length, id, arity and tag index below
     128, so their varints are one byte; these need two and three. *)
  let vars = List.map Cond.var [ 127; 128; 16_383; 16_384 ] in
  let wide = List.init 130 (fun i -> Cond.var (2 * i)) in
  let long = String.make 200 't' in
  check_codec "multi-byte"
    [
      open_ long ~neg:(Cond.conj wide) ~pos:(Cond.disj vars)
        ~query:(Cond.disj wide);
      Output.Text_node (String.make 20_000 'x');
      open_ long ~neg:(Cond.var 16_384);
      Output.Close_node long;
      Output.Resolve (127, false);
      Output.Resolve (128, true);
      Output.Resolve (16_383, false);
      Output.Resolve (16_384, true);
      Output.Close_node long;
    ];
  (* 130 distinct tags: the last ones' table indices take two bytes. *)
  let tags = List.init 130 (Printf.sprintf "t%d") in
  check_codec "wide table"
    (List.concat_map (fun t -> [ open_ t; Output.Close_node t ]) tags
    @ List.concat_map
        (fun t -> [ open_ t ~query:Cond.ff; Output.Close_node t ])
        (List.rev tags))

let test_codec_malformed () =
  let expect what s =
    match Output_codec.decode_list s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected decode failure" what
  in
  expect "header out of range" "\x3a";
  expect "header out of range" "\x63";
  expect "two-byte header" "\x80\x01";
  expect "truncated text" "\x00\x05ab";
  expect "bad condition tag" "\x31\x01a\x07";
  expect "close without an open" "\x01";
  expect "close without an open" "\x29\x01a\x01\x01";
  expect "tag index beyond an empty table" "\x0e\x00";
  expect "tag index beyond the table" "\x29\x01a\x0e\x01";
  expect "truncated first-use name" "\x29\x05ab";
  expect "truncated tag index" "\x29\x01a\x0e";
  (* The encoder refuses a close that does not match its open. *)
  let refuses what outs =
    match Output_codec.encode_list outs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected encode failure" what
  in
  refuses "renamed close" [ open_ "a"; Output.Close_node "b" ];
  refuses "close without an open" [ Output.Close_node "a" ];
  refuses "extra close" [ open_ "a"; Output.Close_node "a"; Output.Close_node "a" ]

let qcheck_codec_roundtrip =
  QCheck2.Test.make ~name:"output codec roundtrip on engine streams"
    ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let doc, rules, query = expand_case ~with_query:true seed in
      let outs = Engine.run ?query rules (Dom.to_events doc) in
      let encoded = Output_codec.encode_list outs in
      Output_codec.decode_list encoded = outs
      && Output_codec.size_list outs = String.length encoded)

(* The terminal's XML is written from the builder's events, from a list
   or straight from the bytes: it must be the DOM view's rendering.
   Renaming [c] to [@c] in the outputs leaves the view's shape alone and
   puts attributes anywhere in it, the root included. *)
let qcheck_streamed_xml =
  QCheck2.Test.make ~name:"streamed xml = to_string of the DOM view"
    ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let doc, rules, query = expand_case ~with_query:true seed in
      let outs = Engine.run ?query rules (Dom.to_events doc) in
      let has_query = query <> None in
      let attributed =
        List.map
          (function
            | Output.Open_node o when o.tag = "c" ->
                Output.Open_node { o with tag = "@c" }
            | Output.Close_node "c" -> Output.Close_node "@c"
            | o -> o)
          outs
      in
      List.for_all
        (fun outs ->
          let want =
            Option.map
              (Sdds_xml.Serializer.to_string ~indent:true)
              (Reassembler.run ~has_query outs)
          in
          let encoded = Output_codec.encode_list outs in
          Reassembler.xml ~has_query (fun f -> List.iter f outs) = want
          && Reassembler.xml ~has_query (fun f -> Output_codec.iter f encoded)
             = want)
        [ outs; attributed ])

let codec_suite =
  [
    Alcotest.test_case "codec unit" `Quick test_codec_unit;
    Alcotest.test_case "codec malformed" `Quick test_codec_malformed;
    QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_streamed_xml;
  ]
