(* The static policy analyzer: every verdict it emits is checked against
   the runtime it speaks about — dead rules against the oracle's
   authorized view, containment witnesses against node selection, overlap
   witnesses against the conflict-resolution oracle, the static memory
   bound against the engine's measured peak, and the bound's verdict
   against a card's RAM. *)

module Analyzer = Sdds_analysis.Analyzer
module Diag = Sdds_analysis.Diag
module Memory_bound = Sdds_analysis.Memory_bound
module Containment = Sdds_xpath.Containment
module Eval = Sdds_xpath.Eval
module Random_path = Sdds_xpath.Random_path
module Parser = Sdds_xpath.Parser
module Rule = Sdds_core.Rule
module Oracle = Sdds_core.Oracle
module Engine = Sdds_core.Engine
module Sdds = Sdds_core.Sdds
module Compile = Sdds_core.Compile
module Ram = Sdds_core.Ram
module Encode = Sdds_index.Encode
module Indexed_engine = Sdds_index.Indexed_engine
module Schema = Sdds_core.Schema
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Rng = Sdds_util.Rng
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Publish = Sdds_dsp.Publish
module Rsa = Sdds_crypto.Rsa
module Drbg = Sdds_crypto.Drbg

let tags = [| "a"; "b"; "c"; "d"; "e" |]
let values = [| "1"; "2"; "x" |]

let cfg =
  { Random_path.default with max_steps = 3; predicate_probability = 0.4 }

let random_doc rng =
  Generator.random_tree rng ~tags ~max_depth:6 ~max_children:4
    ~text_probability:0.3

let random_rules rng n =
  List.init n (fun _ ->
      {
        Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
        subject = "u";
        path = Random_path.generate rng cfg ~tags ~values;
      })

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

(* --- dead rules: removable without changing the engine's view --------- *)

let dead_indices report =
  List.filter_map
    (function Diag.Dead_rule { rule; _ } -> Some rule | _ -> None)
    report.Analyzer.diagnostics

let qcheck_dead_rules_removable =
  QCheck2.Test.make
    ~name:"dropping analyzer-dead rules preserves the authorized view"
    ~count:200 seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let rules = random_rules rng (2 + Rng.int rng 5) in
      let report = Analyzer.run rules in
      let dead = dead_indices report in
      let pruned =
        List.filteri (fun i _ -> not (List.mem i dead)) rules
      in
      List.for_all
        (fun _ ->
          let doc = random_doc rng in
          (* Per-node decisions closed and open world (the rule +/* in
             front), and the engine's reassembled view (the raw event
             streams are allowed to differ in predicate-resolution
             bookkeeping). *)
          let open_world rules = Rule.allow ~subject:"u" "/*" :: rules in
          Oracle.decisions ~rules doc = Oracle.decisions ~rules:pruned doc
          && Oracle.decisions ~rules:(open_world rules) doc
             = Oracle.decisions ~rules:(open_world pruned) doc
          && Sdds.authorized_view ~rules doc
             = Sdds.authorized_view ~rules:pruned doc)
        [ (); (); () ])

(* --- containment verdicts replayed through node selection ------------- *)

let subset p q doc =
  let sel_p = Eval.select_doc p doc and sel_q = Eval.select_doc q doc in
  List.for_all (fun id -> List.mem id sel_q) sel_p

let qcheck_containment_witnesses =
  QCheck2.Test.make ~name:"containment verdicts carry honest witnesses"
    ~count:400 seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let p = Random_path.generate rng cfg ~tags ~values in
      let q = Random_path.generate rng cfg ~tags ~values in
      match Containment.decide q p with
      | Containment.Contained ->
          (* Sound claim: p ⊆ q on every document — spot-check three. *)
          List.for_all (fun _ -> subset p q (random_doc rng)) [ (); (); () ]
      | Containment.Not_contained doc ->
          (* The witness is a proof: p selects a node q misses on it. *)
          not (subset p q doc)
      | Containment.Unknown None -> true
      | Containment.Unknown (Some doc) ->
          (* An honest shrug: the candidate indeed failed to refute. *)
          subset p q doc)

(* --- overlap witnesses: the synthesized document exhibits the sign ---- *)

let qcheck_overlap_witnesses =
  QCheck2.Test.make
    ~name:"overlap witnesses replay through the oracle" ~count:200 seed_gen
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let rules = random_rules rng (2 + Rng.int rng 4) in
      let report = Analyzer.run rules in
      List.for_all
        (function
          | Diag.Overlap { allow; deny; relation; winner; witness; node } ->
              let ra = report.Analyzer.rules.(allow)
              and rd = report.Analyzer.rules.(deny) in
              let sel_a = Eval.select_doc ra.Rule.path witness
              and sel_d = Eval.select_doc rd.Rule.path witness in
              let decisions =
                Oracle.decisions ~rules:[ ra; rd ] witness
              in
              ra.Rule.sign = Rule.Allow
              && rd.Rule.sign = Rule.Deny
              && decisions.(node) = winner
              && (match relation with
                 | Diag.Same_node ->
                     (* Both rules select the node: denial takes
                        precedence there. *)
                     List.mem node sel_a && List.mem node sel_d
                     && winner = Rule.Deny
                 | Diag.Allow_below_deny ->
                     (* The allow is the most specific object at the
                        node; it wins under the denied ancestor. *)
                     List.mem node sel_a
                     && (not (List.mem node sel_d))
                     && winner = Rule.Allow
                 | Diag.Deny_below_allow ->
                     List.mem node sel_d
                     && (not (List.mem node sel_a))
                     && winner = Rule.Deny)
          | _ -> true)
        report.Analyzer.diagnostics)

(* --- unsure shadows: the candidate really failed to refute ------------ *)

let qcheck_unsure_shadow_candidates =
  QCheck2.Test.make
    ~name:"unsure-shadow candidates do not refute containment" ~count:300
    seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let rules = random_rules rng (2 + Rng.int rng 5) in
      let report = Analyzer.run rules in
      List.for_all
        (function
          | Diag.Unsure_shadow { rule; by; candidate = Some doc } ->
              subset report.Analyzer.rules.(rule).Rule.path
                report.Analyzer.rules.(by).Rule.path doc
          | _ -> true)
        report.Analyzer.diagnostics)

(* --- schema unsatisfiability is sound on conforming documents --------- *)

let schema =
  Schema.of_string
    "a = b c #text\n\
     b = d\n\
     c = d e\n\
     d = #text\n\
     e = #text\n"

let rec conforming rng schema tag =
  let kids =
    List.concat_map
      (fun k -> if Rng.bool rng then [ conforming rng schema k ] else [])
      (Schema.children schema tag)
  in
  let kids =
    if Schema.text_allowed schema tag && Rng.bool rng then
      kids @ [ Dom.text values.(Rng.int rng (Array.length values)) ]
    else kids
  in
  Dom.element tag kids

let qcheck_unsat_schema_sound =
  QCheck2.Test.make
    ~name:"schema-unsat rules select nothing on conforming documents"
    ~count:300 seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let rules = random_rules rng (2 + Rng.int rng 4) in
      let report = Analyzer.run ~schema rules in
      List.for_all
        (function
          | Diag.Unsat_schema { rule } ->
              let path = report.Analyzer.rules.(rule).Rule.path in
              List.for_all
                (fun _ ->
                  Eval.select_doc path
                    (conforming rng schema (Schema.root schema))
                  = [])
                [ (); (); (); (); () ]
          | _ -> true)
        report.Analyzer.diagnostics)

(* --- unknown tags: the rule cannot match the dictionary's document ---- *)

let qcheck_unknown_tag_sound =
  QCheck2.Test.make
    ~name:"unknown-tag rules select nothing on the dictionary's document"
    ~count:300 seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = random_doc rng in
      let dict = Dom.distinct_tags doc in
      (* Widen the tag pool so some rules mention tags the document
         lacks. *)
      let wide = Array.append tags [| "zz"; "ww" |] in
      let rules =
        List.init
          (2 + Rng.int rng 4)
          (fun _ ->
            {
              Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
              subject = "u";
              path = Random_path.generate rng cfg ~tags:wide ~values;
            })
      in
      let report = Analyzer.run ~dictionary:dict rules in
      List.for_all
        (function
          | Diag.Unknown_tag { rule; tag } ->
              (not (List.mem tag dict))
              && Eval.select_doc report.Analyzer.rules.(rule).Rule.path doc
                 = []
          | _ -> true)
        report.Analyzer.diagnostics)

(* --- the static memory bound dominates the engine's measured peak ----- *)

(* In state words, the bound dominates the engine's peak over the DOM's
   events. In bytes, at the document's depth and dictionary, it dominates
   what the card charges for the indexed engine's run over the
   document's encoding: the engine's and the reader's peaks and the tags
   the output opens, by the RAM layout, at the publisher's chunk size. *)

let engine_peak ?query ~compiled rules doc =
  let eng = Engine.create ?query ~compiled rules in
  List.iter
    (fun ev -> ignore (Engine.feed eng ev))
    (Dom.to_events doc);
  Engine.finish eng;
  (Engine.stats eng).Engine.peak_state_words

let qcheck_memory_bound_sound =
  QCheck2.Test.make
    ~name:"static state bound >= engine peak state words" ~count:200
    seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = random_doc rng in
      let rules = random_rules rng (1 + Rng.int rng 4) in
      let query =
        if Rng.bool rng then
          Some (Random_path.generate rng cfg ~tags ~values)
        else None
      in
      let compiled = Compile.compile ?query rules in
      let peak = engine_peak ?query ~compiled rules doc in
      let depth = Dom.depth doc in
      let bound = Memory_bound.compute ~depth compiled in
      (* Also with the alphabet restricted to the document's own tags —
         the tighter bound the dictionary pass uses must still hold on
         that document. *)
      let dict = Dom.distinct_tags doc in
      let restricted =
        Memory_bound.compute
          ~tag_possible:(fun t -> List.mem t dict)
          ~dict_size:(List.length dict) ~depth compiled
      in
      let res =
        Indexed_engine.run ?query ~compiled rules
          (Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc)
      in
      let charge =
        Ram.charge
          ~state_words:res.Indexed_engine.engine_stats.Engine.peak_state_words
          ~reader_words:res.Indexed_engine.reader_peak_words
          ~tags:(Ram.tag_table_entries res.Indexed_engine.outputs)
          ~held_bytes:0 ~chunk_bytes:Ram.default_chunk_bytes
      in
      bound.Memory_bound.state_words >= peak
      && restricted.Memory_bound.state_words >= peak
      && restricted.Memory_bound.bound_bytes >= charge)

(* --- every diagnostic kind on a crafted policy ------------------------ *)

let test_all_kinds () =
  let rules =
    [
      Rule.allow ~subject:"u" "//b";
      Rule.allow ~subject:"u" "/a/b" (* dead: covered by //b *);
      Rule.deny ~subject:"u" "//b/d" (* deny below allow *);
      Rule.allow ~subject:"u" "//e/e" (* schema-unsat: e is a leaf *);
      Rule.allow ~subject:"u" "//zz" (* unknown tag *);
    ]
  in
  let dictionary = [ "a"; "b"; "c"; "d"; "e" ] in
  let report = Analyzer.run ~schema ~dictionary ~budget_bytes:64 rules in
  let slugs =
    List.sort_uniq compare
      (List.map Diag.slug report.Analyzer.diagnostics)
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " reported") true (List.mem s slugs))
    [ "dead-rule"; "overlap"; "unsat-schema"; "unknown-tag"; "memory-bound" ];
  (* The 64-byte budget is unmeetable: the bound diagnostic is an error
     and the report as a whole fails admission. *)
  Alcotest.(check bool) "budget exceeded is an error" true
    (Analyzer.has_errors report);
  (* The schema (depth 3, non-recursive) supplied the bound's depth. *)
  List.iter
    (function
      | Diag.Memory_bound { depth; depth_from_schema; _ } ->
          Alcotest.(check int) "schema depth" 3 depth;
          Alcotest.(check bool) "depth from schema" true depth_from_schema
      | _ -> ())
    report.Analyzer.diagnostics

(* --- the static check before upload: same policy, two budgets -------- *)

(* Descendant axes under nested predicates: cheap on the shallow document
   below, but with a worst case (every anchor depth ambiguous, condition
   sets multiplying) far past one kilobyte. *)
let heavy_rules =
  [
    Rule.allow ~subject:"u" "//a[.//b]//c";
    Rule.deny ~subject:"u" "//b[.//d][.//e]//a";
    Rule.allow ~subject:"u" "//c[.//a]//e";
  ]

(* The card has one RAM check, at evaluation. The static one is the
   analyzer's bound, run against a card profile's RAM before the policy
   is uploaded ([sdds analyze --profile]), at the default depth over the
   subject's rules, which is what the card compiles. *)
let test_bound_before_upload () =
  let drbg = Drbg.create ~seed:"analysis-admission" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let doc =
    Dom.element "a"
      [
        Dom.element "b" [ Dom.element "d" []; Dom.element "e" [] ];
        Dom.element "c" [ Dom.element "a" [ Dom.element "e" [] ] ];
      ]
  in
  let doc_id = "pol-1" in
  let published, doc_key = Publish.publish drbg ~publisher ~doc_id doc in
  let blob =
    Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id ~subject:"u"
      heavy_rules
  in
  let grant = Publish.grant drbg ~doc_key ~doc_id ~recipient:user.Rsa.public in
  let verdict profile =
    let report =
      Analyzer.run ~depth:Memory_bound.default_depth
        ~budget_bytes:profile.Cost.ram_bytes
        (Rule.for_subject "u" heavy_rules)
    in
    match
      List.find_opt
        (function Diag.Memory_bound _ -> true | _ -> false)
        report.Analyzer.diagnostics
    with
    | Some (Diag.Memory_bound { bound_bytes; budget_bytes; _ } as d) ->
        Alcotest.(check (option int))
          (profile.Cost.name ^ " budget is its RAM")
          (Some profile.Cost.ram_bytes) budget_bytes;
        Alcotest.(check int)
          (profile.Cost.name ^ " bound is the report's")
          report.Analyzer.bound.Memory_bound.bound_bytes bound_bytes;
        (bound_bytes, Diag.severity d = Diag.Error)
    | _ -> Alcotest.fail "no memory-bound diagnostic"
  in
  (* The fleet profile's RAM admits the policy... *)
  let _, over = verdict Cost.fleet in
  Alcotest.(check bool) "fleet: bound within budget" false over;
  (* ...and a fleet card evaluates it: the engine confirms the analyzer's
     "fits" verdict end to end. *)
  let card = Card.create ~profile:Cost.fleet ~subject:"u" user in
  (match Card.install_wrapped_key card ~doc_id ~wrapped:grant with
  | Error e -> Alcotest.failf "grant install failed: %a" Card.pp_error e
  | Ok () -> ());
  (match
     Card.evaluate card
       (Publish.to_source published ~delivery:`Pull)
       ~encrypted_rules:blob ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fleet evaluation failed: %a" Card.pp_error e);
  (* The 1 KB e-gate's RAM does not: the bound is over budget, an error. *)
  let bound, over = verdict Cost.egate in
  Alcotest.(check bool) "e-gate: bound over budget is an error" true over;
  Alcotest.(check bool) "e-gate: bound exceeds its RAM" true
    (bound > Cost.egate.Cost.ram_bytes)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_dead_rules_removable;
    QCheck_alcotest.to_alcotest qcheck_containment_witnesses;
    QCheck_alcotest.to_alcotest qcheck_overlap_witnesses;
    QCheck_alcotest.to_alcotest qcheck_unsure_shadow_candidates;
    QCheck_alcotest.to_alcotest qcheck_unsat_schema_sound;
    QCheck_alcotest.to_alcotest qcheck_unknown_tag_sound;
    QCheck_alcotest.to_alcotest qcheck_memory_bound_sound;
    Alcotest.test_case "every diagnostic kind on a crafted policy" `Quick
      test_all_kinds;
    Alcotest.test_case "static bound: fleet admits, e-gate refuses" `Quick
      test_bound_before_upload;
  ]
