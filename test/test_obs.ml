(* Observability: metrics registry semantics, tracer nesting/sampling/
   ring bounds, the two export formats, and the subsystem's contract with
   the rest of the pipeline — zero behavioural overhead (qcheck),
   deterministic exports under a fixed clock and fault seed, one
   accounting source of truth (legacy stats records = registry values)
   in a registry sized by its names, and fault/span correlation. *)

module Obs = Sdds_obs.Obs
module Rng = Sdds_util.Rng
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Random_path = Sdds_xpath.Random_path
module Rule = Sdds_core.Rule
module Encode = Sdds_index.Encode
module Indexed_engine = Sdds_index.Indexed_engine
module Engine = Sdds_core.Engine
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Remote = Sdds_soe.Remote_card
module Proxy = Sdds_proxy.Proxy
module World = Sdds_proxy.World
module Fault = Sdds_fault.Fault
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Json = Sdds_analysis.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge_histogram () =
  let c = Obs.Metrics.Counter.create () in
  Obs.Metrics.Counter.inc c;
  Obs.Metrics.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.Counter.value c);
  let g = Obs.Metrics.Gauge.create () in
  Obs.Metrics.Gauge.set g 7;
  Obs.Metrics.Gauge.set g 3;
  Alcotest.(check int) "gauge value" 3 (Obs.Metrics.Gauge.value g);
  Alcotest.(check int) "gauge peak" 7 (Obs.Metrics.Gauge.peak g);
  let h = Obs.Metrics.Histogram.create () in
  List.iter (Obs.Metrics.Histogram.observe h) [ 0; 1; 1; 2; 100; -5 ];
  Alcotest.(check int) "hist count" 6 (Obs.Metrics.Histogram.count h);
  (* The -5 clamps to 0. *)
  Alcotest.(check int) "hist sum" 104 (Obs.Metrics.Histogram.sum h);
  (* log2 buckets: v < 2^i. 0 -> le 0; 1 -> le 1; 2 -> le 3; 100 -> le 127. *)
  Alcotest.(check (list (pair int int)))
    "hist buckets"
    [ (0, 2); (1, 2); (3, 1); (7, 0); (15, 0); (31, 0); (63, 0); (127, 1) ]
    (Obs.Metrics.Histogram.buckets h)

let test_registry_one_cell_per_name () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "x.count" in
  Alcotest.(check bool) "a name has one cell" true
    (c == Obs.Metrics.counter m "x.count");
  Obs.Metrics.Counter.add c 2;
  Obs.Metrics.Counter.add (Obs.Metrics.counter m "x.count") 3;
  Alcotest.(check int) "its count" 5 (Obs.Metrics.counter_value m "x.count");
  Alcotest.(check int) "absent name is 0" 0 (Obs.Metrics.counter_value m "y");
  Alcotest.(check (pair int int)) "absent gauge is (0, 0)" (0, 0)
    (Obs.Metrics.gauge_value m "y");
  let g = Obs.Metrics.gauge m "x.level" in
  Obs.Metrics.Gauge.set g 10;
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge m "x.level") 4;
  (match List.assoc_opt "x.level" (Obs.Metrics.snapshot m) with
  | Some (Obs.Metrics.Gauge_v { value; peak }) ->
      Alcotest.(check int) "gauge value is the last set" 4 value;
      Alcotest.(check int) "gauge peak is the max set" 10 peak
  | _ -> Alcotest.fail "gauge missing from snapshot");
  Obs.Metrics.Histogram.observe (Obs.Metrics.histogram m "a.lat") 1;
  Alcotest.(check (list string))
    "snapshot sorted by name" [ "a.lat"; "x.count"; "x.level" ]
    (List.map fst (Obs.Metrics.snapshot m));
  (* The scope conveniences hand out the scope's cell; with no scope, a
     cell of their own. *)
  let o = Obs.create ~tracing:false () in
  Alcotest.(check bool) "Obs.counter is the scope's cell" true
    (Obs.counter (Some o) "x" == Obs.Metrics.counter o.Obs.metrics "x");
  Alcotest.(check bool) "no scope, a fresh cell" false
    (Obs.counter None "x" == Obs.counter None "x")

let test_exporters () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.Counter.add (Obs.Metrics.counter m "apdu.commands") 3;
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge m "card.ram_peak_bytes") 900;
  Obs.Metrics.Histogram.observe (Obs.Metrics.histogram m "apdu.frame_bytes") 5;
  let prom = Obs.Metrics.to_prometheus m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prometheus has " ^ needle) true
        (contains prom needle))
    [
      "sdds_apdu_commands 3";
      "sdds_card_ram_peak_bytes 900";
      "sdds_card_ram_peak_bytes_peak 900";
      "sdds_apdu_frame_bytes_bucket{le=\"7\"} 1";
      "sdds_apdu_frame_bytes_bucket{le=\"+Inf\"} 1";
      "sdds_apdu_frame_bytes_sum 5";
    ];
  let json = Obs.Metrics.to_json m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [
      "\"counters\":{\"apdu.commands\":3}";
      "\"card.ram_peak_bytes\":{\"value\":900,\"peak\":900}";
      "\"apdu.frame_bytes\":{\"count\":1,\"sum\":5,";
    ]

(* ------------------------------------------------------------------ *)
(* Tracer                                                               *)
(* ------------------------------------------------------------------ *)

let manual_tracer ?capacity () =
  Obs.Tracer.create ~clock:(Obs.Clock.manual ()) ?capacity ()

let test_disabled_tracer_is_inert () =
  let tr = Obs.Tracer.disabled in
  Alcotest.(check bool) "not enabled" false (Obs.Tracer.enabled tr);
  let ran = ref false in
  let sp = Obs.Tracer.start tr "x" in
  Obs.Tracer.stop tr sp;
  Obs.Tracer.with_span tr "y" (fun () -> ran := true);
  Obs.Tracer.instant tr "z";
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check bool) "no real span id" true (sp <= 0);
  Alcotest.(check int) "nothing recorded" 0 (Obs.Tracer.recorded tr);
  Alcotest.(check string) "empty export" "" (Obs.Tracer.to_jsonl tr)

let test_nesting_and_exports () =
  let tr = manual_tracer () in
  Obs.Tracer.with_span tr "outer" (fun () ->
      Obs.Tracer.instant tr ~args:[ ("k", "v") ] "tick";
      Obs.Tracer.with_span tr "inner" (fun () -> ()));
  Alcotest.(check int) "one root" 1 (Obs.Tracer.root_spans tr);
  let jsonl = Obs.Tracer.to_jsonl tr in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "three events" 3 (List.length lines);
  (* Spans commit on stop: instant, then inner, then outer. *)
  (match lines with
  | [ l1; l2; l3 ] ->
      Alcotest.(check bool) "instant on the outer span" true
        (contains l1 "\"type\":\"instant\"" && contains l1 "\"parent\":1"
        && contains l1 "\"name\":\"tick\"" && contains l1 "\"k\":\"v\"");
      (* Instants draw from the same id counter: outer=1, tick=2, inner=3. *)
      Alcotest.(check bool) "inner nests under outer" true
        (contains l2 "\"id\":3" && contains l2 "\"parent\":1");
      Alcotest.(check bool) "outer is a root" true
        (contains l3 "\"id\":1" && contains l3 "\"parent\":0")
  | _ -> Alcotest.fail "expected exactly three lines");
  let chrome = Obs.Tracer.to_chrome tr in
  Alcotest.(check bool) "chrome wrapper" true
    (contains chrome "\"traceEvents\":[");
  Alcotest.(check bool) "complete span events" true
    (contains chrome "\"ph\":\"X\"" && contains chrome "\"ph\":\"i\"")

let test_ring_is_bounded () =
  let tr = manual_tracer ~capacity:8 () in
  for _ = 1 to 50 do
    Obs.Tracer.with_span tr "s" (fun () -> ())
  done;
  Alcotest.(check int) "ring holds capacity" 8 (Obs.Tracer.recorded tr);
  Alcotest.(check int) "overwrites counted" 42 (Obs.Tracer.evicted tr)

(* ------------------------------------------------------------------ *)
(* Tail sampling                                                        *)
(* ------------------------------------------------------------------ *)

(* Parse a JSONL export into (root spans, all events) with typed access;
   fails the test on malformed lines so export bugs surface loudly. *)
let parse_jsonl jsonl =
  let events =
    String.split_on_char '\n' jsonl
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Json.parse l with
           | Ok j -> j
           | Error e -> Alcotest.failf "bad export line %S: %s" l e)
  in
  let spans = List.filter (fun j -> Json.member "type" j = Some (Json.String "span")) events in
  let roots =
    List.filter (fun j -> Json.member "parent" j = Some (Json.Int 0)) spans
  in
  (roots, events)

let arg_of j key =
  Option.bind (Json.member "args" j) (fun a ->
      Option.bind (Json.member key a) Json.to_string_opt)

let tail_tracer ?capacity policy =
  Obs.Tracer.create ~clock:(Obs.Clock.manual ()) ?capacity ~policy ()

(* Each non-baseline retention reason must be earned: build one tree per
   rule, plus an uninteresting one, and check who survived and why. *)
let test_tail_policy_reasons () =
  let policy =
    Obs.Policy.default ~baseline_1_in:0 ~latency_ns:1_000_000L ()
  in
  let tr = tail_tracer policy in
  (* error: a child span finishes with a non-ok outcome *)
  let r1 = Obs.Tracer.start tr ~args:[ ("case", "error") ] "req" in
  let c1 = Obs.Tracer.start tr ~parent:r1 "child" in
  Obs.Tracer.stop tr ~args:[ ("outcome", "timeout") ] c1;
  Obs.Tracer.stop tr r1;
  (* fault: an injected-fault instant inside the tree *)
  let r2 = Obs.Tracer.start tr ~args:[ ("case", "fault") ] "req" in
  Obs.Tracer.with_parent tr r2 (fun () -> Obs.Tracer.instant tr "fault");
  Obs.Tracer.stop tr r2;
  (* migration span *)
  let r3 = Obs.Tracer.start tr ~args:[ ("case", "migrate") ] "req" in
  let c3 = Obs.Tracer.start tr ~parent:r3 "fleet.migrate" in
  Obs.Tracer.stop tr c3;
  Obs.Tracer.stop tr r3;
  (* slow: exceed the 1ms latency threshold on the manual clock *)
  let r4 = Obs.Tracer.start tr ~args:[ ("case", "slow") ] "req" in
  for _ = 1 to 2000 do
    ignore (Obs.Tracer.now tr)
  done;
  Obs.Tracer.stop tr r4;
  (* boring: nothing interesting, no baseline (1-in-0) *)
  let r5 = Obs.Tracer.start tr ~args:[ ("case", "boring") ] "req" in
  let c5 = Obs.Tracer.start tr ~parent:r5 "child" in
  Obs.Tracer.stop tr ~args:[ ("outcome", "ok") ] c5;
  Obs.Tracer.stop tr r5;
  let roots, _ = parse_jsonl (Obs.Tracer.to_jsonl tr) in
  let reason_of case =
    List.find_map
      (fun r -> if arg_of r "case" = Some case then arg_of r "sampled.reason" else None)
      roots
  in
  Alcotest.(check (option string)) "error reason" (Some "error")
    (reason_of "error");
  Alcotest.(check (option string)) "fault reason" (Some "fault")
    (reason_of "fault");
  Alcotest.(check (option string)) "migrate reason" (Some "span:fleet.migrate")
    (reason_of "migrate");
  Alcotest.(check (option string)) "latency reason" (Some "latency")
    (reason_of "slow");
  Alcotest.(check bool) "boring tree dropped" true
    (List.for_all (fun r -> arg_of r "case" <> Some "boring") roots);
  Alcotest.(check int) "four trees kept" 4 (Obs.Tracer.kept_trees tr);
  Alcotest.(check int) "one tree dropped" 1 (Obs.Tracer.dropped_trees tr);
  (* Children travel with their kept root. *)
  Alcotest.(check int) "four roots exported" 4 (List.length roots)

let test_tail_baseline_and_children () =
  let tr = tail_tracer (Obs.Policy.v ~baseline_1_in:3 []) in
  for _ = 1 to 9 do
    Obs.Tracer.with_span tr "root" (fun () ->
        Obs.Tracer.with_span tr "child" (fun () -> ()))
  done;
  let roots, events = parse_jsonl (Obs.Tracer.to_jsonl tr) in
  Alcotest.(check int) "1-in-3 baseline" 3 (List.length roots);
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "baseline reason" (Some "baseline")
        (arg_of r "sampled.reason"))
    roots;
  (* Each kept root brought its child; no orphans from dropped trees. *)
  let spans = List.filter (fun j -> Json.member "type" j = Some (Json.String "span")) events in
  Alcotest.(check int) "children follow kept roots" 6 (List.length spans);
  Alcotest.(check int) "six trees dropped" 6 (Obs.Tracer.dropped_trees tr)

(* Sampling accounting rides the meta line / Chrome metadata, and
   eviction of a buffered tree is surfaced in both exporters. *)
let test_tail_meta_and_eviction () =
  let tr = tail_tracer ~capacity:4 (Obs.Policy.v ~baseline_1_in:1 []) in
  for _ = 1 to 3 do
    Obs.Tracer.with_span tr "root" (fun () ->
        Obs.Tracer.with_span tr "child" (fun () -> ()))
  done;
  Alcotest.(check bool) "ring evicted something" true
    (Obs.Tracer.evicted tr > 0);
  let jsonl = Obs.Tracer.to_jsonl tr in
  (match String.split_on_char '\n' jsonl with
  | meta :: _ -> (
      match Json.parse meta with
      | Ok j ->
          Alcotest.(check bool) "meta line first" true
            (Json.member "type" j = Some (Json.String "meta"));
          Alcotest.(check bool) "meta counts evictions" true
            (match Json.member "evicted" j with
            | Some (Json.Int n) -> n = Obs.Tracer.evicted tr
            | _ -> false);
          Alcotest.(check bool) "meta counts kept trees" true
            (match Json.member "kept_trees" j with
            | Some (Json.Int n) -> n = Obs.Tracer.kept_trees tr
            | _ -> false)
      | Error e -> Alcotest.failf "meta line does not parse: %s" e)
  | [] -> Alcotest.fail "empty export");
  Alcotest.(check bool) "chrome metadata object" true
    (contains (Obs.Tracer.to_chrome tr) "\"metadata\":{\"recorded\":")

(* Every non-baseline retained tree satisfies the rule that kept it, and
   every interesting tree is retained — across random mixes of error /
   fault / migration trees. *)
let qcheck_tail_policy_sound =
  QCheck2.Test.make ~name:"tail retention is sound and complete" ~count:60
    QCheck2.Gen.(list_size (int_range 1 30) (triple bool bool bool))
    (fun trees ->
      let policy =
        Obs.Policy.v ~baseline_1_in:4
          [
            Obs.Policy.error_outcome;
            Obs.Policy.fault_instant;
            Obs.Policy.span_named "fleet.migrate";
          ]
      in
      let tr = tail_tracer policy in
      List.iteri
        (fun i (err, fault, migrate) ->
          let root =
            Obs.Tracer.start tr ~args:[ ("i", string_of_int i) ] "req"
          in
          if fault then
            Obs.Tracer.with_parent tr root (fun () ->
                Obs.Tracer.instant tr "fault");
          if migrate then begin
            let c = Obs.Tracer.start tr ~parent:root "fleet.migrate" in
            Obs.Tracer.stop tr c
          end;
          Obs.Tracer.stop tr
            ~args:[ ("outcome", (if err then "error" else "ok")) ]
            root)
        trees;
      let roots, _ = parse_jsonl (Obs.Tracer.to_jsonl tr) in
      let props = Array.of_list trees in
      let sound =
        List.for_all
          (fun r ->
            let i = int_of_string (Option.get (arg_of r "i")) in
            let err, fault, migrate = props.(i) in
            match Option.get (arg_of r "sampled.reason") with
            | "error" -> err
            | "fault" -> fault
            | "span:fleet.migrate" -> migrate
            | "baseline" -> true
            | other -> Alcotest.failf "unknown reason %s" other)
          roots
      in
      let complete =
        List.for_all
          (fun i ->
            let err, fault, migrate = props.(i) in
            (not (err || fault || migrate))
            || List.exists (fun r -> arg_of r "i" = Some (string_of_int i)) roots)
          (List.init (Array.length props) Fun.id)
      in
      sound && complete
      && Obs.Tracer.kept_trees tr + Obs.Tracer.dropped_trees tr
         = Array.length props)

(* ------------------------------------------------------------------ *)
(* Exemplars                                                            *)
(* ------------------------------------------------------------------ *)

let test_exemplars_and_snapshot () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  Alcotest.(check bool) "first observation installs an exemplar" true
    (Obs.Metrics.Histogram.observe_exemplar h ~trace:7 ~span:8 100);
  Alcotest.(check bool) "smaller value in the same bucket does not" false
    (Obs.Metrics.Histogram.observe_exemplar h ~trace:9 ~span:10 80);
  Alcotest.(check bool) "larger value replaces it" true
    (Obs.Metrics.Histogram.observe_exemplar
       (Obs.Metrics.histogram m "lat")
       ~trace:11 ~span:12 120);
  Alcotest.(check bool) "other bucket" true
    (Obs.Metrics.Histogram.observe_exemplar h ~trace:13 ~span:14 3000);
  (* The snapshot is the name's one cell. *)
  let s = Obs.Metrics.histogram_snapshot m "lat" in
  Alcotest.(check int) "snapshot count" 4 s.Obs.Metrics.h_count;
  Alcotest.(check int) "snapshot sum" 3300 s.Obs.Metrics.h_sum;
  Alcotest.(check (list (pair int int)))
    "snapshot buckets" (Obs.Metrics.Histogram.buckets h)
    s.Obs.Metrics.h_buckets;
  Alcotest.(check int) "absent histogram is empty" 0
    (Obs.Metrics.histogram_snapshot m "nope").Obs.Metrics.h_count;
  (* A bucket keeps its max-value exemplar. *)
  (match
     List.assoc_opt 127 s.Obs.Metrics.h_exemplars,
     List.assoc_opt 4095 s.Obs.Metrics.h_exemplars
   with
  | Some e1, Some e2 ->
      Alcotest.(check int) "bucket-127 exemplar is the max" 120
        e1.Obs.Metrics.Histogram.ex_value;
      Alcotest.(check int) "its trace id" 11 e1.Obs.Metrics.Histogram.ex_trace;
      Alcotest.(check int) "bucket-4095 exemplar" 3000
        e2.Obs.Metrics.Histogram.ex_value
  | _ -> Alcotest.fail "expected exemplars on buckets 127 and 4095");
  (* Exemplars surface in both exporters. *)
  let prom = Obs.Metrics.to_prometheus m in
  Alcotest.(check bool) "prometheus exemplar suffix" true
    (contains prom "# {trace_id=\"11\",span_id=\"12\"} 120");
  let json = Obs.Metrics.to_json m in
  Alcotest.(check bool) "json exemplars" true
    (contains json "\"exemplars\":[[127,120,11,12],[4095,3000,13,14]]")

(* A bucket-max observation under an open span pins the owning trace, so
   every exported exemplar resolves into the retained trace — even when
   the tree is otherwise uninteresting to the policy. *)
let test_exemplar_pins_trace () =
  let o =
    Obs.create
      ~clock:(Obs.Clock.manual ())
      ~policy:(Obs.Policy.v ~baseline_1_in:0 [])
      ()
  in
  let tr = o.Obs.tracer in
  let root = Obs.Tracer.start tr "req" in
  Obs.Tracer.with_parent tr root (fun () ->
      Obs.observe (Some o) "lat" 900);
  Obs.Tracer.stop tr root;
  (* A second, slower tree replaces the bucket max and pins itself. *)
  let root2 = Obs.Tracer.start tr "req" in
  Obs.Tracer.with_parent tr root2 (fun () ->
      Obs.observe (Some o) "lat" 1000);
  Obs.Tracer.stop tr root2;
  let roots, _ = parse_jsonl (Obs.Tracer.to_jsonl tr) in
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "pinned reason" (Some "exemplar")
        (arg_of r "sampled.reason"))
    roots;
  let s = Obs.Metrics.histogram_snapshot o.Obs.metrics "lat" in
  List.iter
    (fun (_, e) ->
      Alcotest.(check bool) "exemplar trace id is a retained root" true
        (List.exists
           (fun r ->
             Json.member "id" r
             = Some (Json.Int e.Obs.Metrics.Histogram.ex_trace))
           roots))
    s.Obs.Metrics.h_exemplars;
  Alcotest.(check int) "trace.retained counts the pins" 2
    (Obs.Metrics.counter_value o.Obs.metrics "trace.retained")

(* ------------------------------------------------------------------ *)
(* SLO engine                                                           *)
(* ------------------------------------------------------------------ *)

let test_slo_burn_rates () =
  let m = Obs.Metrics.create () in
  let good = Obs.Metrics.counter m "rq.good"
  and total = Obs.Metrics.counter m "rq.total" in
  let slo = Obs.Slo.create m in
  Obs.Slo.register slo ~name:"avail" ~target_pct:90.0 ~fast_ns:10L
    ~slow_ns:100L ~burn_threshold:2.0
    (Obs.Slo.Availability { good = "rq.good"; total = "rq.total" });
  Obs.Slo.tick ~now:0L slo;
  (* An incident: 2 bad of 10 -> bad fraction 0.2 over a 10% budget =
     burn 2.0 in both windows. *)
  Obs.Metrics.Counter.add good 8;
  Obs.Metrics.Counter.add total 10;
  Obs.Slo.tick ~now:5L slo;
  (match Obs.Slo.evaluate ~now:5L slo with
  | [ v ] ->
      Alcotest.(check (float 0.001)) "fast burn" 2.0 v.Obs.Slo.fast_burn;
      Alcotest.(check (float 0.001)) "slow burn" 2.0 v.Obs.Slo.slow_burn;
      Alcotest.(check bool) "both windows burning: breach" true
        v.Obs.Slo.breach
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  (* Recovery: 20 clean requests later the fast window is clean while
     the slow window still remembers — no page. *)
  Obs.Metrics.Counter.add good 20;
  Obs.Metrics.Counter.add total 20;
  Obs.Slo.tick ~now:20L slo;
  (match Obs.Slo.evaluate ~now:25L slo with
  | [ v ] ->
      Alcotest.(check (float 0.001)) "fast window clean" 0.0
        v.Obs.Slo.fast_burn;
      Alcotest.(check bool) "slow window still burning a little" true
        (v.Obs.Slo.slow_burn > 0.0);
      Alcotest.(check bool) "multi-window: no page after settlement" false
        v.Obs.Slo.breach;
      Alcotest.(check (float 0.01)) "compliance over slow window" 93.33
        v.Obs.Slo.current_pct
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs))

let test_slo_latency_objective () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  let slo = Obs.Slo.create m in
  Obs.Slo.register slo ~name:"lat" ~target_pct:50.0 ~fast_ns:10L
    ~slow_ns:100L ~burn_threshold:1.0
    (Obs.Slo.Latency { histogram = "lat"; threshold = 127 });
  Obs.Slo.tick ~now:0L slo;
  Obs.Metrics.Histogram.observe h 50;
  (* good: <= 127 *)
  Obs.Metrics.Histogram.observe h 200;
  (* bad *)
  Obs.Slo.tick ~now:5L slo;
  match Obs.Slo.evaluate ~now:5L slo with
  | [ v ] ->
      Alcotest.(check int) "good counts the fast buckets" 1 v.Obs.Slo.good;
      Alcotest.(check int) "total counts everything" 2 v.Obs.Slo.total;
      (* bad fraction 0.5 over a 50% budget = burn 1.0 *)
      Alcotest.(check (float 0.001)) "burn" 1.0 v.Obs.Slo.fast_burn;
      Alcotest.(check bool) "at threshold: breach" true v.Obs.Slo.breach
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Pipeline contracts                                                   *)
(* ------------------------------------------------------------------ *)

(* Zero overhead: on random documents and rule sets, an indexed-engine
   pass observes the exact same behaviour with no scope, a metrics-only
   scope, and a fully tracing scope. *)
let qcheck_zero_overhead =
  QCheck2.Test.make ~name:"observability never changes behaviour" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 5))
    (fun (seed, nrules) ->
      let tags = Generator.department_tags in
      let doc =
        Generator.random_tree
          (Rng.create (Int64.of_int (seed + 1)))
          ~tags ~max_depth:5 ~max_children:4 ~text_probability:0.3
      in
      let rrng = Rng.create (Int64.of_int ((seed * 2) + 1)) in
      let cfg =
        { Random_path.default with max_steps = 3; predicate_probability = 0.3 }
      in
      let rules =
        List.init nrules (fun _ ->
            {
              Rule.sign = (if Rng.bool rrng then Rule.Allow else Rule.Deny);
              subject = "u";
              path =
                Random_path.generate rrng cfg ~tags ~values:[| "1"; "x" |];
            })
      in
      let encoded =
        Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc
      in
      let run obs = Indexed_engine.run ?obs rules encoded in
      let plain = run None in
      let metrics_only = run (Some (Obs.create ~tracing:false ())) in
      let full = run (Some (Obs.create ~clock:(Obs.Clock.manual ()) ())) in
      let same (a : Indexed_engine.result) (b : Indexed_engine.result) =
        a.outputs = b.outputs
        && a.skipped_subtrees = b.skipped_subtrees
        && a.skipped_bytes = b.skipped_bytes
        && a.skipped_ranges = b.skipped_ranges
        && a.consumed_bytes = b.consumed_bytes
        && a.events_fed = b.events_fed
        && a.engine_stats = b.engine_stats
        && a.reader_peak_words = b.reader_peak_words
      in
      same plain metrics_only && same plain full)

(* One world for the end-to-end tests, shared (keygen is slow). *)
let doc_id = "ward"

let world =
  lazy
    (let drbg = Drbg.create ~seed:"obs-world" in
     let publisher = Rsa.generate drbg ~bits:512 in
     let user = Rsa.generate drbg ~bits:512 in
     World.create drbg ~publisher ~user
       [ ( doc_id,
           Generator.hospital (Rng.create 19L) ~patients:5,
           [ Rule.allow ~subject:"u" "//patient";
             Rule.deny ~subject:"u" "//ssn" ] ) ])

let requests =
  [
    Proxy.Request.make doc_id;
    Proxy.Request.make ~xpath:"//patient/name" doc_id;
  ]

(* A full pool run under one scope; returns (obs, link, served). *)
let traced_pool_run ?(schedule = Fault.Schedule.none) ?policy () =
  let w = Lazy.force world in
  let obs = Obs.create ~clock:(Obs.Clock.manual ()) ?policy () in
  let card =
    Card.create ~obs ~profile:Cost.modern ~subject:"u" (World.user w)
  in
  let host = Remote.Host.create ~obs ~card ~resolve:(World.resolve w) () in
  let link =
    Fault.Link.wrap ~obs ~schedule
      ~tear:(fun () -> Remote.Host.tear host)
      (Remote.Host.process host)
  in
  let pool =
    Proxy.Pool.create ~obs ~store:(World.store w)
      ~transport:(Fault.Link.transport link) ~subject:"u" ()
  in
  let served = Proxy.Pool.serve pool requests in
  (obs, card, link, served)

let md5 s = Digest.to_hex (Digest.string s)

(* Determinism: fixed clock + fixed fault seed => byte-identical trace
   exports across two independent runs, and across changes to the
   tracer: the digests were recorded before head sampling was removed. *)
let test_deterministic_trace () =
  let run () =
    let obs, _, _, _ =
      traced_pool_run
        ~schedule:(Fault.Schedule.random ~seed:99L ~rate:0.1 ())
        ()
    in
    (Obs.Tracer.to_jsonl obs.Obs.tracer, Obs.Tracer.to_chrome obs.Obs.tracer)
  in
  let j1, c1 = run () in
  let j2, c2 = run () in
  Alcotest.(check string) "identical JSONL" j1 j2;
  Alcotest.(check string) "identical Chrome trace" c1 c2;
  Alcotest.(check string) "JSONL digest"
    "41d15b854bf8075f8d03ff3a25f4c13a" (md5 j1);
  Alcotest.(check string) "Chrome digest"
    "41027a23d7b06841dbe48c7ee2025059" (md5 c1);
  Alcotest.(check bool) "trace is non-trivial" true
    (contains j1 "\"name\":\"proxy.request\"" && contains j1 "\"name\":\"apdu\"")

(* The same determinism guarantee holds in tail mode: the policy decision
   path (buffer, evaluate, flush) introduces no ordering or accounting
   nondeterminism. The digests are pinned the same way. *)
let test_deterministic_tail_trace () =
  let run () =
    let obs, _, _, _ =
      traced_pool_run
        ~schedule:(Fault.Schedule.random ~seed:99L ~rate:0.1 ())
        ~policy:(Obs.Policy.default ~baseline_1_in:0 ())
        ()
    in
    (Obs.Tracer.to_jsonl obs.Obs.tracer, Obs.Tracer.to_chrome obs.Obs.tracer)
  in
  let j1, c1 = run () in
  let j2, c2 = run () in
  Alcotest.(check string) "identical tail JSONL" j1 j2;
  Alcotest.(check string) "identical tail Chrome trace" c1 c2;
  Alcotest.(check string) "tail JSONL digest"
    "2f37bb19600f6f8824e92e17245c6d2c" (md5 j1);
  Alcotest.(check string) "tail Chrome digest"
    "3123097df91fbe822c92df6815493f1a" (md5 c1);
  (* Under a 10% fault schedule at least one tree is interesting, and
     the export says why it was kept. *)
  Alcotest.(check bool) "a retained tree names its reason" true
    (contains j1 "\"sampled.reason\"")

(* One accounting source of truth: the registry holds exactly what the
   legacy stats records count, each request's counts added when it
   ends. *)
let test_registry_reconciles_with_legacy_views () =
  let obs, card, _, served = traced_pool_run () in
  let served =
    List.map
      (function
        | Ok s -> s
        | Error e -> Alcotest.failf "request failed: %a" Proxy.pp_error e)
      served
  in
  let cv = Obs.Metrics.counter_value obs.Obs.metrics in
  let sum f = List.fold_left (fun a s -> a + f s) 0 served in
  Alcotest.(check int) "command frames"
    (sum (fun s -> s.Proxy.Pool.command_frames))
    (cv "pool.command_frames");
  Alcotest.(check int) "response frames"
    (sum (fun s -> s.Proxy.Pool.response_frames))
    (cv "pool.response_frames");
  Alcotest.(check int) "wire bytes"
    (sum (fun s -> s.Proxy.Pool.wire_bytes))
    (cv "pool.wire_bytes");
  Alcotest.(check int) "retries"
    (sum (fun s -> s.Proxy.Pool.retries))
    (cv "pool.retries");
  (* The host counted exactly the frames the pool sent. *)
  Alcotest.(check int) "apdu commands = pool command frames"
    (cv "pool.command_frames") (cv "apdu.commands");
  let cs = Card.cache_stats card in
  Alcotest.(check int) "cache hits" cs.Card.hits (cv "card.cache.hits");
  Alcotest.(check int) "cache misses" cs.Card.misses (cv "card.cache.misses");
  Alcotest.(check int) "cache evictions" cs.Card.evictions
    (cv "card.cache.evictions");
  Alcotest.(check int) "one evaluation per request" (List.length served)
    (cv "card.evaluations");
  (* The engine identity from the stats doc holds on the registry too. *)
  Alcotest.(check int) "events = delivered + suppressed + filtered"
    (cv "engine.events")
    (cv "engine.delivered" + cv "engine.suppressed" + cv "engine.filtered")

let test_engine_cells_are_the_stats () =
  let obs = Obs.create ~tracing:false () in
  let doc = Generator.hospital (Rng.create 5L) ~patients:4 in
  let rules =
    [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]
  in
  let encoded =
    Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc
  in
  let res = Indexed_engine.run ~obs rules encoded in
  let st = res.Indexed_engine.engine_stats in
  let cv = Obs.Metrics.counter_value obs.Obs.metrics in
  Alcotest.(check int) "events" st.Sdds_core.Engine.events (cv "engine.events");
  Alcotest.(check int) "emitted" st.Sdds_core.Engine.emitted
    (cv "engine.emitted");
  Alcotest.(check int) "token visits" st.Sdds_core.Engine.token_visits
    (cv "engine.token_visits");
  (match List.assoc_opt "engine.live_tokens" (Obs.Metrics.snapshot obs.Obs.metrics) with
  | Some (Obs.Metrics.Gauge_v { peak; _ }) ->
      Alcotest.(check int) "peak tokens is the gauge peak"
        st.Sdds_core.Engine.peak_tokens peak
  | _ -> Alcotest.fail "engine.live_tokens missing");
  Alcotest.(check int) "pruned subtrees" res.Indexed_engine.skipped_subtrees
    (cv "skip.pruned_subtrees");
  Alcotest.(check int) "pruned bytes" res.Indexed_engine.skipped_bytes
    (cv "skip.pruned_bytes")

(* Two evaluations finish on one scope, the bigger first: each engine.*
   gauge is set to an evaluation's peak when it finishes, so its value
   reads the last one's peak and its peak the larger. *)
let test_request_gauges_keep_peaks () =
  let obs = Obs.create ~tracing:false () in
  let rules =
    [ Rule.allow ~subject:"u" "//*[name]"; Rule.deny ~subject:"u" "//ssn" ]
  in
  let finish doc =
    let t = Engine.create ~obs rules in
    List.iter (fun ev -> ignore (Engine.feed t ev)) (Dom.to_events doc);
    Engine.finish t;
    Engine.stats t
  in
  let big = finish (Generator.hospital (Rng.create 5L) ~patients:4) in
  let small =
    finish
      (Dom.element "hospital"
         [ Dom.element "patient" [ Dom.element "name" [ Dom.text "x" ] ] ])
  in
  let gv = Obs.Metrics.gauge_value obs.Obs.metrics in
  Alcotest.(check (pair int int)) "live tokens"
    (small.Engine.peak_tokens, big.Engine.peak_tokens)
    (gv "engine.live_tokens");
  Alcotest.(check (pair int int)) "state words"
    (small.Engine.peak_state_words, big.Engine.peak_state_words)
    (gv "engine.state_words");
  Alcotest.(check (pair int int)) "pinned live tokens" (11, 23)
    (gv "engine.live_tokens");
  Alcotest.(check (pair int int)) "pinned state words" (64, 136)
    (gv "engine.state_words");
  (* Every element anchors one [*[name]] instance, so both levels follow
     the documents' depths: 3 for the small one, 7 for the hospital. *)
  Alcotest.(check (pair int int)) "frame depth" (3, 7) (gv "engine.frame_depth");
  Alcotest.(check (pair int int)) "pending instances" (3, 7)
    (gv "engine.pending_instances");
  Alcotest.(check int) "counters add" (big.Engine.events + small.Engine.events)
    (Obs.Metrics.counter_value obs.Obs.metrics "engine.events")

(* One long-lived scope over a fleet-profile card, its host and a pool:
   the registry holds one cell per name, so it is no bigger after 1,000
   requests than after 100. *)
let test_registry_flat_in_requests () =
  let drbg = Drbg.create ~seed:"obs-flat" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let w =
    World.create drbg ~publisher ~user
      (World.wards ~doc_id:(Printf.sprintf "doc%d") ~seed:(( + ) 101) 2)
  in
  let obs = Obs.create ~tracing:false () in
  let card = Card.create ~obs ~profile:Cost.fleet ~subject:"u" (World.user w) in
  let host = Remote.Host.create ~obs ~card ~resolve:(World.resolve w) () in
  let pool =
    Proxy.Pool.create ~obs ~store:(World.store w)
      ~transport:(Remote.Host.process host) ~subject:"u" ()
  in
  let serve_until n =
    for i = Obs.Metrics.counter_value obs.Obs.metrics "pool.requests" to n - 1 do
      match
        Proxy.Pool.serve pool
          [ Proxy.Request.make (Printf.sprintf "doc%d" (i mod 2)) ]
      with
      | [ Ok _ ] -> ()
      | _ -> Alcotest.failf "request %d failed" i
    done;
    Obj.reachable_words (Obj.repr obs.Obs.metrics)
  in
  let at_100 = serve_until 100 in
  let at_1000 = serve_until 1000 in
  Alcotest.(check int) "requests served" 1000
    (Obs.Metrics.counter_value obs.Obs.metrics "pool.requests");
  Alcotest.(check int) "registry words at 1,000 = at 100" at_100 at_1000

(* Fault/span correlation: an injected fault lands on the request span
   that was active, and that span is a recorded proxy.request root. *)
let test_fault_correlates_with_request_span () =
  let obs, _, link, served =
    traced_pool_run
      ~schedule:
        (Fault.Schedule.of_events
           [ { Fault.frame = 9; kind = Fault.Drop_response } ])
      ()
  in
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "request failed: %a" Proxy.pp_error e)
    served;
  (match Fault.Link.traced link with
  | [ { Fault.Link.event = { frame = 9; _ }; span } ] ->
      Alcotest.(check bool) "fault carries a real span id" true (span > 0);
      let jsonl = Obs.Tracer.to_jsonl obs.Obs.tracer in
      Alcotest.(check bool) "the span is a recorded request root" true
        (contains jsonl
           (Printf.sprintf "\"id\":%d,\"parent\":0,\"name\":\"proxy.request\""
              span));
      Alcotest.(check bool) "the fault instant is on that span" true
        (contains jsonl
           (Printf.sprintf
              "\"parent\":%d,\"name\":\"fault\",\"ts_ns\":" span))
  | l -> Alcotest.failf "expected exactly the scheduled fault, got %d" (List.length l));
  Alcotest.(check int) "fault.injected counted" 1
    (Obs.Metrics.counter_value obs.Obs.metrics "fault.injected")

let suite =
  [
    Alcotest.test_case "counter, gauge, histogram cells" `Quick
      test_counter_gauge_histogram;
    Alcotest.test_case "registry keeps one cell per name" `Quick
      test_registry_one_cell_per_name;
    Alcotest.test_case "prometheus and json exporters" `Quick test_exporters;
    Alcotest.test_case "disabled tracer is inert" `Quick
      test_disabled_tracer_is_inert;
    Alcotest.test_case "nesting and both export formats" `Quick
      test_nesting_and_exports;
    Alcotest.test_case "ring buffer is bounded" `Quick test_ring_is_bounded;
    Alcotest.test_case "tail policy names its retention reasons" `Quick
      test_tail_policy_reasons;
    Alcotest.test_case "tail baseline keeps 1-in-N whole trees" `Quick
      test_tail_baseline_and_children;
    Alcotest.test_case "sampling accounting in meta line and metadata" `Quick
      test_tail_meta_and_eviction;
    QCheck_alcotest.to_alcotest qcheck_tail_policy_sound;
    Alcotest.test_case "exemplars aggregate and export" `Quick
      test_exemplars_and_snapshot;
    Alcotest.test_case "exemplars pin their trace against tail drops" `Quick
      test_exemplar_pins_trace;
    Alcotest.test_case "slo burn rates page and settle" `Quick
      test_slo_burn_rates;
    Alcotest.test_case "slo latency objective reads the histogram" `Quick
      test_slo_latency_objective;
    QCheck_alcotest.to_alcotest qcheck_zero_overhead;
    Alcotest.test_case "fixed clock + fault seed: identical exports" `Quick
      test_deterministic_trace;
    Alcotest.test_case "tail mode: identical exports" `Quick
      test_deterministic_tail_trace;
    Alcotest.test_case "registry reconciles with legacy stats views" `Quick
      test_registry_reconciles_with_legacy_views;
    Alcotest.test_case "engine cells are the stats record" `Quick
      test_engine_cells_are_the_stats;
    Alcotest.test_case "request gauges keep each request's peak" `Quick
      test_request_gauges_keep_peaks;
    Alcotest.test_case "registry size is flat in requests served" `Quick
      test_registry_flat_in_requests;
    Alcotest.test_case "faults correlate with request spans" `Quick
      test_fault_correlates_with_request_span;
  ]
