(* End-to-end smokes of the built sdds binary: each test runs one CLI
   command with fixed seeds, as a user would, and checks the claims its
   JSON output must uphold. The unit-level versions of these properties
   live in the library suites; these pin the wiring between them. *)

module Json = Sdds_analysis.Json

let sdds = "../bin/sdds_cli.exe"
let clinical = "../examples/policies/clinical.xml"
let read path = In_channel.with_open_bin path In_channel.input_all

(* Run sdds with [args]; fail the test unless it exits 0. Returns
   stdout. *)
let sdds_ok args =
  let out = Filename.temp_file "sdds-cli" ".out" in
  let err = Filename.temp_file "sdds-cli" ".err" in
  let code =
    Sys.command (Filename.quote_command sdds ~stdout:out ~stderr:err args)
  in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  if code <> 0 then
    Alcotest.failf "sdds %s exited %d\n%s%s" (String.concat " " args) code
      stdout stderr;
  stdout

let json s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "output is not JSON (%s): %s" e s

(* Field [k] of [j] as a number; a missing field fails the test. *)
let num k j =
  match Option.bind (Json.member k j) Json.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "no numeric %S in %s" k (Json.to_string j)

let list k j =
  match Option.bind (Json.member k j) Json.to_list_opt with
  | Some l -> l
  | None -> Alcotest.failf "no list %S in %s" k (Json.to_string j)

let expect j claims =
  List.iter
    (fun (claim, holds) ->
      if not holds then
        Alcotest.failf "%s: fails on %s" claim (Json.to_string j))
    claims

let with_temp_dir f =
  let dir = Filename.temp_dir "sdds-cli" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () -> f dir)

(* The multi-card scheduler serves every stream (no typed errors, no
   admission rejections at this size), and affinity routing lands
   repeat (doc, rules) keys on their ring card. *)
let test_fleet () =
  let r =
    json
      (sdds_ok
         [ "fleet"; "--cards"; "2"; "--streams"; "16"; "--seed"; "7"; "--json" ])
  in
  expect r
    [ ("all 16 streams served", num "ok" r = 16.0);
      ( "no errors or rejections",
        num "errors" r = 0.0 && num "rejected" r = 0.0 );
      ("affinity hits", num "affinity_hits" r > 0.0);
      ( "p99 >= p50 > 0",
        num "p50_ms" r > 0.0 && num "p99_ms" r >= num "p50_ms" r ) ]

(* 500 requests over 3 cards with 5% frame faults, 2 kills, 1 revive and
   1 resize (seed 42 generates exactly that mix): zero divergences from
   the golden single-card views, zero convergence failures, and the
   kills land on busy cards, so sessions migrate. A non-zero exit
   prints a minimized replayable campaign: that is the bug report. *)
let test_chaos_soak () =
  let r =
    json
      (sdds_ok
         [ "chaos"; "--seed"; "42"; "--cards"; "3"; "--requests"; "500";
           "--rate"; "0.05"; "--kills"; "2"; "--revives"; "1"; "--resizes";
           "1"; "--json" ])
  in
  expect r
    [ ( "no divergence, every card converges",
        num "divergences" r = 0.0 && num "convergence_failures" r = 0.0 );
      ("no typed errors", num "errors" r = 0.0);
      ( "two kills, at least one death",
        num "kills" r >= 2.0 && num "deaths" r >= 1.0 );
      ("sessions migrate", num "migrations" r >= 1.0);
      ( "a revive and an added card",
        num "revives" r >= 1.0 && num "cards_added" r >= 1.0 );
      ("faults were injected", num "faults_injected" r > 0.0) ]

(* The fleet-differential qcheck used to flake when a card tear raced
   MANAGE CHANNEL: the pool reused a pre-tear channel number the card
   had already forgotten. The minimized reproduction is a single-card
   fleet with one mid-stream tear and no other faults; it must serve
   every request to the golden view. *)
let test_tear_replay () =
  let r =
    json
      (sdds_ok
         [ "chaos"; "--seed"; "11"; "--cards"; "1"; "--requests"; "40";
           "--rate"; "0"; "--campaign"; "@13:tear:0"; "--json" ])
  in
  expect r
    [ ("no divergence", num "divergences" r = 0.0);
      ("no typed errors", num "errors" r = 0.0) ]

(* The three-phase incident drill: steady stays clean, the churn phase
   (kill + frame faults) trips the multi-window burn-rate page, and the
   recovered phase is clean with every final verdict healthy, because
   the fast window drains after the incident. *)
let test_slo () =
  let phases =
    List.map json
      (List.filter (( <> ) "")
         (String.split_on_char '\n' (sdds_ok [ "slo"; "--json" ])))
  in
  let phase name =
    match
      List.find_opt
        (fun p ->
          Option.bind (Json.member "phase" p) Json.to_string_opt = Some name)
        phases
    with
    | Some p -> p
    | None -> Alcotest.failf "no %s phase in the slo output" name
  in
  let steady = phase "steady"
  and churn = phase "churn"
  and recovered = phase "recovered" in
  Alcotest.(check int) "exactly three phases" 3 (List.length phases);
  List.iter (fun p -> expect p [ ("no errors", num "errors" p = 0.0) ]) phases;
  expect steady [ ("steady never breaches", num "breach_ticks" steady = 0.0) ];
  expect churn
    [ ( "churn pages",
        num "breach_ticks" churn > 0.0
        && Json.member "breached" churn = Some (Json.Bool true) ) ];
  expect recovered
    [ ("recovered never breaches", num "breach_ticks" recovered = 0.0);
      ( "every recovered verdict is healthy",
        List.for_all
          (fun v -> Json.member "breach" v = Some (Json.Bool false))
          (list "verdicts" recovered) ) ]

(* Three subscribers, two with byte-identical policies: the gateway
   clusters them, runs strictly fewer evaluations than the
   per-subscriber baseline, and still delivers a view to everyone. *)
let test_disseminate () =
  with_temp_dir (fun dir ->
      let rules = Filename.concat dir "rules.txt" in
      Out_channel.with_open_bin rules (fun oc ->
          output_string oc
            "+, alice, //patient\n\
             -, alice, //ssn\n\
             +, bob, //patient\n\
             -, bob, //ssn\n\
             +, carol, //department\n");
      let r =
        json
          (sdds_ok
             [ "disseminate"; clinical; "--rules-file"; rules; "--json" ])
      in
      let delivered = list "delivered" r in
      expect r
        [ ( "3 subscribers in 2 clusters",
            num "subscribers" r = 3.0 && num "clusters" r = 2.0 );
          ( "sharing saves evaluations",
            num "evaluations" r < num "naive_evaluations" r );
          ( "every subscriber gets a view",
            List.length delivered = 3
            && List.for_all (fun s -> Json.member "error" s = None) delivered
          ) ])

(* A traced query over a faulty link still produces the golden view,
   and both exports are well formed: a Chrome trace with a
   proxy.request root span and apdu spans, and a metrics snapshot whose
   engine counters reconcile. *)
let test_trace_export () =
  with_temp_dir (fun dir ->
      let path f = Filename.concat dir f in
      ignore (sdds_ok [ "keygen"; "-o"; path "pub" ]);
      ignore (sdds_ok [ "keygen"; "-o"; path "alice" ]);
      ignore
        (sdds_ok
           [ "publish"; clinical; "--store"; path "store"; "--id"; "clinical";
             "--publisher"; path "pub.sk"; "--rule"; "+, alice, //patient";
             "--rule=-, alice, //ssn"; "--grant"; "alice=" ^ path "alice.pk" ]);
      let query extra =
        sdds_ok
          ([ "query"; "--store"; path "store"; "--id"; "clinical"; "-s";
             "alice";
             "--key"; path "alice.sk" ]
          @ extra)
      in
      let golden = query [] in
      let traced =
        query
          [ "--fault-spec"; "seed=7,rate=0.2"; "--trace-out"; path "trace.json";
            "--metrics-out"; path "metrics.json" ]
      in
      Alcotest.(check string) "tracing leaves the view unchanged" golden traced;
      let trace = json (read (path "trace.json")) in
      let events = list "traceEvents" trace in
      let str k e = Option.bind (Json.member k e) Json.to_string_opt in
      let parent e = Option.bind (Json.member "args" e) (str "parent") in
      expect trace
        [ ( "a proxy.request root span",
            List.exists
              (fun e ->
                str "ph" e = Some "X"
                && str "name" e = Some "proxy.request"
                && parent e = Some "0")
              events );
          ( "apdu spans",
            List.exists (fun e -> str "name" e = Some "apdu") events ) ];
      let metrics = json (read (path "metrics.json")) in
      let counters =
        match Json.member "counters" metrics with
        | Some c -> c
        | None -> Alcotest.failf "no counters in %s" (Json.to_string metrics)
      in
      let c k = num k counters in
      (* Dropped commands never reach the host, so under injection the
         host sees at most the frames the pool sent. *)
      expect counters
        [ ( "events = delivered + suppressed + filtered",
            c "engine.events"
            = c "engine.delivered" +. c "engine.suppressed"
              +. c "engine.filtered" );
          ( "frames reached the card",
            c "pool.command_frames" >= 1.0 && c "apdu.commands" >= 1.0 ) ])

let () =
  Alcotest.run "sdds-cli"
    [
      ( "cli",
        [
          Alcotest.test_case "fleet smoke" `Quick test_fleet;
          Alcotest.test_case "chaos soak" `Slow test_chaos_soak;
          Alcotest.test_case "tear replay" `Quick test_tear_replay;
          Alcotest.test_case "slo drill" `Quick test_slo;
          Alcotest.test_case "disseminate smoke" `Quick test_disseminate;
          Alcotest.test_case "trace export" `Quick test_trace_export;
        ] );
    ]
