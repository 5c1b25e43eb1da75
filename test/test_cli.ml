(* End-to-end smokes of the built sdds binary: each test runs one CLI
   command with fixed seeds, as a user would, and checks the claims its
   JSON output must uphold. The unit-level versions of these properties
   live in the library suites; these pin the wiring between them. *)

module Json = Sdds_analysis.Json

let sdds = "../bin/sdds_cli.exe"
let secure_terminal = "../examples/secure_terminal.exe"
let clinical = "../examples/policies/clinical.xml"
let clinical_schema = "../examples/policies/clinical.schema"
let example name = "../examples/" ^ name ^ ".exe"
let read path = In_channel.with_open_bin path In_channel.input_all

(* Run [exe] with [args]: its exit code, stdout and stderr. *)
let run exe args =
  let out = Filename.temp_file "sdds-cli" ".out" in
  let err = Filename.temp_file "sdds-cli" ".err" in
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* Run [exe] with [args]; fail the test unless it exits 0. Returns
   stdout. *)
let run_ok exe args =
  let code, stdout, stderr = run exe args in
  if code <> 0 then
    Alcotest.failf "%s %s exited %d\n%s%s" exe (String.concat " " args) code
      stdout stderr;
  stdout

let sdds_ok = run_ok sdds

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

(* [f rules], where [rules] is a rules file for three subscribers, two
   of them with byte-identical policies. *)
let with_rules_file f =
  with_temp_dir (fun dir ->
      let rules = Filename.concat dir "rules.txt" in
      Out_channel.with_open_bin rules (fun oc ->
          output_string oc
            "+, alice, //patient\n\
             -, alice, //ssn\n\
             +, bob, //patient\n\
             -, bob, //ssn\n\
             +, carol, //department\n");
      f rules)

let disseminate rules extra =
  sdds_ok ([ "disseminate"; clinical; "--rules-file"; rules ] @ extra)

(* The gateway clusters the two identical policies, runs strictly fewer
   evaluations than the per-subscriber baseline, and still delivers a
   view to everyone. *)
let test_disseminate () =
  with_rules_file (fun rules ->
      let r = json (disseminate rules [ "--json" ]) in
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

(* String fields are JSON strings: a subject outside ASCII reads back
   as itself, not as OCaml's decimal escapes. *)
let test_json_strings () =
  let r =
    json
      (sdds_ok
         [ "disseminate"; clinical; "-r"; "+, zo\xc3\xa9, //patient"; "-r";
           "+, bob, //name"; "--json" ])
  in
  Alcotest.(check (list string)) "subjects" [ "bob"; "zo\xc3\xa9" ]
    (List.filter_map
       (fun s -> Option.bind (Json.member "subject" s) Json.to_string_opt)
       (list "delivered" r))

(* [f ~path ~view ~query] in a directory holding alice's keys and a
   store of the clinical document under [+//patient -//ssn]: [path]
   names a file there, [view] and [query] are the arguments of [sdds
   view] on the plaintext and of [sdds query] on the store. *)
let with_alice_store f =
  with_temp_dir (fun dir ->
      let path f = Filename.concat dir f in
      let rules =
        [ "--rule"; "+, alice, //patient"; "--rule=-, alice, //ssn" ]
      in
      ignore (sdds_ok [ "keygen"; "-o"; path "pub" ]);
      ignore (sdds_ok [ "keygen"; "-o"; path "alice" ]);
      ignore
        (sdds_ok
           ([ "publish"; clinical; "--store"; path "store"; "--id";
              "clinical"; "--publisher"; path "pub.sk"; "--grant";
              "alice=" ^ path "alice.pk" ]
           @ rules));
      f ~path
        ~view:([ "view"; clinical; "-s"; "alice" ] @ rules)
        ~query:
          [ "query"; "--store"; path "store"; "--id"; "clinical"; "-s";
            "alice"; "--key"; path "alice.sk" ])

(* The golden view comes from [sdds view] on the plaintext: the engine
   over the DOM, with no card, crypto or link. The plain query prints it
   byte for byte, with and without a user query; a traced query over a
   faulty link still prints it, and both exports are well formed: a
   Chrome trace with a proxy.request root span and apdu spans, and a
   metrics snapshot whose engine counters reconcile. *)
let test_trace_export () =
  with_alice_store (fun ~path ~view ~query ->
      let view extra = sdds_ok (view @ extra) in
      let query extra = sdds_ok (query @ extra) in
      List.iter
        (fun q ->
          Alcotest.(check string)
            ("query = view " ^ String.concat " " q)
            (view q) (query q))
        [ []; [ "-q"; "//patient/name" ] ];
      let golden = view [] in
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

(* A malformed --query is the user's error, not the program's: one
   [sdds:] line and exit 1, as a malformed --rule gets. *)
let test_bad_query () =
  with_alice_store (fun ~path:_ ~view ~query ->
      List.iter
        (fun (name, args) ->
          let code, _, stderr = run sdds (args @ [ "-q"; "//[" ]) in
          Alcotest.(check int) (name ^ ": exit") 1 code;
          match String.split_on_char '\n' (String.trim stderr) with
          | [ line ] when String.starts_with ~prefix:"sdds: bad --query: " line
            ->
              ()
          | _ -> Alcotest.failf "%s: want one sdds: line, got\n%s" name stderr)
        [ ("view", view); ("query", query);
          ("query --fault-spec none", query @ [ "--fault-spec"; "none" ]) ])

(* Every front door refuses in one order, the rules before the grant:
   a subject with neither reads "no access rules", one published with a
   rule but no grant reads "no key grant", through the pool and through
   a fleet alike. *)
let test_refusals () =
  with_temp_dir (fun dir ->
      let path f = Filename.concat dir f in
      List.iter
        (fun k -> ignore (sdds_ok [ "keygen"; "-o"; path k ]))
        [ "pub"; "alice"; "carol" ];
      ignore
        (sdds_ok
           [ "publish"; clinical; "--store"; path "store"; "--id";
             "clinical"; "--publisher"; path "pub.sk"; "--grant";
             "alice=" ^ path "alice.pk"; "--rule"; "+, alice, //patient";
             "--rule"; "+, carol, //patient" ]);
      List.iter
        (fun (subject, key, extra, want) ->
          let args =
            [ "query"; "--store"; path "store"; "--id"; "clinical"; "-s";
              subject; "--key"; path key ]
            @ extra
          in
          let name = String.concat " " ("query -s" :: subject :: extra) in
          let code, stdout, stderr = run sdds args in
          Alcotest.(check int) (name ^ ": exit") 1 code;
          Alcotest.(check string) (name ^ ": no view") "" stdout;
          Alcotest.(check string) (name ^ ": error line") want
            (List.hd (String.split_on_char '\n' stderr)))
        [ ("bob", "alice.sk", [], "sdds: no access rules for this subject");
          ("carol", "carol.sk", [], "sdds: no key grant for this subject");
          ( "carol", "carol.sk", [ "--cards"; "2" ],
            "sdds: no key grant for this subject" ) ])

(* Byte-parity pins. These commands are deterministic for their default
   seeds, so their exact output is pinned: a refactor that changes a
   single byte of it changes behaviour, and must say so by updating the
   pin. The secure-terminal example's APDU trace pins the frames one
   request puts on the wire; [disseminate] pins each subscriber's view
   size and wire bytes. *)
let test_stdout_pins () =
  Alcotest.(check string) "examples/secure_terminal.exe"
    {|== APDU trace (terminal -> card -> terminal) ==
#01  > SELECT  p1=0 p2=  0 |   4B data
     <          SW 9000 |   0B payload
#02  > GRANT   p1=0 p2=  0 |  64B data
     <          SW 9000 |   0B payload
#03  > RULES   p1=0 p2=  0 | 160B data
     <          SW 9000 |   0B payload
#04  > QUERY   p1=0 p2=  0 |  14B data
     <          SW 9000 |   0B payload
#05  > EVAL    p1=0 p2=  0 |   0B data
     <          SW 9000 | 226B payload

5 command frames, 5 response frames, 503 bytes on the wire

== Reassembled view ==
<hospital>
  <department>
    <patient>
      <name>jules durand</name>
    </patient>
  </department>
  <department>
    <patient>
      <name>alice richard</name>
    </patient>
  </department>
  <department>
    <patient>
      <name>oscar lefebvre</name>
    </patient>
  </department>
</hospital>
|}
    (run_ok secure_terminal []);
  List.iter
    (fun (args, want) ->
      Alcotest.(check string) ("sdds " ^ String.concat " " args) want
        (sdds_ok args))
    [ ( [ "fleet"; "--json" ],
        {|{"cards":4,"streams":64,"docs":8,"routing":"affinity","seed":42,"ok":64,"errors":0,"rejected":0,"affinity_hits":64,"fallbacks":0,"reroutes":0,"queue_peak":46,"served_by":[46,18,0,0],"faults_injected":0,"p50_ms":16.820,"p95_ms":31.364,"p99_ms":31.489}
|} );
      ( [ "chaos"; "--json"; "--requests"; "120" ],
        {|{"cards":3,"requests":120,"seed":42,"ok":120,"errors":0,"rejected":0,"divergences":0,"convergence_failures":0,"faults_injected":42,"kills":2,"migrations":14,"deaths":2,"revives":1,"drains":0,"cards_added":1,"standby_hits":17,"probes":6,"campaign":"@24:kill:2,@30:kill:1,@54:add,@56:revive:2","schedule":"seed=1302,rate=0.05"}
|} );
      ( [ "slo"; "--json" ],
        {|{"phase":"steady","requests":48,"ok":48,"rejected":0,"errors":0,"ticks":16,"breach_ticks":0,"breached":false,"now_ns":34753999,"peak_burns":[{"name":"availability","peak_fast_burn":0.000},{"name":"latency","peak_fast_burn":0.000}],"verdicts":[{"name":"availability","target_pct":99.000,"current_pct":100.000,"fast_burn":0.000,"slow_burn":0.000,"burn_threshold":1.000,"good":48,"total":48,"breach":false},{"name":"latency","target_pct":95.000,"current_pct":100.000,"fast_burn":0.000,"slow_burn":0.000,"burn_threshold":1.000,"good":48,"total":48,"breach":false}]}
{"phase":"churn","requests":48,"ok":48,"rejected":0,"errors":0,"ticks":16,"breach_ticks":8,"breached":true,"now_ns":51784999,"peak_burns":[{"name":"availability","peak_fast_burn":0.000},{"name":"latency","peak_fast_burn":13.333}],"verdicts":[{"name":"availability","target_pct":99.000,"current_pct":100.000,"fast_burn":0.000,"slow_burn":0.000,"burn_threshold":1.000,"good":96,"total":96,"breach":false},{"name":"latency","target_pct":95.000,"current_pct":83.333,"fast_burn":0.000,"slow_burn":3.333,"burn_threshold":1.000,"good":89,"total":96,"breach":false}]}
{"phase":"recovered","requests":48,"ok":48,"rejected":0,"errors":0,"ticks":16,"breach_ticks":0,"breached":false,"now_ns":72293999,"peak_burns":[{"name":"availability","peak_fast_burn":0.000},{"name":"latency","peak_fast_burn":0.000}],"verdicts":[{"name":"availability","target_pct":99.000,"current_pct":100.000,"fast_burn":0.000,"slow_burn":0.000,"burn_threshold":1.000,"good":144,"total":144,"breach":false},{"name":"latency","target_pct":95.000,"current_pct":100.000,"fast_burn":0.000,"slow_burn":0.000,"burn_threshold":1.000,"good":137,"total":144,"breach":false}]}
|} );
      ( [ "demo"; clinical; "--rule"; "+, u, //patient"; "--rule=-, u, //ssn";
          "--subject"; "u" ],
        {|<folder>
  <patient>
    <name>Durand</name>
    <age>61</age>
    <diagnosis>
      <symptom>cough</symptom>
      <note>mild</note>
    </diagnosis>
    <prescription>
      <drug>aspirin</drug>
      <dose>2</dose>
    </prescription>
  </patient>
</folder>
|} ) ];
  with_rules_file (fun rules ->
      Alcotest.(check string) "sdds disseminate --json"
        {|{"subscribers":3,"clusters":2,"mux_clusters":2,"solo_clusters":0,"evaluations":1,"naive_evaluations":3,"saved":2,"fanout":3.000,"delivered":[{"subject":"alice","elements":10,"wire_bytes":127},{"subject":"bob","elements":10,"wire_bytes":127},{"subject":"carol","elements":0,"wire_bytes":90}]}
|}
        (disseminate rules [ "--json" ]);
      Alcotest.(check string) "sdds disseminate (MD5)"
        "958fd337f3c68ff940af9b453992e1c2"
        (Digest.to_hex (Digest.string (disseminate rules []))))

(* The examples that print authorized views: each is deterministic, so
   its stdout is pinned by digest, and it writes nothing to stderr. *)
let test_example_pins () =
  List.iter
    (fun (name, want) ->
      let code, stdout, stderr = run (example name) [] in
      if code <> 0 || stderr <> "" then
        Alcotest.failf "examples/%s.exe exited %d\n%s" name code stderr;
      Alcotest.(check string) ("examples/" ^ name ^ ".exe (MD5)") want
        (Digest.to_hex (Digest.string stdout)))
    [ ("quickstart", "6324e7aee3601cb5d6740ca5dfa9d561");
      ("collaborative", "a71a0778002aecf457ad80339ba0845d");
      ("dissemination", "d3ebb1f0376deff7288cf0cf1c636d57");
      ("parental_control", "87a390e266784a62b443fac3cebdcf29") ]

(* The analyzer's bound against what the e-gate card charges, for one
   document and rule set: the analyzer's exit code and [bound_bytes]
   ([analyze_args] add the schema, document and depth), and the card's
   exit code and charge in [sdds demo]'s stderr (its figure when it
   serves, its need when it refuses). *)
let bound_and_charge ~analyze_args ~doc ~subject rules =
  let int_after marker s =
    let n = String.length marker in
    let rec find i =
      if i + n > String.length s then Alcotest.failf "no %S in %S" marker s
      else if String.sub s i n = marker then
        Scanf.sscanf (String.sub s (i + n) (String.length s - i - n)) "%d"
          Fun.id
      else find (i + 1)
    in
    find 0
  in
  let a_code, a_out, _ =
    run sdds
      ([ "analyze" ] @ rules @ analyze_args @ [ "--profile"; "egate"; "--json" ])
  in
  let bound =
    match Json.member "bound" (json a_out) with
    | Some b -> int_of_float (num "bound_bytes" b)
    | None -> Alcotest.failf "no bound in %s" a_out
  in
  let c_code, _, c_err =
    run sdds ([ "demo"; doc ] @ rules @ [ "--subject"; subject ])
  in
  let charge = int_after (if c_code = 0 then "RAM " else "need ") c_err in
  (a_code, bound, c_code, charge)

(* The bound covers what the card charges, output tag table included, so
   a policy the analyzer admits is served. On the clinical example the
   card charges 536 B and the bound at the schema's depth is 544 B. *)
let test_bound_covers_clinical () =
  let a_code, bound, c_code, charge =
    bound_and_charge
      ~analyze_args:[ "--schema"; clinical_schema; "--doc"; clinical ]
      ~doc:clinical ~subject:"alice"
      [ "-r"; "+, alice, //patient"; "--rule=-, alice, //ssn" ]
  in
  Alcotest.(check int) "the card serves" 0 c_code;
  Alcotest.(check int) "the card's charge" 536 charge;
  Alcotest.(check int) "the bound" 544 bound;
  Alcotest.(check bool) "the bound covers the charge" true (bound >= charge);
  Alcotest.(check int) "the analyzer admits" 0 a_code

(* 300 distinct tags under one root: the tag table alone is 602 B. The
   e-gate card refuses at 1,080 B, and so does the analyzer, at 1,106 B
   (depth 2, the document's dictionary). *)
let test_bound_covers_wide () =
  with_temp_dir (fun dir ->
      let doc = Filename.concat dir "wide.xml" in
      Out_channel.with_open_bin doc (fun oc ->
          output_string oc "<root>";
          for i = 0 to 299 do
            Printf.fprintf oc "<t%d>x</t%d>" i i
          done;
          output_string oc "</root>");
      let a_code, bound, c_code, charge =
        bound_and_charge
          ~analyze_args:[ "--doc"; doc; "--depth"; "2" ]
          ~doc ~subject:"u" [ "-r"; "+, u, //root" ]
      in
      Alcotest.(check int) "the card refuses" 1 c_code;
      Alcotest.(check int) "the card's need" 1080 charge;
      Alcotest.(check int) "the bound" 1106 bound;
      Alcotest.(check bool) "the bound covers the charge" true
        (bound >= charge);
      Alcotest.(check int) "the analyzer refuses" 1 a_code)

(* The slo drill's trace and metrics exports run on a manual clock, so
   their bytes are pinned too, by digest. *)
let test_slo_export_pins () =
  with_temp_dir (fun dir ->
      let trace = Filename.concat dir "trace.json"
      and metrics = Filename.concat dir "metrics.json" in
      ignore
        (sdds_ok [ "slo"; "--trace-out"; trace; "--metrics-out"; metrics ]);
      let digest path = Digest.to_hex (Digest.file path) in
      Alcotest.(check string) "trace export" "8b109a8e9c6db2de734860812e6f5f4a"
        (digest trace);
      Alcotest.(check string) "metrics export"
        "38a539e641aa7eb986312582c9b207ce" (digest metrics))

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
          Alcotest.test_case "json strings" `Quick test_json_strings;
          Alcotest.test_case "trace export" `Quick test_trace_export;
          Alcotest.test_case "malformed query" `Quick test_bad_query;
          Alcotest.test_case "refusals read alike" `Quick test_refusals;
          Alcotest.test_case "stdout parity pins" `Quick test_stdout_pins;
          Alcotest.test_case "slo export pins" `Quick test_slo_export_pins;
          Alcotest.test_case "example stdout pins" `Quick test_example_pins;
          Alcotest.test_case "bound covers the charge: clinical" `Quick
            test_bound_covers_clinical;
          Alcotest.test_case "bound covers the charge: 300 tags" `Quick
            test_bound_covers_wide;
        ] );
    ]
