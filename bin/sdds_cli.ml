(* sdds — command-line front end.

   Subcommands:
     view         evaluate an access-control policy (and optional query)
                  over an XML file and print the authorized view
     encode       compact-encode a document (with skip index), report sizes
     stats        structural statistics of a document
     demo         run the full encrypted pull scenario in-process
     keygen       create an RSA identity (NAME.sk + NAME.pk)
     publish      encrypt a document into a store directory, with per-user
                  rules and key grants
     update-rules replace a subject's policy in a store (no re-encryption)
     query        evaluate against a store directory through a simulated
                  smart card
     trace        query with end-to-end tracing, exporting a Chrome
                  trace_event file and a metrics snapshot
     fleet        synthetic zipfian workload through a multi-card fleet
                  with affinity routing (E19 in miniature)
     disseminate  push one encrypted document to N subscribers through
                  the gateway card's clustered fan-out (shared rule
                  evaluation, per-subscriber views)
     analyze      static policy analysis: dead/shadowed rules, schema
                  unsatisfiability, allow/deny overlaps with witnesses,
                  and the static SOE memory bound
     check        bounded exhaustive model checking of the APDU session
                  protocol composed with the fault adversary; violations
                  emit minimized --fault-spec counterexamples

   Examples:
     sdds view doc.xml -r '+, alice, //patient' -r '-, alice, //ssn' -s alice
     sdds encode doc.xml
     sdds demo doc.xml -r '+, u, //patient' -s u -q '//name'
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_doc path =
  match Sdds_xml.Parser.dom_of_string (read_file path) with
  | doc -> Ok doc
  | exception Sdds_xml.Parser.Error (pos, msg) ->
      Error (Printf.sprintf "%s: parse error at byte %d: %s" path pos msg)
  | exception Sys_error msg -> Error msg

let parse_rules lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Sdds_core.Rule.parse line with
        | r -> go (r :: acc) rest
        | exception Invalid_argument msg -> Error (line ^ ": " ^ msg)
        | exception Sdds_xpath.Parser.Error (_, msg) -> Error (line ^ ": " ^ msg))
  in
  go [] lines

(* Common arguments *)

let doc_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml" ~doc:"XML document")

let rules_arg =
  Arg.(
    value & opt_all string []
    & info [ "r"; "rule" ] ~docv:"RULE"
        ~doc:"Access rule \"SIGN, SUBJECT, XPATH\" (repeatable), e.g. \"+, alice, //patient\"")

let subject_arg =
  Arg.(
    value & opt string "user"
    & info [ "s"; "subject" ] ~docv:"SUBJECT" ~doc:"Subject to evaluate for")

let query_arg =
  Arg.(
    value & opt (some string) None
    & info [ "q"; "query" ] ~docv:"XPATH" ~doc:"Query composed with the rules")

(* --json, defined once per help text. *)
let json_flag doc = Arg.(value & flag & info [ "json" ] ~doc)
let json_line_arg = json_flag "Single-line JSON output"
let json_machine_arg = json_flag "Machine-readable output"
let json_phases_arg = json_flag "One JSON object per phase, one per line"

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("sdds: " ^ msg);
      exit 1

let or_die_io r =
  or_die (Result.map_error Sdds_dsp.Store_io.string_of_error r)

(* The one reader of a --query value: the parsed path, or exit 1 with
   the parser's message. *)
let read_query =
  Option.map (fun q ->
      match Sdds_xpath.Parser.parse q with
      | path -> path
      | exception Sdds_xpath.Parser.Error (_, msg) ->
          or_die (Error (Printf.sprintf "bad --query: %s: %s" q msg)))

(* Observability plumbing shared by query / trace / analyze. *)

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record spans and metrics for this invocation (implied by \
           $(b,--trace-out)). Without an output flag the summary goes to \
           stderr.")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the span trace to FILE: Chrome trace_event JSON (open in \
           about:tracing or Perfetto), or JSONL when FILE ends in .jsonl.")

let metrics_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metrics snapshot to FILE: JSON, or Prometheus text \
           when FILE ends in .prom.")

let write_text path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let obs_scope ~trace ~trace_out ~metrics_out =
  if trace || Option.is_some trace_out || Option.is_some metrics_out then
    Some
      (Sdds_obs.Obs.create ~tracing:(trace || Option.is_some trace_out) ())
  else None

let obs_export obs ~trace_out ~metrics_out =
  match obs with
  | None -> ()
  | Some o ->
      let tr = o.Sdds_obs.Obs.tracer in
      if Sdds_obs.Obs.Tracer.enabled tr then
        Format.eprintf
          "trace: %d events, %d root spans, %d trees dropped, %d evicted@."
          (Sdds_obs.Obs.Tracer.recorded tr)
          (Sdds_obs.Obs.Tracer.root_spans tr)
          (Sdds_obs.Obs.Tracer.dropped_trees tr)
          (Sdds_obs.Obs.Tracer.evicted tr);
      let exemplars =
        List.fold_left
          (fun acc (_, v) ->
            match v with
            | Sdds_obs.Obs.Metrics.Histogram_v { exemplars; _ } ->
                acc + List.length exemplars
            | _ -> acc)
          0
          (Sdds_obs.Obs.Metrics.snapshot o.Sdds_obs.Obs.metrics)
      in
      if exemplars > 0 then
        Format.eprintf
          "metrics: %d histogram bucket exemplars (trace/span ids resolve \
           into the retained trace)@."
          exemplars;
      (match trace_out with
      | None -> ()
      | Some path ->
          write_text path
            (if Filename.check_suffix path ".jsonl" then
               Sdds_obs.Obs.Tracer.to_jsonl tr
             else Sdds_obs.Obs.Tracer.to_chrome tr);
          Format.eprintf "trace: wrote %s@." path);
      (match metrics_out with
      | None -> ()
      | Some path ->
          let m = o.Sdds_obs.Obs.metrics in
          write_text path
            (if Filename.check_suffix path ".prom" then
               Sdds_obs.Obs.Metrics.to_prometheus m
             else Sdds_obs.Obs.Metrics.to_json m);
          Format.eprintf "metrics: wrote %s@." path)

(* view *)

let view_cmd =
  let run doc_path rules subject query =
    let query = read_query query in
    let doc = or_die (load_doc doc_path) in
    let rules = or_die (parse_rules rules) in
    let rules = Sdds_core.Rule.for_subject subject rules in
    match Sdds_core.Sdds.authorized_view ?query ~rules doc with
    | Some view ->
        print_endline (Sdds_xml.Serializer.to_string ~indent:true view)
    | None -> print_endline "<!-- nothing authorized -->"
  in
  Cmd.v
    (Cmd.info "view" ~doc:"Print the authorized view of a document")
    Term.(const run $ doc_arg $ rules_arg $ subject_arg $ query_arg)

(* encode *)

let encode_cmd =
  let run doc_path =
    let doc = or_die (load_doc doc_path) in
    let xml_bytes = String.length (Sdds_xml.Serializer.to_string doc) in
    List.iter
      (fun (label, mode) ->
        let encoded = Sdds_index.Encode.encode ~mode doc in
        let s = Sdds_index.Reader.size_stats encoded in
        Printf.printf
          "%-18s %7dB total (%.0f%% of XML) | header %dB, index %dB, payload %dB\n"
          label s.Sdds_index.Reader.total_bytes
          (100.0 *. float_of_int s.Sdds_index.Reader.total_bytes /. float_of_int xml_bytes)
          s.Sdds_index.Reader.header_bytes s.Sdds_index.Reader.metadata_bytes
          s.Sdds_index.Reader.payload_bytes)
      [
        ("plain", Sdds_index.Encode.Plain);
        ("indexed", Sdds_index.Encode.Indexed { recursive = true });
        ("indexed (flat)", Sdds_index.Encode.Indexed { recursive = false });
      ]
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Compact-encode a document and report index sizes")
    Term.(const run $ doc_arg)

(* stats *)

let stats_cmd =
  let run doc_path =
    let doc = or_die (load_doc doc_path) in
    print_endline Sdds_xml.Stats.header;
    print_endline
      (Sdds_xml.Stats.row ~name:(Filename.basename doc_path)
         (Sdds_xml.Stats.compute doc))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Structural statistics of a document")
    Term.(const run $ doc_arg)

(* An in-memory world for the self-contained commands: the DRBG seeded
   with [label] draws the publisher key, the user key, then [docs]. *)
let seeded_world ?subject label docs =
  let drbg = Sdds_crypto.Drbg.create ~seed:label in
  let publisher = Sdds_crypto.Rsa.generate drbg ~bits:512 in
  let user = Sdds_crypto.Rsa.generate drbg ~bits:512 in
  Sdds_proxy.World.create drbg ~publisher ~user ?subject docs

(* demo: full encrypted pull in-process *)

let demo_cmd =
  let run doc_path rules subject query =
    ignore (read_query query);
    let doc = or_die (load_doc doc_path) in
    let rules = or_die (parse_rules rules) in
    let world = seeded_world ~subject "sdds-cli" [ ("cli-doc", doc, rules) ] in
    let card =
      Sdds_soe.Card.create ~profile:Sdds_soe.Cost.egate ~subject
        (Sdds_proxy.World.user world)
    in
    let proxy =
      Sdds_proxy.Proxy.create ~store:(Sdds_proxy.World.store world) ~card
    in
    match
      Sdds_proxy.Proxy.run proxy
        (Sdds_proxy.Proxy.Request.make ?xpath:query "cli-doc")
    with
    | Error e ->
        Format.eprintf "sdds: %a@." Sdds_proxy.Proxy.pp_error e;
        exit 1
    | Ok o ->
        (match o.Sdds_proxy.Proxy.xml with
        | Some xml -> print_endline xml
        | None -> print_endline "<!-- nothing authorized -->");
        let r = o.Sdds_proxy.Proxy.card_report in
        let b = r.Sdds_soe.Card.breakdown in
        Format.eprintf
          "card: %d/%d chunks, %.0f ms total (%.0f transfer, %.0f crypto, \
           %.0f cpu), RAM %dB/%dB@."
          r.Sdds_soe.Card.chunks_consumed r.Sdds_soe.Card.chunks_total
          b.Sdds_soe.Cost.total_ms b.Sdds_soe.Cost.transfer_ms
          b.Sdds_soe.Cost.crypto_ms b.Sdds_soe.Cost.cpu_ms
          r.Sdds_soe.Card.ram_peak_bytes
          (Sdds_soe.Card.profile card).Sdds_soe.Cost.ram_bytes
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Run the full encrypted pull scenario (publish, grant, query)")
    Term.(const run $ doc_arg $ rules_arg $ subject_arg $ query_arg)

(* persistent-store workflow *)

let store_arg =
  Arg.(
    required & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Store directory")

let id_arg =
  Arg.(
    value & opt string "doc"
    & info [ "id" ] ~docv:"ID" ~doc:"Document identifier within the store")

let entropy () =
  (* CLI key generation wants fresh keys per invocation. *)
  Sdds_crypto.Drbg.create
    ~seed:(Printf.sprintf "sdds-cli|%f|%d" (Unix.gettimeofday ()) (Unix.getpid ()))

let keygen_cmd =
  let run name =
    let drbg = entropy () in
    let kp = Sdds_crypto.Rsa.generate drbg ~bits:512 in
    or_die_io (Sdds_dsp.Store_io.Keyfile.save_keypair kp ~path:(name ^ ".sk"));
    or_die_io
      (Sdds_dsp.Store_io.Keyfile.save_public kp.Sdds_crypto.Rsa.public
         ~path:(name ^ ".pk"));
    Printf.printf "wrote %s.sk and %s.pk (fingerprint %s)
" name name
      (Sdds_crypto.Rsa.fingerprint kp.Sdds_crypto.Rsa.public)
  in
  let name_arg =
    Arg.(
      required & opt (some string) None
      & info [ "out"; "o" ] ~docv:"NAME" ~doc:"Basename for NAME.sk / NAME.pk")
  in
  Cmd.v
    (Cmd.info "keygen" ~doc:"Create an RSA identity")
    Term.(const run $ name_arg)

let grants_arg =
  Arg.(
    value & opt_all (pair ~sep:'=' string file) []
    & info [ "grant" ] ~docv:"SUBJECT=NAME.pk"
        ~doc:"Grant the document key to SUBJECT's public key (repeatable)")

let publisher_arg =
  Arg.(
    required & opt (some file) None
    & info [ "publisher" ] ~docv:"NAME.sk" ~doc:"Publisher's secret key file")

let publish_cmd =
  let run doc_path store_dir doc_id publisher_path rules grants =
    let doc = or_die (load_doc doc_path) in
    let rules = or_die (parse_rules rules) in
    let publisher =
      or_die_io (Sdds_dsp.Store_io.Keyfile.load_keypair ~path:publisher_path)
    in
    let drbg = entropy () in
    let published, doc_key =
      Sdds_dsp.Publish.publish drbg ~publisher ~doc_id doc
    in
    let store =
      if Sys.file_exists store_dir then
        or_die_io (Sdds_dsp.Store_io.load ~dir:store_dir)
      else Sdds_dsp.Store.create ()
    in
    Sdds_dsp.Store.put_document store published;
    (* A self-grant lets the publisher recover the key for rule updates. *)
    Sdds_dsp.Store.put_grant store ~doc_id ~subject:"#publisher"
      (Sdds_dsp.Publish.grant drbg ~doc_key ~doc_id
         ~recipient:publisher.Sdds_crypto.Rsa.public);
    let subjects =
      List.sort_uniq String.compare
        (List.map (fun r -> r.Sdds_core.Rule.subject) rules)
    in
    List.iter
      (fun subject ->
        Sdds_dsp.Store.put_rules store ~doc_id ~subject
          (Sdds_dsp.Publish.encrypt_rules_for drbg ~publisher ~doc_key
             ~doc_id ~subject
             (Sdds_core.Rule.for_subject subject rules)))
      subjects;
    List.iter
      (fun (subject, pk_path) ->
        let recipient =
          or_die_io (Sdds_dsp.Store_io.Keyfile.load_public ~path:pk_path)
        in
        Sdds_dsp.Store.put_grant store ~doc_id ~subject
          (Sdds_dsp.Publish.grant drbg ~doc_key ~doc_id ~recipient))
      grants;
    or_die_io (Sdds_dsp.Store_io.save store ~dir:store_dir);
    Printf.printf "published %s as %s: %d chunks, %d subjects, %d grants
"
      doc_path doc_id
      (Array.length published.Sdds_dsp.Publish.chunks)
      (List.length subjects) (List.length grants)
  in
  Cmd.v
    (Cmd.info "publish" ~doc:"Encrypt a document into a store directory")
    Term.(
      const run $ doc_arg $ store_arg $ id_arg $ publisher_arg $ rules_arg
      $ grants_arg)

let update_rules_cmd =
  let run store_dir doc_id publisher_path rules version =
    let publisher =
      or_die_io (Sdds_dsp.Store_io.Keyfile.load_keypair ~path:publisher_path)
    in
    let rules = or_die (parse_rules rules) in
    let store = or_die_io (Sdds_dsp.Store_io.load ~dir:store_dir) in
    let drbg = entropy () in
    let wrapped =
      match
        Sdds_dsp.Store.get_grant store ~doc_id ~subject:"#publisher"
      with
      | Some w -> w
      | None -> or_die (Error "no publisher self-grant in this store")
    in
    let doc_key =
      match
        Sdds_soe.Wire.unwrap_doc_key publisher.Sdds_crypto.Rsa.secret ~doc_id
          wrapped
      with
      | Some k -> k
      | None -> or_die (Error "publisher key does not open the self-grant")
    in
    let subjects =
      List.sort_uniq String.compare
        (List.map (fun r -> r.Sdds_core.Rule.subject) rules)
    in
    List.iter
      (fun subject ->
        Sdds_dsp.Store.put_rules store ~doc_id ~subject
          (Sdds_dsp.Publish.encrypt_rules_for drbg ~publisher ~doc_key
             ~doc_id ~subject ~version
             (Sdds_core.Rule.for_subject subject rules)))
      subjects;
    or_die_io (Sdds_dsp.Store_io.save store ~dir:store_dir);
    Printf.printf "updated rules (version %d) for: %s
" version
      (String.concat ", " subjects)
  in
  (* Not [--version]: Cmdliner reserves that for the program version
     (the group's [Cmd.info ~version] adds it to every subcommand, and
     a duplicate definition aborts at startup). *)
  let version_arg =
    Arg.(
      value & opt int 1
      & info [ "policy-version" ] ~docv:"N"
          ~doc:"Monotonic policy version (anti-rollback); bump on every update")
  in
  Cmd.v
    (Cmd.info "update-rules"
       ~doc:"Replace a subject's policy in a store (no re-encryption)")
    Term.(
      const run $ store_arg $ id_arg $ publisher_arg $ rules_arg $ version_arg)

let key_arg =
  Arg.(
    required & opt (some file) None
    & info [ "key" ] ~docv:"NAME.sk" ~doc:"The subject's secret key file")

let fault_arg =
  Arg.(
    value & opt (some string) None
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Serve through a fault-injecting APDU link. SPEC is 'none', a \
           comma list of \\@FRAME:KIND events, or seed=N,rate=F with an \
           optional kinds=a+b filter (kinds: drop-command, drop-response, \
           corrupt-command, corrupt-response, duplicate-command, \
           spurious-status, tear). Same seed, same faults - failures \
           replay deterministically.")

(* The one reader of a --fault-spec value: a bad spec exits 1. *)
let fault_schedule spec =
  match Sdds_fault.Fault.Schedule.of_spec spec with
  | Ok s -> s
  | Error e ->
      or_die
        (Error
           ("bad --fault-spec: "
           ^ Sdds_fault.Fault.Schedule.string_of_parse_error e))

let cards_arg =
  Arg.(
    value & opt int 1
    & info [ "cards" ] ~docv:"N"
        ~doc:
          "Serve through a fleet of N simulated cards behind the \
           affinity-routing scheduler instead of one card's channel pool \
           (with $(b,--fault-spec), each card suffers an independent \
           per-card derivation of the schedule).")

(* Shared body of [query] and [trace]. The request is served as the
   paper's terminal serves it, over APDU: through the resilient pool
   ([Proxy.Pool]) on a local card host, or with --cards N (N > 1)
   admitted, routed and served by the multi-card fleet scheduler. The
   link passes through the fault injector, which injects nothing
   without --fault-spec. Traced runs show the full nesting
   (proxy.request > apdu > card.evaluate > engine.stream). Stdout is the
   authorized view; the frame counts and the executor's stats go to
   stderr. *)
let query_run ~force_trace store_dir doc_id subject key_path query fault_spec
    cards trace trace_out metrics_out =
  (* The request carries the query's text to the card: read it here
     first, so a malformed one exits before any card is built. *)
  ignore (read_query query);
  let trace_out =
    (* [sdds trace] without --trace-out still owes the user a file. *)
    if force_trace && trace_out = None then Some "trace.json" else trace_out
  in
  let obs =
    obs_scope ~trace:(trace || force_trace) ~trace_out ~metrics_out
  in
  let kp = or_die_io (Sdds_dsp.Store_io.Keyfile.load_keypair ~path:key_path) in
  let store = or_die_io (Sdds_dsp.Store_io.load ~dir:store_dir) in
  let schedule =
    Option.fold ~none:Sdds_fault.Fault.Schedule.none ~some:fault_schedule
      fault_spec
  in
  let resolve id =
    Option.map
      (fun p -> Sdds_dsp.Publish.to_source p ~delivery:`Pull)
      (Sdds_dsp.Store.get_document store id)
  in
  let faulty_link ~profile i =
    let card = Sdds_soe.Card.create ?obs ~profile ~subject kp in
    let host = Sdds_soe.Remote_card.Host.create ?obs ~card ~resolve () in
    Sdds_fault.Fault.Link.wrap ?obs
      ~schedule:(Sdds_fault.Fault.Schedule.for_card schedule i)
      ~tear:(fun () -> Sdds_soe.Remote_card.Host.tear host)
      (Sdds_soe.Remote_card.Host.process host)
  in
  let req = Sdds_proxy.Proxy.Request.make ?xpath:query doc_id in
  let executor, result, report_extra =
    if cards > 1 then begin
      let links =
        Array.init cards (faulty_link ~profile:Sdds_soe.Cost.fleet)
      in
      let fleet =
        Sdds_proxy.Fleet.create ?obs ~store ~subject
          (Array.map Sdds_fault.Fault.Link.transport links)
      in
      let o = List.hd (Sdds_proxy.Fleet.serve fleet [ req ]) in
      ( "fleet",
        o.Sdds_proxy.Fleet.result,
        fun () ->
          let st = Sdds_proxy.Fleet.stats fleet in
          Format.eprintf
            "fleet: %d cards, %d affinity hits, %d fallbacks, %d \
             reroutes, %d rejected@."
            cards st.Sdds_proxy.Fleet.affinity_hits
            st.Sdds_proxy.Fleet.fallbacks st.Sdds_proxy.Fleet.reroutes
            st.Sdds_proxy.Fleet.rejected )
    end
    else begin
      let link = faulty_link ~profile:Sdds_soe.Cost.egate 0 in
      let pool =
        Sdds_proxy.Proxy.Pool.create ?obs ~store
          ~transport:(Sdds_fault.Fault.Link.transport link) ~subject ()
      in
      ( "pool",
        List.hd (Sdds_proxy.Proxy.Pool.serve pool [ req ]),
        fun () ->
          Format.eprintf "link: %d frames, %d faults injected@."
            (Sdds_fault.Fault.Link.frames link)
            (Sdds_fault.Fault.Link.injected link) )
    end
  in
  match result with
  | Ok s ->
      (match s.Sdds_proxy.Proxy.Pool.xml with
      | Some xml -> print_endline xml
      | None -> print_endline "<!-- nothing authorized -->");
      Format.eprintf
        "served (%s): channel %d%s, %d+%d frames, %dB wire, %d retries@."
        executor s.Sdds_proxy.Proxy.Pool.channel
        (if s.Sdds_proxy.Proxy.Pool.warm_setup then " warm" else "")
        s.Sdds_proxy.Proxy.Pool.command_frames
        s.Sdds_proxy.Proxy.Pool.response_frames
        s.Sdds_proxy.Proxy.Pool.wire_bytes s.Sdds_proxy.Proxy.Pool.retries;
      report_extra ();
      obs_export obs ~trace_out ~metrics_out
  | Error e ->
      Format.eprintf "sdds: %a@." Sdds_proxy.Proxy.pp_error e;
      report_extra ();
      obs_export obs ~trace_out ~metrics_out;
      exit 1

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Query a store directory through a simulated card")
    Term.(
      const (query_run ~force_trace:false)
      $ store_arg $ id_arg $ subject_arg $ key_arg $ query_arg $ fault_arg
      $ cards_arg $ trace_flag $ trace_out_arg $ metrics_out_arg)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Query with end-to-end tracing: like $(b,query), but spans are \
          always recorded and exported (default $(b,trace.json), Chrome \
          trace_event format — open in about:tracing or Perfetto).")
    Term.(
      const (query_run ~force_trace:true)
      $ store_arg $ id_arg $ subject_arg $ key_arg $ query_arg $ fault_arg
      $ cards_arg $ trace_flag $ trace_out_arg $ metrics_out_arg)

(* The synthetic ward population of [sdds fleet] and [sdds chaos]: keys
   and documents all follow from [seed]. *)
let ward_world label ~seed ~docs =
  seeded_world (Printf.sprintf "%s|%d" label seed)
    (Sdds_proxy.World.wards ~doc_id:(Printf.sprintf "doc%02d")
       ~seed:(fun i -> (seed * 131) + i) docs)

(* fleet: self-contained synthetic serving run (E19 in miniature) *)

let fleet_cmd =
  let fleet_cards_arg =
    Arg.(
      value & opt int 4
      & info [ "cards" ] ~docv:"N" ~doc:"Number of simulated cards")
  in
  let streams_arg =
    Arg.(
      value & opt int 64
      & info [ "streams" ] ~docv:"N"
          ~doc:"Concurrent request streams in the batch")
  in
  let docs_arg =
    Arg.(
      value & opt int 8
      & info [ "docs" ] ~docv:"N"
          ~doc:"Synthetic documents published (zipf(1.1) popularity)")
  in
  let routing_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("affinity", `Affinity); ("least-loaded", `Least_loaded);
               ("random", `Random) ])
          `Affinity
      & info [ "routing" ] ~docv:"POLICY"
          ~doc:"Routing policy: $(b,affinity), $(b,least-loaded) or \
                $(b,random)")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Deterministic seed for keys, documents and the request mix")
  in
  let run cards streams docs routing seed fault_spec json =
    if cards < 1 || streams < 1 || docs < 1 then
      or_die (Error "--cards, --streams and --docs must be at least 1");
    let world = ward_world "sdds-fleet" ~seed ~docs in
    let schedule =
      Option.fold ~none:Sdds_fault.Fault.Schedule.none ~some:fault_schedule
        fault_spec
    in
    let links =
      Array.init cards (fun i ->
          let transport, tear =
            Sdds_proxy.World.make_card ~profile:Sdds_soe.Cost.fleet world ()
          in
          Sdds_fault.Fault.Link.wrap
            ~schedule:(Sdds_fault.Fault.Schedule.for_card schedule i)
            ~tear transport)
    in
    let routing =
      match routing with
      | `Affinity -> Sdds_proxy.Fleet.Affinity
      | `Least_loaded -> Sdds_proxy.Fleet.Least_loaded
      | `Random -> Sdds_proxy.Fleet.Random (Int64.of_int (seed + 7))
    in
    let fleet =
      Sdds_proxy.Fleet.create ~routing ~store:(Sdds_proxy.World.store world)
        ~subject:"u"
        (Array.map Sdds_fault.Fault.Link.transport links)
    in
    (* Zipf(1.1) popularity: a hot head rewards affinity routing. *)
    let reqs =
      Sdds_proxy.World.requests world
        (Sdds_util.Rng.create
           (Int64.of_int ((seed * 7919) + (cards * 1000) + streams)))
        streams
    in
    let outs = Sdds_proxy.Fleet.serve fleet reqs in
    let st = Sdds_proxy.Fleet.stats fleet in
    let lat =
      List.filter_map
        (fun (o : Sdds_proxy.Fleet.outcome) ->
          match o.Sdds_proxy.Fleet.result with
          | Ok _ -> Some (o.Sdds_proxy.Fleet.latency_s *. 1.0e3)
          | Error _ -> None)
        outs
      |> Array.of_list
    in
    Array.sort compare lat;
    let ok = Array.length lat in
    let errors =
      List.length outs - ok - st.Sdds_proxy.Fleet.rejected
    in
    let percentile p =
      let n = Array.length lat in
      if n = 0 then 0.0
      else lat.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))
    in
    let injected =
      Array.fold_left
        (fun n l -> n + Sdds_fault.Fault.Link.injected l)
        0 links
    in
    let served_by =
      String.concat ","
        (Array.to_list (Array.map string_of_int st.Sdds_proxy.Fleet.served_by))
    in
    if json then
      Printf.printf
        "{\"cards\":%d,\"streams\":%d,\"docs\":%d,\"routing\":%s,\"seed\":%d,\
         \"ok\":%d,\"errors\":%d,\"rejected\":%d,\"affinity_hits\":%d,\
         \"fallbacks\":%d,\"reroutes\":%d,\"queue_peak\":%d,\
         \"served_by\":[%s],\"faults_injected\":%d,\"p50_ms\":%.3f,\
         \"p95_ms\":%.3f,\"p99_ms\":%.3f}\n"
        cards streams docs
        (Sdds_obs.Obs.json_string
           (match routing with
           | Sdds_proxy.Fleet.Affinity -> "affinity"
           | Sdds_proxy.Fleet.Least_loaded -> "least-loaded"
           | Sdds_proxy.Fleet.Random _ -> "random"))
        seed ok errors st.Sdds_proxy.Fleet.rejected
        st.Sdds_proxy.Fleet.affinity_hits st.Sdds_proxy.Fleet.fallbacks
        st.Sdds_proxy.Fleet.reroutes st.Sdds_proxy.Fleet.queue_peak served_by
        injected (percentile 0.50) (percentile 0.95) (percentile 0.99)
    else begin
      Printf.printf "fleet: %d cards, %d streams over %d documents (seed %d)\n"
        cards streams docs seed;
      Printf.printf
        "  ok %d  errors %d  rejected %d  (faults injected %d)\n" ok errors
        st.Sdds_proxy.Fleet.rejected injected;
      Printf.printf
        "  routing: affinity hits %d, fallbacks %d, reroutes %d, queue \
         peak %d\n"
        st.Sdds_proxy.Fleet.affinity_hits st.Sdds_proxy.Fleet.fallbacks
        st.Sdds_proxy.Fleet.reroutes st.Sdds_proxy.Fleet.queue_peak;
      Printf.printf "  served by card: %s\n" served_by;
      Printf.printf
        "  simulated latency: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n"
        (percentile 0.50) (percentile 0.95) (percentile 0.99)
    end
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve a synthetic zipfian workload through a multi-card fleet: \
          publishes $(b,--docs) documents in-memory, fires $(b,--streams) \
          concurrent requests at $(b,--cards) simulated cards behind the \
          admission-controlled affinity scheduler, and reports routing \
          counters and simulated latency percentiles. Deterministic for a \
          given $(b,--seed); $(b,--fault-spec) derives an independent \
          per-card fault schedule.")
    Term.(
      const run $ fleet_cards_arg $ streams_arg $ docs_arg $ routing_arg
      $ seed_arg $ fault_arg $ json_line_arg)

(* chaos: the fleet survivability soak — a seeded campaign of kills,
   revives, resizes and tears against a steady stream, differentially
   checked, with divergences minimized into a replayable spec. *)

let chaos_cmd =
  let cards_arg =
    Arg.(
      value & opt int 3
      & info [ "cards" ] ~docv:"N" ~doc:"Initial number of simulated cards")
  in
  let requests_arg =
    Arg.(
      value & opt int 500
      & info [ "requests" ] ~docv:"N" ~doc:"Length of the request stream")
  in
  let docs_arg =
    Arg.(
      value & opt int 8
      & info [ "docs" ] ~docv:"N"
          ~doc:"Synthetic documents published (zipf(1.1) popularity)")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for keys, documents, the request mix, the frame-fault \
                schedule and the campaign")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.05
      & info [ "rate" ] ~docv:"P"
          ~doc:"Frame-fault probability per frame (ignored with \
                $(b,--fault-spec))")
  in
  let kills_arg =
    Arg.(value & opt int 2 & info [ "kills" ] ~docv:"N" ~doc:"Card kills")
  in
  let revives_arg =
    Arg.(value & opt int 1 & info [ "revives" ] ~docv:"N" ~doc:"Card revives")
  in
  let resizes_arg =
    Arg.(
      value & opt int 1
      & info [ "resizes" ] ~docv:"N" ~doc:"Fleet resizes (add/remove)")
  in
  let standby_arg =
    Arg.(
      value & opt int 2
      & info [ "standby-k" ] ~docv:"K"
          ~doc:"Hot-key replication: the K hottest affinity keys get a \
                pre-warmed standby card")
  in
  let campaign_arg =
    Arg.(
      value & opt (some string) None
      & info [ "campaign" ] ~docv:"SPEC"
          ~doc:"Replay an explicit campaign (\"@AT:kill:C,@AT:add,...\") \
                instead of the seeded random one — the spec a failing run \
                prints")
  in
  let run cards requests docs seed rate kills revives resizes standby_k
      campaign_spec fault_spec json =
    if cards < 1 || requests < 10 || docs < 1 then
      or_die (Error "--cards >= 1, --requests >= 10, --docs >= 1 required");
    let schedule =
      match fault_spec with
      | Some spec -> fault_schedule spec
      | None ->
          Sdds_fault.Fault.Schedule.random
            ~seed:(Int64.of_int (seed * 31))
            ~rate ()
    in
    let campaign =
      match campaign_spec with
      | Some spec -> (
          match Sdds_fault.Fault.Campaign.of_spec spec with
          | Ok c -> c
          | Error e ->
              or_die
                (Error
                   ("bad --campaign: "
                   ^ Sdds_fault.Fault.Schedule.string_of_parse_error e)))
      | None ->
          Sdds_fault.Fault.Campaign.random
            ~seed:(Int64.of_int (seed * 131))
            ~requests ~cards ~kills ~revives ~resizes ()
    in
    (* The whole world rebuilds from the seed — that is what makes a
       failing (campaign, stream-length) pair replayable and what makes
       minimization's re-runs sound. *)
    let run_once campaign n =
      let w = ward_world "sdds-chaos" ~seed ~docs in
      (* The first [n] requests of the same zipf mix as [sdds fleet]. *)
      let reqs =
        Sdds_proxy.World.requests w
          (Sdds_util.Rng.create (Int64.of_int ((seed * 7919) + cards)))
          n
      in
      Sdds_proxy.Chaos.run ~cards ~standby_k ~store:(Sdds_proxy.World.store w)
        ~subject:"u"
        ~make_card:(Sdds_proxy.World.make_card ~profile:Sdds_soe.Cost.fleet w)
        ~golden:(Sdds_proxy.World.golden w) ~schedule ~campaign reqs
    in
    let report = run_once campaign requests in
    let st = report.Sdds_proxy.Chaos.stats in
    let failed = Sdds_proxy.Chaos.diverged report in
    if json then
      Printf.printf
        "{\"cards\":%d,\"requests\":%d,\"seed\":%d,\"ok\":%d,\"errors\":%d,\
         \"rejected\":%d,\"divergences\":%d,\"convergence_failures\":%d,\
         \"faults_injected\":%d,\"kills\":%d,\"migrations\":%d,\
         \"deaths\":%d,\"revives\":%d,\"drains\":%d,\"cards_added\":%d,\
         \"standby_hits\":%d,\"probes\":%d,\"campaign\":%s,\"schedule\":%s}\n"
        cards report.Sdds_proxy.Chaos.requests seed
        report.Sdds_proxy.Chaos.ok
        (List.length report.Sdds_proxy.Chaos.errors)
        report.Sdds_proxy.Chaos.rejected
        (List.length report.Sdds_proxy.Chaos.divergences)
        (List.length report.Sdds_proxy.Chaos.convergence_failures)
        report.Sdds_proxy.Chaos.injected report.Sdds_proxy.Chaos.kills
        st.Sdds_proxy.Fleet.migrations st.Sdds_proxy.Fleet.deaths
        st.Sdds_proxy.Fleet.revives st.Sdds_proxy.Fleet.drains
        st.Sdds_proxy.Fleet.added st.Sdds_proxy.Fleet.standby_hits
        st.Sdds_proxy.Fleet.probes
        (Sdds_obs.Obs.json_string (Sdds_fault.Fault.Campaign.to_spec campaign))
        (Sdds_obs.Obs.json_string (Sdds_fault.Fault.Schedule.to_spec schedule))
    else begin
      Printf.printf
        "chaos: %d requests over %d cards (seed %d)\n  campaign: %s\n  \
         schedule: %s\n"
        report.Sdds_proxy.Chaos.requests cards seed
        (Sdds_fault.Fault.Campaign.to_spec campaign)
        (Sdds_fault.Fault.Schedule.to_spec schedule);
      Printf.printf
        "  ok %d  errors %d  rejected %d  (faults injected %d, kills %d)\n"
        report.Sdds_proxy.Chaos.ok
        (List.length report.Sdds_proxy.Chaos.errors)
        report.Sdds_proxy.Chaos.rejected report.Sdds_proxy.Chaos.injected
        report.Sdds_proxy.Chaos.kills;
      Printf.printf
        "  lifecycle: migrations %d  deaths %d  revives %d  drains %d  \
         added %d  probes %d  standby hits %d\n"
        st.Sdds_proxy.Fleet.migrations st.Sdds_proxy.Fleet.deaths
        st.Sdds_proxy.Fleet.revives st.Sdds_proxy.Fleet.drains
        st.Sdds_proxy.Fleet.added st.Sdds_proxy.Fleet.probes
        st.Sdds_proxy.Fleet.standby_hits;
      Printf.printf "  divergences %d  convergence failures %d\n"
        (List.length report.Sdds_proxy.Chaos.divergences)
        (List.length report.Sdds_proxy.Chaos.convergence_failures)
    end;
    if failed then begin
      let min_campaign, min_n =
        Sdds_proxy.Chaos.minimize ~rerun:run_once campaign ~requests
      in
      Printf.eprintf
        "chaos: DIVERGED — minimized replay:\n  sdds chaos --seed %d \
         --cards %d --requests %d --campaign '%s' --fault-spec '%s'\n"
        seed cards min_n
        (Sdds_fault.Fault.Campaign.to_spec min_campaign)
        (Sdds_fault.Fault.Schedule.to_spec schedule);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fleet survivability soak: drive a steady zipfian stream through a \
          card fleet while a seeded campaign kills, revives, adds, drains \
          and tears cards and a frame-fault schedule corrupts the links; \
          every completed request is differentially checked against the \
          fault-free golden view and a final clean pass must converge. \
          Deterministic for a given $(b,--seed); a divergence is minimized \
          into a replayable $(b,--campaign) spec and exits 1.")
    Term.(
      const run $ cards_arg $ requests_arg $ docs_arg $ seed_arg $ rate_arg
      $ kills_arg $ revives_arg $ resizes_arg $ standby_arg $ campaign_arg
      $ fault_arg $ json_line_arg)

(* slo: the three-phase incident drill — steady / churn / recovered —
   with burn-rate verdicts over fleet availability and latency. *)

let slo_cmd =
  let cards_arg =
    Arg.(
      value & opt int 3
      & info [ "cards" ] ~docv:"N" ~doc:"Initial number of simulated cards")
  in
  let per_phase_arg =
    Arg.(
      value & opt int 48
      & info [ "per-phase" ] ~docv:"N" ~doc:"Requests admitted per phase")
  in
  let docs_arg =
    Arg.(
      value & opt int 3
      & info [ "docs" ] ~docv:"N"
          ~doc:"Distinct documents in the request mix (of 6 published)")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for keys, the request mix and the churn fault schedule")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.12
      & info [ "rate" ] ~docv:"P"
          ~doc:"Frame-fault probability per frame during the churn phase")
  in
  let batch_arg =
    Arg.(
      value & opt int 3
      & info [ "batch" ] ~docv:"N"
          ~doc:"Requests admitted between SLO ticks")
  in
  let threshold_arg =
    Arg.(
      value & opt int 4095
      & info [ "threshold-us" ] ~docv:"US"
          ~doc:"Latency objective threshold in microseconds (snaps to a \
                log2 bucket bound)")
  in
  let latency_target_arg =
    Arg.(
      value & opt float 95.0
      & info [ "latency-target" ] ~docv:"PCT"
          ~doc:"Latency objective target percentage")
  in
  let availability_target_arg =
    Arg.(
      value & opt float 99.0
      & info [ "availability-target" ] ~docv:"PCT"
          ~doc:"Availability objective target percentage")
  in
  let burn_arg =
    Arg.(
      value & opt float 1.0
      & info [ "burn" ] ~docv:"X"
          ~doc:"Burn-rate threshold (both windows must exceed it to page)")
  in
  let fast_ms_arg =
    Arg.(
      value & opt int 2
      & info [ "fast-ms" ] ~docv:"MS"
          ~doc:"Fast burn window, milliseconds of simulated link time")
  in
  let slow_ms_arg =
    Arg.(
      value & opt int 12
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Slow burn window, milliseconds of simulated link time")
  in
  let run cards per_phase docs seed rate batch threshold_us latency_target
      availability_target burn fast_ms slow_ms json trace_out metrics_out =
    if cards < 1 || per_phase < batch || docs < 1 || docs > 6 then
      or_die
        (Error "--cards >= 1, --per-phase >= --batch, 1 <= --docs <= 6 \
                required");
    let world =
      seeded_world (Printf.sprintf "sdds-slo|%d" seed)
        (Sdds_proxy.World.wards ~doc_id:(Printf.sprintf "doc%d")
           ~seed:(( + ) 101) 6)
    in
    let obs =
      Sdds_obs.Obs.create
        ~clock:(Sdds_obs.Obs.Clock.manual ())
        ~tracing:(Option.is_some trace_out)
        ~policy:(Sdds_obs.Obs.Policy.default ())
        ()
    in
    let rng = Sdds_util.Rng.create (Int64.of_int seed) in
    let requests _phase =
      List.init per_phase (fun _ ->
          let doc = Printf.sprintf "doc%d" (Sdds_util.Rng.int rng docs) in
          let xpath =
            match Sdds_util.Rng.int rng 3 with
            | 0 -> Some "//patient/name"
            | _ -> None
          in
          Sdds_proxy.Proxy.Request.make ?xpath doc)
    in
    let phases =
      Sdds_proxy.Chaos.run_slo ~cards ~batch
        ~churn_fault_seed:(Int64.of_int (1000 + seed))
        ~churn_fault_rate:rate ~availability_target ~latency_target
        ~latency_threshold_us:threshold_us
        ~fast_window_ns:(Int64.of_int (fast_ms * 1_000_000))
        ~slow_window_ns:(Int64.of_int (slow_ms * 1_000_000))
        ~burn_threshold:burn ~obs ~store:(Sdds_proxy.World.store world)
        ~subject:"u"
        ~make_card:
          (Sdds_proxy.World.make_card ~profile:Sdds_soe.Cost.modern world)
        ~requests ()
    in
    if json then
      List.iter
        (fun p -> print_endline (Sdds_proxy.Chaos.slo_phase_json p))
        phases
    else begin
      Printf.printf
        "slo: %d requests/phase over %d cards (seed %d)\n\
        \  objectives: availability >= %.1f%%, latency@%dus >= %.1f%%, \
         burn > %.2f pages (%dms fast / %dms slow)\n"
        per_phase cards seed availability_target threshold_us latency_target
        burn fast_ms slow_ms;
      List.iter
        (fun (p : Sdds_proxy.Chaos.slo_phase) ->
          Printf.printf
            "  %-9s ok %d/%d  rejected %d  errors %d  breach ticks %d/%d%s\n"
            p.Sdds_proxy.Chaos.sp_phase p.Sdds_proxy.Chaos.sp_ok
            p.Sdds_proxy.Chaos.sp_requests p.Sdds_proxy.Chaos.sp_rejected
            p.Sdds_proxy.Chaos.sp_errors p.Sdds_proxy.Chaos.sp_breach_ticks
            p.Sdds_proxy.Chaos.sp_ticks
            (if Sdds_proxy.Chaos.breached p then "  PAGE" else "");
          List.iter
            (fun (v : Sdds_obs.Obs.Slo.verdict) ->
              Printf.printf
                "    %-14s %6.2f%% of %.1f%%  burn fast %.2f / slow %.2f%s\n"
                v.Sdds_obs.Obs.Slo.name v.Sdds_obs.Obs.Slo.current_pct
                v.Sdds_obs.Obs.Slo.target_pct v.Sdds_obs.Obs.Slo.fast_burn
                v.Sdds_obs.Obs.Slo.slow_burn
                (if v.Sdds_obs.Obs.Slo.breach then "  BREACH" else ""))
            p.Sdds_proxy.Chaos.sp_verdicts)
        phases;
      match phases with
      | [ steady; churn; recovered ] ->
          let clean p = not (Sdds_proxy.Chaos.breached p) in
          if clean steady && Sdds_proxy.Chaos.breached churn && clean recovered
          then
            print_endline
              "slo: page fired during churn, cleared after settlement — \
               incident detected and recovered"
          else
            print_endline "slo: unexpected verdict shape for this workload"
      | _ -> ()
    end;
    obs_export (Some obs) ~trace_out ~metrics_out
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Three-phase SLO drill: steady traffic, then the busiest card is \
          killed while frame faults corrupt the links (churn), then every \
          card is revived (recovered). A multi-window burn-rate engine \
          ticks on simulated fleet time; the expected shape is a page \
          during churn (fault-retried requests inflate into latency \
          buckets steady traffic never touches) that clears once the fast \
          window drains.")
    Term.(
      const run $ cards_arg $ per_phase_arg $ docs_arg $ seed_arg $ rate_arg
      $ batch_arg $ threshold_arg $ latency_target_arg
      $ availability_target_arg $ burn_arg $ fast_ms_arg $ slow_ms_arg
      $ json_phases_arg $ trace_out_arg $ metrics_out_arg)

(* disseminate: publish once, deliver to every subject named in the
   rules through the gateway card's clustered fan-out. *)

let rules_file_arg =
  Arg.(
    value & opt (some file) None
    & info [ "rules-file" ] ~docv:"FILE"
        ~doc:"Rules file, one \"SIGN, SUBJECT, XPATH\" per line ('#' \
              comments and blank lines ignored)")

let load_rules_file = function
  | None -> []
  | Some path ->
      read_file path |> String.split_on_char '\n'
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let disseminate_cmd =
  let run doc_path rules rules_file json trace trace_out metrics_out =
    let obs = obs_scope ~trace ~trace_out ~metrics_out in
    let doc = or_die (load_doc doc_path) in
    let rules = or_die (parse_rules (load_rules_file rules_file @ rules)) in
    if rules = [] then
      or_die (Error "no subscribers: give rules with -r or --rules-file");
    let subjects =
      List.sort_uniq String.compare
        (List.map (fun r -> r.Sdds_core.Rule.subject) rules)
    in
    (* Plan before any crypto: a rules-digest collision (or a duplicated
       subject) refuses the publish, and the planner's typed error names
       the offending subscriber pair instead of surfacing later as a raw
       card failure. *)
    let population =
      List.map (fun s -> (s, Sdds_core.Rule.for_subject s rules)) subjects
    in
    (match Sdds_dissem.Cluster.plan population with
    | Ok _ -> ()
    | Error e ->
        or_die
          (Error
             (Format.asprintf "cannot disseminate: %a"
                Sdds_dissem.Cluster.pp_error e)));
    let drbg = Sdds_crypto.Drbg.create ~seed:"sdds-cli-dissem" in
    let publisher = Sdds_crypto.Rsa.generate drbg ~bits:512 in
    let gateway = Sdds_crypto.Rsa.generate drbg ~bits:512 in
    let published, doc_key =
      Sdds_dsp.Publish.publish drbg ~publisher ~doc_id:"cli-doc" doc
    in
    let store = Sdds_dsp.Store.create () in
    Sdds_dsp.Store.put_document store published;
    List.iter
      (fun (subject, rs) ->
        Sdds_dsp.Store.put_rules store ~doc_id:"cli-doc" ~subject
          (Sdds_dsp.Publish.encrypt_rules_for drbg ~publisher ~doc_key
             ~doc_id:"cli-doc" ~subject rs))
      population;
    Sdds_dsp.Store.put_grant store ~doc_id:"cli-doc" ~subject:"#gateway"
      (Sdds_dsp.Publish.grant drbg ~doc_key ~doc_id:"cli-doc"
         ~recipient:gateway.Sdds_crypto.Rsa.public);
    let card =
      Sdds_soe.Card.create ?obs ~profile:Sdds_soe.Cost.fleet
        ~subject:"#gateway" gateway
    in
    let client = Sdds_proxy.Client.direct ~store ~card in
    match Sdds_proxy.Client.deliver client ~doc_id:"cli-doc" subjects with
    | Error e ->
        Format.eprintf "sdds: %a@." Sdds_proxy.Proxy.pp_error e;
        obs_export obs ~trace_out ~metrics_out;
        exit 1
    | Ok (per, st) ->
        let elements (s : Sdds_proxy.Proxy.Pool.served) =
          match Lazy.force s.Sdds_proxy.Proxy.Pool.view with
          | Some v -> Sdds_xml.Dom.node_count v
          | None -> 0
        in
        if json then begin
          let delivered =
            String.concat ","
              (List.map
                 (fun (subject, r) ->
                   match r with
                   | Ok s ->
                       Printf.sprintf
                         "{\"subject\":%s,\"elements\":%d,\"wire_bytes\":%d}"
                         (Sdds_obs.Obs.json_string subject) (elements s)
                         s.Sdds_proxy.Proxy.Pool.wire_bytes
                   | Error e ->
                       Printf.sprintf "{\"subject\":%s,\"error\":%s}"
                         (Sdds_obs.Obs.json_string subject)
                         (Sdds_obs.Obs.json_string
                            (Format.asprintf "%a" Sdds_proxy.Proxy.pp_error e)))
                 per)
          in
          Printf.printf
            "{\"subscribers\":%d,\"clusters\":%d,\"mux_clusters\":%d,\
             \"solo_clusters\":%d,\"evaluations\":%d,\
             \"naive_evaluations\":%d,\"saved\":%d,\"fanout\":%.3f,\
             \"delivered\":[%s]}\n"
            st.Sdds_dissem.Fanout.subscribers st.Sdds_dissem.Fanout.clusters
            st.Sdds_dissem.Fanout.mux_clusters
            st.Sdds_dissem.Fanout.solo_clusters
            st.Sdds_dissem.Fanout.evaluations
            st.Sdds_dissem.Fanout.naive_evaluations
            (st.Sdds_dissem.Fanout.naive_evaluations
            - st.Sdds_dissem.Fanout.evaluations)
            (Sdds_dissem.Fanout.fanout_ratio st)
            delivered
        end
        else begin
          List.iter
            (fun (subject, r) ->
              match r with
              | Ok s ->
                  Printf.printf "%-14s view=%4d elements, %5dB wire\n"
                    subject (elements s) s.Sdds_proxy.Proxy.Pool.wire_bytes
              | Error e ->
                  Format.printf "%-14s ERROR: %a@." subject
                    Sdds_proxy.Proxy.pp_error e)
            per;
          Printf.printf
            "clusters: %d over %d subscribers (%d shared-walk, %d solo)\n"
            st.Sdds_dissem.Fanout.clusters st.Sdds_dissem.Fanout.subscribers
            st.Sdds_dissem.Fanout.mux_clusters
            st.Sdds_dissem.Fanout.solo_clusters;
          Printf.printf
            "evaluations: %d vs %d naive (saved %d, fan-out x%.2f)\n"
            st.Sdds_dissem.Fanout.evaluations
            st.Sdds_dissem.Fanout.naive_evaluations
            (st.Sdds_dissem.Fanout.naive_evaluations
            - st.Sdds_dissem.Fanout.evaluations)
            (Sdds_dissem.Fanout.fanout_ratio st)
        end;
        obs_export obs ~trace_out ~metrics_out
  in
  Cmd.v
    (Cmd.info "disseminate"
       ~doc:
         "Push one encrypted document to every subject named in the \
          rules, through the gateway card's clustered fan-out: identical \
          rule sets are evaluated once, predicate-free clusters share a \
          single merged-automaton walk, and each subscriber still \
          receives exactly its own authorized view. Reports the sharing \
          accounting (clusters, evaluations vs the per-subscriber \
          baseline, fan-out ratio). A rules-digest collision or \
          duplicated subject refuses the whole publish, naming the \
          offending subscriber pair.")
    Term.(
      const run $ doc_arg $ rules_arg $ rules_file_arg $ json_line_arg
      $ trace_flag $ trace_out_arg $ metrics_out_arg)

(* analyze *)

let analyze_cmd =
  let analyze_doc_arg =
    Arg.(
      value & opt (some file) None
      & info [ "doc" ] ~docv:"DOC.xml"
          ~doc:"Check rule tags against this document's skip-index \
                dictionary and use its tag alphabet for the memory bound")
  in
  let schema_arg =
    Arg.(
      value & opt (some file) None
      & info [ "schema" ] ~docv:"FILE"
          ~doc:"DTD-lite schema (\"name = child1 child2 [#text]\" per \
                line, first declaration is the root): enables \
                unsatisfiability checks and bounds the depth")
  in
  let profile_arg =
    Arg.(
      value & opt (some (enum [ ("egate", Sdds_soe.Cost.egate);
                                ("modern", Sdds_soe.Cost.modern);
                                ("fleet", Sdds_soe.Cost.fleet) ])) None
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:"Card cost profile (egate|modern|fleet): its RAM budget \
                turns the memory-bound diagnostic into an admission check")
  in
  let depth_arg =
    Arg.(
      value & opt (some int) None
      & info [ "depth" ] ~docv:"N"
          ~doc:"Document depth for the memory bound (default: schema's \
                bound if finite, else 16)")
  in
  let subject_filter_arg =
    Arg.(
      value & opt (some string) None
      & info [ "s"; "subject" ] ~docv:"SUBJECT"
          ~doc:"Analyze only this subject's rules (as the card compiles \
                them)")
  in
  let run rules rules_file subject query doc_path schema_path profile depth
      json trace trace_out metrics_out =
    let obs = obs_scope ~trace ~trace_out ~metrics_out in
    let rules = or_die (parse_rules (load_rules_file rules_file @ rules)) in
    let rules =
      match subject with
      | None -> rules
      | Some s -> Sdds_core.Rule.for_subject s rules
    in
    let query = read_query query in
    let schema =
      Option.map
        (fun path ->
          match Sdds_core.Schema.of_string (read_file path) with
          | s -> s
          | exception Invalid_argument msg -> or_die (Error msg))
        schema_path
    in
    let dictionary =
      Option.map
        (fun path ->
          let doc = or_die (load_doc path) in
          Sdds_index.Dict.tags (Sdds_index.Dict.build doc))
        doc_path
    in
    let budget_bytes =
      Option.map (fun p -> p.Sdds_soe.Cost.ram_bytes) profile
    in
    let report =
      Sdds_obs.Obs.Tracer.with_span (Sdds_obs.Obs.tracer obs)
        ~args:[ ("rules", string_of_int (List.length rules)) ]
        "analyze"
        (fun () ->
          Sdds_analysis.Analyzer.run ?schema ?dictionary ?depth ?budget_bytes
            ?query rules)
    in
    if json then
      print_endline
        (Sdds_analysis.Json.to_string (Sdds_analysis.Analyzer.to_json report))
    else Format.printf "%a@?" Sdds_analysis.Analyzer.pp report;
    obs_export obs ~trace_out ~metrics_out;
    if Sdds_analysis.Analyzer.has_errors report then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static policy analysis: dead and possibly-shadowed rules, \
          schema/dictionary unsatisfiability, allow/deny overlaps with \
          synthesized witness documents, and the static worst-case SOE \
          memory bound. Exits 1 when any diagnostic is an error (internal \
          failure, or bound over the profile's budget).")
    Term.(
      const run $ rules_arg $ rules_file_arg $ subject_filter_arg $ query_arg
      $ analyze_doc_arg $ schema_arg $ profile_arg $ depth_arg
      $ json_machine_arg $ trace_flag $ trace_out_arg $ metrics_out_arg)

let check_cmd =
  let module Model = Sdds_protocol.Model in
  let module Explore = Sdds_protocol.Explore in
  let module Invariant = Sdds_protocol.Invariant in
  let module Cex = Sdds_protocol.Cex in
  let module Json = Sdds_analysis.Json in
  let depth_arg =
    Arg.(
      value & opt int 12
      & info [ "depth" ] ~docv:"N"
          ~doc:"Explore every interleaving up to N frames")
  in
  let model_arg =
    Arg.(
      value
      & opt (enum [ ("current", `Current); ("pre-fix", `Pre_fix) ]) `Current
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "$(b,current) checks the production chain semantics; \
             $(b,pre-fix) checks the preserved pre-fix fixture \
             (p2-keyed completion markers), on which the checker must \
             find the duplicate-final-frame hole")
  in
  let faults_arg =
    Arg.(
      value & opt (some string) None
      & info [ "faults" ] ~docv:"KINDS"
          ~doc:
            "Restrict the fault alphabet, e.g. \
             $(b,duplicate-command+drop-response) (default: all kinds)")
  in
  let fault_budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "fault-budget" ] ~docv:"N"
          ~doc:"Faults the adversary may inject per trace (default 2)")
  in
  let frames_arg =
    Arg.(
      value & opt (some int) None
      & info [ "frames" ] ~docv:"N"
          ~doc:"Frames per rules upload (default: 3, or 5 on pre-fix)")
  in
  let modulus_arg =
    Arg.(
      value & opt (some int) None
      & info [ "modulus" ] ~docv:"N"
          ~doc:"Downscaled sequence/block modulus (default 4)")
  in
  let block_arg =
    Arg.(
      value & opt (some int) None
      & info [ "block" ] ~docv:"BYTES"
          ~doc:"Downscaled response block size (default 3)")
  in
  let query_flag =
    Arg.(
      value & flag
      & info [ "query" ] ~doc:"Upload a query chain in each exchange")
  in
  let rollback_flag =
    Arg.(
      value & flag
      & info [ "rollback" ]
          ~doc:
            "Run a second exchange that uploads an older policy version, \
             exercising the anti-rollback path")
  in
  let max_states_arg =
    Arg.(
      value & opt int Explore.default_max_states
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Stop after expanding N states (safety cap)")
  in
  let run depth model faults fault_budget frames modulus block query rollback
      max_states json =
    let base =
      match model with `Current -> Model.current | `Pre_fix -> Model.pre_fix
    in
    let alphabet =
      match faults with
      | None -> base.Model.alphabet
      | Some spec ->
          List.map
            (fun name ->
              match Sdds_fault.Fault.kind_of_string (String.trim name) with
              | Some k -> k
              | None -> or_die (Error ("unknown fault kind: " ^ name)))
            (String.split_on_char '+' spec)
    in
    let config =
      {
        base with
        Model.alphabet;
        fault_budget =
          Option.value fault_budget ~default:base.Model.fault_budget;
        rules_frames = Option.value frames ~default:base.Model.rules_frames;
        modulus = Option.value modulus ~default:base.Model.modulus;
        block = Option.value block ~default:base.Model.block;
        with_query = query || base.Model.with_query;
        versions = (if rollback then [ 2; 1 ] else base.Model.versions);
      }
    in
    let t0 = Unix.gettimeofday () in
    let result = Explore.run ~max_states ~depth config in
    let elapsed = Unix.gettimeofday () -. t0 in
    let s = result.Explore.stats in
    let states_per_s =
      if elapsed > 0. then float_of_int s.Explore.expanded /. elapsed else 0.
    in
    let model_name =
      match model with `Current -> "current" | `Pre_fix -> "pre-fix"
    in
    if json then begin
      let violations =
        match result.Explore.cex with
        | None -> []
        | Some cex ->
            [
              Json.Obj
                [
                  ( "invariant",
                    Json.String
                      (Invariant.name cex.Cex.violation.Invariant.which) );
                  ("detail", Json.String cex.Cex.violation.Invariant.detail);
                  ("spec", Json.String cex.Cex.spec);
                  ("steps", Json.Int cex.Cex.steps);
                  ( "trace",
                    Json.List
                      (List.map (fun l -> Json.String l) cex.Cex.trace) );
                ];
            ]
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("model", Json.String model_name);
                ("depth", Json.Int depth);
                ( "faults",
                  Json.List
                    (List.map
                       (fun k ->
                         Json.String (Sdds_fault.Fault.kind_to_string k))
                       config.Model.alphabet) );
                ("fault_budget", Json.Int config.Model.fault_budget);
                ("states", Json.Int s.Explore.expanded);
                ("transitions", Json.Int s.Explore.transitions);
                ("dedup_hits", Json.Int s.Explore.dedup_hits);
                ("terminal_ok", Json.Int s.Explore.terminal_ok);
                ("terminal_failed", Json.Int s.Explore.terminal_failed);
                ("max_depth", Json.Int s.Explore.max_depth);
                ("truncated", Json.Bool s.Explore.truncated);
                ( "states_per_s",
                  Json.String (Printf.sprintf "%.0f" states_per_s) );
                ("violations", Json.List violations);
              ]))
    end
    else begin
      Printf.printf
        "model %s: depth %d, %d fault kinds, budget %d: %d states, %d \
         transitions (%d dedup), %d ok / %d failed terminals%s in %.2fs \
         (%.0f states/s)\n"
        model_name depth
        (List.length config.Model.alphabet)
        config.Model.fault_budget s.Explore.expanded s.Explore.transitions
        s.Explore.dedup_hits s.Explore.terminal_ok s.Explore.terminal_failed
        (if s.Explore.truncated then " [truncated]" else "")
        elapsed states_per_s;
      match result.Explore.cex with
      | None -> print_endline "no invariant violations"
      | Some cex ->
          Format.printf "%a@." Cex.pp cex;
          Printf.printf "replay: sdds query ... --fault-spec '%s'\n"
            cex.Cex.spec
    end;
    if result.Explore.cex <> None then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Bounded exhaustive model checking of the APDU session protocol: \
          explores every interleaving of the host driver, the (production) \
          card transition function and a budgeted fault adversary up to a \
          depth, checking exactly-once chain execution, channel isolation, \
          byte-identical block retransmission, convergence, anti-rollback \
          and view integrity. Violations print a minimized counterexample \
          whose fault schedule replays through $(b,--fault-spec). Exits 1 \
          when a violation is found.")
    Term.(
      const run $ depth_arg $ model_arg $ faults_arg $ fault_budget_arg
      $ frames_arg $ modulus_arg $ block_arg $ query_flag $ rollback_flag
      $ max_states_arg $ json_machine_arg)

let () =
  let info =
    Cmd.info "sdds" ~version:"1.0.0"
      ~doc:"Safe data sharing and dissemination on smart devices"
  in
  (* Malformed key/store files raise Invalid_argument from the parsing
     layer (documented in Store_io): turn those into a clean CLI error
     instead of a fatal exception with a backtrace. *)
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [ view_cmd; encode_cmd; stats_cmd; demo_cmd; keygen_cmd;
           publish_cmd; update_rules_cmd; query_cmd; trace_cmd; fleet_cmd;
           chaos_cmd; slo_cmd; disseminate_cmd; analyze_cmd; check_cmd ])
  with
  | code -> exit code
  | exception Invalid_argument msg ->
      prerr_endline ("sdds: " ^ msg);
      exit 1
