(* Benchmark harness: regenerates every experiment of the reproduction.

   Usage:
     dune exec bench/main.exe            # run every experiment
     dune exec bench/main.exe -- E3 E4   # run a subset (ids or names)
     dune exec bench/main.exe -- --list

   Each experiment prints the table/series recorded in EXPERIMENTS.md.
   Simulated times come from the calibrated smart-card cost model
   (Sdds_soe.Cost); wall-clock microbenchmarks use Bechamel.

   Engine-level measurements (ns/event, peak tokens, token visits) are
   additionally collected into BENCH_engine.json in the current
   directory — see EXPERIMENTS.md for the schema. *)

module Rng = Sdds_util.Rng
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Stats = Sdds_xml.Stats
module Serializer = Sdds_xml.Serializer
module Rule = Sdds_core.Rule
module Engine = Sdds_core.Engine
module Oracle = Sdds_core.Oracle
module Encode = Sdds_index.Encode
module Reader = Sdds_index.Reader
module Indexed_engine = Sdds_index.Indexed_engine
module Cost = Sdds_soe.Cost
module Card = Sdds_soe.Card
module Wire = Sdds_soe.Wire
module Remote_card = Sdds_soe.Remote_card
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Proxy = Sdds_proxy.Proxy
module Fleet = Sdds_proxy.Fleet
module Static_enc = Sdds_baseline.Static_enc
module Server_side = Sdds_baseline.Server_side
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Random_path = Sdds_xpath.Random_path
module Compile = Sdds_core.Compile
module Analyzer = Sdds_analysis.Analyzer
module Fault = Sdds_fault.Fault
module Diag = Sdds_analysis.Diag
module Memory_bound = Sdds_analysis.Memory_bound
module Ram = Sdds_core.Ram
module Obs = Sdds_obs.Obs
module Chaos = Sdds_proxy.Chaos
module World = Sdds_proxy.World
module Json = Sdds_analysis.Json
module Pmodel = Sdds_protocol.Model
module Explore = Sdds_protocol.Explore

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let line = String.make 78 '-'

let header id title =
  Printf.printf "\n%s\n%s: %s\n%s\n" line id title line

(* --smoke: one cheap iteration of the simulated experiments, for CI.
   Under --compare-only it is the gated file's own smoke flag. *)
let smoke = ref false

(* Wall-clock nanoseconds per run, estimated by Bechamel's OLS. *)
let ns_of ~name f =
  let test = Bechamel.Test.make ~name (Bechamel.Staged.stage f) in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:500
      ~quota:(Bechamel.Time.second 0.4) ~kde:None ()
  in
  let clock = Bechamel.Toolkit.Instance.monotonic_clock in
  let raws = Bechamel.Benchmark.all cfg [ clock ] test in
  let ols =
    Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Bechamel.Analyze.all ols clock raws in
  Hashtbl.fold
    (fun _ v acc ->
      match Bechamel.Analyze.OLS.estimates v with
      | Some [ ns ] -> ns
      | Some _ | None -> acc)
    results nan

(* Minor words per event of one unsampled [Engine.feed] pass, the
   returned outputs included. Allocation is deterministic, so the gate
   holds it exactly. *)
let minor_words_per_event ?dispatch rules events =
  let t = Engine.create ?dispatch rules in
  let before = Gc.minor_words () in
  List.iter (fun ev -> ignore (Sys.opaque_identity (Engine.feed t ev))) events;
  let words = Gc.minor_words () -. before in
  Engine.finish t;
  words /. float_of_int (List.length events)

(* ------------------------------------------------------------------ *)
(* BENCH_engine.json: machine-readable experiment rows                 *)
(* ------------------------------------------------------------------ *)

(* One row of one array of BENCH_engine.json, fields in print order.
   Experiments record rows as they print their tables; the driver
   writes and gates them once at the end of the run. *)
type row = { array : string; fields : (string * Json.t) list }

let rows : row list ref = ref []

let record array ~experiment fields =
  rows :=
    { array; fields = ("experiment", Json.String experiment) :: fields }
    :: !rows

(* Every array of the file, in file order. [owners] are the experiments
   that fill it; [keys] pair a row with its baseline row; [columns] are
   the fields every row carries after "experiment", in order; [shape]
   names the claims its rows must uphold. *)
type spec = {
  name : string;
  owners : string list;
  keys : string list;
  columns : string list;
  shape : (string * (Json.t list -> bool)) list;
}

(* String field [k] of object [j]. *)
let text k j = Option.bind (Json.member k j) Json.to_string_opt

let specs =
  (* A missing or non-numeric field reads as nan, which fails every
     comparison the claims make. *)
  let num k r =
    Option.value ~default:Float.nan
      (Option.bind (Json.member k r) Json.to_float_opt)
  in
  let where k v rows = List.filter (fun r -> text k r = Some v) rows in
  let values k rows = List.sort_uniq compare (List.filter_map (text k) rows) in
  let pick k v rows =
    match where k v rows with r :: _ -> r | [] -> Json.Null
  in
  let nonempty_all p rows = rows <> [] && List.for_all p rows in
  [
    { name = "records"; owners = [ "E2"; "E14" ];
      keys = [ "experiment"; "case"; "dispatch" ];
      columns =
        [ "case"; "dispatch"; "events"; "ns_per_event"; "peak_tokens";
          "token_visits"; "minor_words_per_event" ];
      shape = [] };
    { name = "sessions"; owners = [ "E15" ];
      keys = [ "experiment"; "case"; "phase" ];
      columns =
        [ "case"; "phase"; "requests"; "command_frames"; "wire_bytes";
          "warm_setups"; "cache_hits"; "total_ms"; "rsa_ms"; "compile_ms";
          "minor_words_per_request"; "pool_minor_words_per_request" ];
      shape = [] };
    { name = "analysis"; owners = [ "E16" ]; keys = [ "case"; "depth" ];
      columns =
        [ "case"; "rules"; "pruned"; "diagnostics"; "analyze_ns";
          "minor_words_per_analysis"; "depth"; "bound_state_words";
          "engine_peak_words" ];
      shape = [] };
    { name = "resilience"; owners = [ "E17" ]; keys = [ "case"; "fault_rate" ];
      columns =
        [ "case"; "fault_rate"; "requests"; "ok"; "typed_errors"; "retries";
          "injected"; "frames"; "wire_bytes"; "link_ms_per_ok" ];
      shape = [] };
    { name = "obs"; owners = [ "E18" ]; keys = [ "case"; "mode" ];
      columns =
        [ "case"; "mode"; "events"; "ns_per_event"; "overhead_pct";
          "trace_events"; "dropped"; "skip_considered"; "skipped_subtrees";
          "skipped_bytes" ];
      shape =
        [ ( "modes off, metrics, sampled and full are all measured",
            fun rows ->
              List.for_all
                (fun m -> where "mode" m rows <> [])
                [ "off"; "metrics"; "sampled"; "full" ] ) ] };
    { name = "fleet"; owners = [ "E19" ];
      keys = [ "cards"; "streams"; "routing"; "phase" ];
      columns =
        [ "cards"; "streams"; "routing"; "phase"; "ok"; "errors"; "rejected";
          "affinity_hits"; "fallbacks"; "reroutes"; "warm_setups";
          "cache_hit_pct"; "queue_peak"; "p50_ms"; "p95_ms"; "p99_ms" ];
      shape =
        [ ( "routings are affinity and random",
            fun rows -> values "routing" rows = [ "affinity"; "random" ] );
          ( "phases are cold and warm",
            fun rows -> values "phase" rows = [ "cold"; "warm" ] ) ] };
    { name = "dissem"; owners = [ "E20" ]; keys = [ "subscribers"; "distinct" ];
      columns =
        [ "subscribers"; "distinct"; "clusters"; "mux_clusters";
          "solo_clusters"; "evaluations"; "naive_evaluations"; "saved";
          "fanout"; "p50_ms"; "p95_ms"; "naive_p50_ms"; "naive_p95_ms" ];
      shape =
        [ ( "no cell runs more evaluations than the per-subscriber baseline",
            List.for_all (fun r ->
                num "evaluations" r <= num "naive_evaluations" r) );
          ( "every overlapping population runs strictly fewer evaluations",
            fun rows ->
              nonempty_all
                (fun r -> num "evaluations" r < num "naive_evaluations" r)
                (List.filter
                   (fun r -> num "distinct" r < num "subscribers" r)
                   rows) ) ] };
    { name = "check"; owners = [ "E21" ];
      keys = [ "model"; "alphabet"; "depth"; "fault_budget" ];
      columns =
        [ "model"; "alphabet"; "kinds"; "depth"; "fault_budget"; "states";
          "transitions"; "dedup_hits"; "terminal_ok"; "terminal_failed";
          "violations"; "cex_frames"; "ms"; "states_per_s" ];
      shape =
        [ ( "the current protocol verifies clean",
            fun rows ->
              nonempty_all (fun r -> num "violations" r = 0.0)
                (where "model" "current" rows) );
          ( "the pre-fix fixture yields one minimized counterexample",
            fun rows ->
              nonempty_all
                (fun r -> num "violations" r = 1.0 && num "cex_frames" r >= 1.0)
                (where "model" "pre-fix" rows) ) ] };
    { name = "chaos"; owners = [ "E22" ]; keys = [ "phase" ];
      columns =
        [ "phase"; "requests"; "ok"; "errors"; "rejected"; "migrations";
          "deaths"; "revives"; "standby_hits"; "availability_pct"; "p50_ms";
          "p95_ms"; "p99_ms" ];
      shape =
        [ ( "no phase surfaces an error",
            List.for_all (fun r -> num "errors" r = 0.0) );
          ( "phases are steady, churn and recovered",
            fun rows ->
              values "phase" rows = [ "churn"; "recovered"; "steady" ] );
          ( "migration absorbs the churn phase's one death",
            fun rows ->
              List.for_all
                (fun r -> num "deaths" r = 1.0 && num "migrations" r >= 1.0)
                (where "phase" "churn" rows) );
          ( "the killed card revives in the recovered phase",
            fun rows ->
              List.for_all (fun r -> num "revives" r = 1.0)
                (where "phase" "recovered" rows) ) ] };
    { name = "sampling"; owners = [ "E23" ]; keys = [ "mode"; "budget" ];
      columns =
        [ "mode"; "budget"; "requests"; "traces_total"; "retained_trees";
          "interesting_total"; "interesting_retained"; "retention_pct";
          "storage_events"; "exemplar_ok" ];
      shape =
        [ ( "every exemplar resolves",
            List.for_all (fun r ->
                Json.member "exemplar_ok" r = Some (Json.Bool true)) );
          ( "modes are full and tail",
            fun rows -> values "mode" rows = [ "full"; "tail" ] );
          ( "tail keeps 100% of the interesting trees",
            fun rows -> num "retention_pct" (pick "mode" "tail" rows) = 100.0 );
          ( "tail stores fewer events than full",
            fun rows ->
              num "storage_events" (pick "mode" "tail" rows)
              < num "storage_events" (pick "mode" "full" rows) ) ] };
  ]

let schema = "sdds-bench-engine/14"

(* The run as the file holds it: floats keep three decimals and
   non-finite values become null, so the in-memory gate and a later
   --compare-only of the written file see the same values. *)
let document () =
  let cell = function
    | Json.Float f when Float.is_finite f ->
        Json.Float (float_of_string (Printf.sprintf "%.3f" f))
    | Json.Float _ -> Json.Null
    | v -> v
  in
  let recorded = List.rev !rows in
  Json.Obj
    (("schema", Json.String schema)
    :: ("smoke", Json.Bool !smoke)
    :: List.map
         (fun spec ->
           ( spec.name,
             Json.List
               (List.filter_map
                  (fun r ->
                    if r.array = spec.name then
                      Some
                        (Json.Obj
                           (List.map (fun (k, v) -> (k, cell v)) r.fields))
                    else None)
                  recorded) ))
         specs)

let rows_of name doc =
  Option.bind (Json.member name doc) Json.to_list_opt
  |> Option.value ~default:[]

(* The file's layout: one member per line at the top, one row per line
   in each array, floats with three decimals. *)
let render doc =
  let rec value = function
    | Json.Float f -> Printf.sprintf "%.3f" f
    | Json.List [] -> "[\n  ]"
    | Json.List rows ->
        "[\n    " ^ String.concat ",\n    " (List.map value rows) ^ "\n  ]"
    | Json.Obj fields -> "{" ^ String.concat ", " (List.map field fields) ^ "}"
    | v -> Json.to_string v
  and field (k, v) = Json.to_string (Json.String k) ^ ": " ^ value v in
  match doc with
  | Json.Obj members ->
      "{\n  " ^ String.concat ",\n  " (List.map field members) ^ "\n}\n"
  | v -> value v ^ "\n"

let load_bench_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      Printf.eprintf "bench: cannot read %s\n" e;
      exit 2
  | data -> (
      match Json.parse data with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "bench: %s does not parse: %s\n" path e;
          exit 2)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Perf-regression gate: shape claims, then a compare to a baseline    *)
(* ------------------------------------------------------------------ *)

let row_key keys row =
  String.concat "|"
    (List.map
       (fun k ->
         match Json.member k row with
         | Some v -> Json.to_string v
         | None -> "?")
       keys)

(* For every array an experiment in [selected] fills: each row carries
   exactly "experiment" and the spec's columns, names one of the
   array's owners, and every claim holds. Prints one line per failure
   and returns their number. *)
let check_shape ~selected doc =
  let failures = ref 0 and claims = ref 0 in
  List.iter
    (fun spec ->
      if List.exists (fun e -> List.mem e selected) spec.owners then begin
        claims := !claims + List.length spec.shape;
        let rows = rows_of spec.name doc in
        let fail what =
          incr failures;
          Printf.printf "  SHAPE %s: %s\n" spec.name what
        in
        let columns = "experiment" :: spec.columns in
        List.iter
          (fun r ->
            match (r, text "experiment" r) with
            | Json.Obj fields, Some e
              when List.map fst fields = columns && List.mem e spec.owners ->
                ()
            | _ ->
                fail
                  (Printf.sprintf "row [%s] is not {%s} from %s"
                     (row_key spec.keys r) (String.concat ", " columns)
                     (String.concat "/" spec.owners)))
          rows;
        List.iter
          (fun (claim, holds) -> if not (holds rows) then fail claim)
          spec.shape
      end)
    specs;
  Printf.printf "bench shape: %d claim(s) checked, %d failure(s)\n" !claims
    !failures;
  !failures

(* Wall-clock measurements move with machine load; simulated values are
   deterministic. The gate distinguishes four classes so it can be
   strict where the model guarantees stability and tolerant only where
   the host machine is in the loop. *)
type field_class =
  | Exact  (* deterministic ints, strings, bools *)
  | Simulated  (* simulated-time floats: 5% either way *)
  | Wall_cost  (* wall-clock ns/ms: fail only on a large increase *)
  | Wall_rate  (* wall-clock rate: fail only on a large decrease *)
  | Unstable  (* wall-clock-derived ratio: too noisy to gate *)

let classify_field = function
  | "ns_per_event" | "analyze_ns" | "ms" -> Wall_cost
  | "states_per_s" -> Wall_rate
  | "overhead_pct" -> Unstable
  | "total_ms" | "rsa_ms" | "compile_ms" | "link_ms_per_ok" | "p50_ms"
  | "p95_ms" | "p99_ms" | "naive_p50_ms" | "naive_p95_ms" | "cache_hit_pct"
  | "availability_pct" | "fanout" | "fault_rate" | "retention_pct" ->
      Simulated
  | _ -> Exact

(* How far a wall-clock cost may grow (or a rate shrink) before the
   gate trips: default 75%, overridable for noisy CI hosts. A value
   that is not a positive number is refused rather than replaced. *)
let wall_tolerance () =
  match Sys.getenv_opt "SDDS_BENCH_WALL_TOL" with
  | None -> 0.75
  | Some s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0.0 -> f
      | _ ->
          Printf.eprintf
            "bench: bad SDDS_BENCH_WALL_TOL %S (want a positive number, e.g. \
             0.75)\n"
            s;
          exit 2)

(* --inject-regression FIELD=FACTOR: the self-test for the gate (CI
   asserts the gate then fails). It needs a baseline: the injected value
   is FACTOR times the baseline's. *)
let parse_injection spec =
  match String.index_opt spec '=' with
  | None ->
      Printf.eprintf "bench: bad --inject-regression %S (want FIELD=FACTOR)\n"
        spec;
      exit 2
  | Some i -> (
      match
        float_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
      with
      | Some f -> (String.sub spec 0 i, f)
      | None ->
          Printf.eprintf "bench: bad --inject-regression factor in %S\n" spec;
          exit 2)

(* Set every field named [field] of a gated row to [factor] times its
   value in the baseline's matching row, so the injected regression has
   the same size however fast the host ran this time. Rows and fields the
   baseline lacks keep their value. *)
let inject_regression ~base (field, factor) doc =
  let inject spec row =
    let key = row_key spec.keys row in
    let same b = row_key spec.keys b = key in
    match (List.find_opt same (rows_of spec.name base), row) with
    | Some brow, Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match Option.bind (Json.member k brow) Json.to_float_opt with
               | Some b when k = field -> (k, Json.Float (b *. factor))
               | _ -> (k, v))
             fields)
    | _ -> row
  in
  match doc with
  | Json.Obj members ->
      Json.Obj
        (List.map
           (fun (name, v) ->
             match List.find_opt (fun s -> s.name = name) specs with
             | Some spec ->
                 (name, Json.List (List.map (inject spec) (rows_of name doc)))
             | None -> (name, v))
           members)
  | j -> j

(* Compare [current] against the baseline document: each field of a
   matched row by its class, and every baseline row and field of a
   [selected] experiment must be produced. Prints a readable diff;
   returns the number of regressions. *)
let compare_baseline ~tol ~selected ~baseline_path base current =
  if text "schema" base <> Some schema || text "schema" current <> Some schema
  then begin
    Printf.eprintf
      "bench: schema mismatch (want %s; baseline %s, current %s) — \
       regenerate the baseline with --update-baseline\n"
      schema
      (Option.value ~default:"?" (text "schema" base))
      (Option.value ~default:"?" (text "schema" current));
    exit 2
  end;
  (match (Json.member "smoke" base, Json.member "smoke" current) with
  | Some b, Some c when b = c -> ()
  | b, c ->
      let show = Option.fold ~none:"?" ~some:Json.to_string in
      Printf.eprintf
        "bench: smoke mismatch (baseline %s, current %s) — a smoke run only \
         compares against a smoke baseline\n"
        (show b) (show c);
      exit 2);
  let regressions = ref 0 in
  let checked = ref 0 in
  let complain what reason =
    incr regressions;
    Printf.printf "  REGRESSION %s: %s\n" what reason
  in
  let pct cur base =
    if base = 0.0 then Float.nan else 100.0 *. ((cur /. base) -. 1.0)
  in
  let finite b c = Float.is_finite b && Float.is_finite c in
  (* Why [cv] regresses from [bv] under [field]'s class, if it does. *)
  let verdict field bv cv =
    match
      (classify_field field, Json.to_float_opt bv, Json.to_float_opt cv)
    with
    | Unstable, _, _ -> None
    | Exact, _, _ ->
        if cv <> bv then Some "deterministic field changed" else None
    | Simulated, Some b, Some c ->
        if
          finite b c
          && Float.abs (c -. b) > 0.05 *. Float.max 1.0 (Float.abs b)
        then
          Some
            (Printf.sprintf "simulated value moved %+.1f%%, tolerance 5%%"
               (pct c b))
        else None
    | Simulated, _, _ -> if cv <> bv then Some "value changed" else None
    | Wall_cost, Some b, Some c
      when finite b c && b > 0.0 && c > b *. (1.0 +. tol) ->
        Some
          (Printf.sprintf "wall-clock cost up %+.1f%%, tolerance %+.0f%%"
             (pct c b) (100.0 *. tol))
    | Wall_rate, Some b, Some c
      when finite b c && b > 0.0 && c < b /. (1.0 +. tol) ->
        Some
          (Printf.sprintf "wall-clock rate down %.1f%%, tolerance %.0f%%"
             (-.pct c b) (100.0 *. tol))
    | (Wall_cost | Wall_rate), _, _ -> None
  in
  List.iter
    (fun spec ->
      let brows = rows_of spec.name base
      and crows = rows_of spec.name current in
      let find key rows =
        List.find_opt (fun r -> row_key spec.keys r = key) rows
      in
      List.iter
        (fun crow ->
          let key = row_key spec.keys crow in
          if find key brows = None then
            Printf.printf "  note: %s[%s] is new (not in baseline)\n" spec.name
              key)
        crows;
      List.iter
        (fun brow ->
          let key = row_key spec.keys brow in
          let at field = Printf.sprintf "%s[%s].%s" spec.name key field in
          match (text "experiment" brow, find key crows) with
          | Some e, _ when not (List.mem e selected) -> ()
          | _, None ->
              complain
                (Printf.sprintf "%s[%s]" spec.name key)
                "baseline row not produced by this run"
          | _, Some crow ->
              let fields = function Json.Obj f -> f | _ -> [] in
              List.iter
                (fun (field, bv) ->
                  if not (List.mem field spec.keys) then
                    match Json.member field crow with
                    | None ->
                        complain (at field)
                          "baseline field not produced by this run"
                    | Some cv -> (
                        incr checked;
                        match verdict field bv cv with
                        | None -> ()
                        | Some reason ->
                            complain (at field)
                              (Printf.sprintf "baseline %s -> current %s (%s)"
                                 (Json.to_string bv) (Json.to_string cv)
                                 reason)))
                (fields brow);
              List.iter
                (fun (field, _) ->
                  if Json.member field brow = None then
                    Printf.printf "  note: %s is new (not in baseline)\n"
                      (at field))
                (fields crow))
        brows)
    specs;
  Printf.printf
    "bench compare: %d field(s) checked against %s, %d regression(s), \
     wall tolerance %.0f%%\n"
    !checked baseline_path !regressions (100.0 *. tol);
  !regressions

(* Shared identities: RSA keygen is slow, reuse across experiments. *)
let ids =
  lazy
    (let d = Drbg.create ~seed:"bench-identities" in
     let publisher = Rsa.generate d ~bits:512 in
     let user = Rsa.generate d ~bits:512 in
     (publisher, user))

(* A one-document world (doc "bench", [rules] for subject "u") and a
   card of [profile] for its user. *)
let make_world ?(profile = Cost.egate) ?chunk_bytes ~doc ~rules () =
  let publisher, user = Lazy.force ids in
  let w =
    World.create (Drbg.create ~seed:"bench-world") ~publisher ~user
      ?chunk_bytes [ ("bench", doc, rules) ]
  in
  (w, Card.create ~profile ~subject:"u" user)

(* The world of the fleet experiments: [ndocs] wards named by
   [doc_id], hospital i generated from seed [seed + i]. *)
let ward_world label ~doc_id ~seed ndocs =
  let publisher, user = Lazy.force ids in
  World.create (Drbg.create ~seed:label) ~publisher ~user
    (World.wards ~doc_id ~seed:(( + ) seed) ndocs)

(* Nearest-rank percentile of an ascending array; nan when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let query_report ?xpath w card =
  let proxy = Proxy.create ~store:(World.store w) ~card in
  match Proxy.run proxy (Proxy.Request.make ?xpath "bench") with
  | Ok o -> Ok o
  | Error e -> Error (Format.asprintf "%a" Proxy.pp_error e)

(* ------------------------------------------------------------------ *)
(* E1: dataset table                                                   *)
(* ------------------------------------------------------------------ *)

let e1_datasets () =
  header "E1" "dataset characteristics (generators standing in for the paper's datasets)";
  Printf.printf "%s %10s %8s\n" Stats.header "encoded" "index%";
  let show name gen =
    let rng = Rng.create 1L in
    let doc = Generator.scaled gen rng ~approx_bytes:100_000 in
    let stats = Stats.compute doc in
    let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
    let s = Reader.size_stats encoded in
    Printf.printf "%s %10d %7.1f%%\n"
      (Stats.row ~name stats)
      s.Reader.total_bytes
      (100.0 *. float_of_int s.Reader.metadata_bytes /. float_of_int s.Reader.total_bytes)
  in
  show "hospital" Generator.hospital_units;
  show "agenda" Generator.agenda_units;
  show "sigmod" Generator.sigmod_units;
  show "auction" Generator.auction_units;
  show "feed" Generator.feed_units;
  print_endline
    "\nshape check: hospital deep/recursive, agenda shallow/regular,\n\
     sigmod bibliographic; index overhead stays in single digits."

(* ------------------------------------------------------------------ *)
(* E2: engine throughput vs number of rules                            *)
(* ------------------------------------------------------------------ *)

let e2_rules_scaling () =
  header "E2" "streaming engine throughput vs rule-set size (wall clock, Bechamel)";
  let rng = Rng.create 2L in
  let doc = Generator.agenda rng ~courses:300 in
  let events = Dom.to_events doc in
  let n_events = List.length events in
  let tags = Array.of_list (Dom.distinct_tags doc) in
  let values = [| "2"; "3"; "100"; "sloan" |] in
  let cfg =
    { Sdds_xpath.Random_path.default with max_steps = 3; predicate_probability = 0.4 }
  in
  let mk_rules n =
    let r = Rng.create 77L in
    List.init n (fun _ ->
        {
          Rule.sign = (if Rng.bool r then Rule.Allow else Rule.Deny);
          subject = "u";
          path = Sdds_xpath.Random_path.generate r cfg ~tags ~values;
        })
  in
  Printf.printf "%6s %12s %14s %12s %12s %12s\n" "rules" "ns/event" "events/s"
    "peak_tokens" "token_visits" "words/event";
  List.iter
    (fun n ->
      let rules = mk_rules n in
      let ns =
        ns_of ~name:(Printf.sprintf "rules-%d" n) (fun () ->
            let t = Engine.create rules in
            List.iter (fun ev -> ignore (Engine.feed t ev)) events;
            Engine.finish t)
      in
      let per_event = ns /. float_of_int n_events in
      (* One instrumented run for the state metrics. *)
      let t = Engine.create rules in
      List.iter (fun ev -> ignore (Engine.feed t ev)) events;
      Engine.finish t;
      let st = Engine.stats t in
      let words = minor_words_per_event rules events in
      record "records" ~experiment:"E2"
        Json.
          [ ("case", String (Printf.sprintf "rules-%d" n));
            ("dispatch", Bool true); ("events", Int n_events);
            ("ns_per_event", Float per_event);
            ("peak_tokens", Int st.Engine.peak_tokens);
            ("token_visits", Int st.Engine.token_visits);
            ("minor_words_per_event", Float words) ];
      Printf.printf "%6d %12.0f %14.0f %12d %12d %12.1f\n" n per_event
        (1e9 /. per_event) st.Engine.peak_tokens st.Engine.token_visits words)
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  print_endline
    "\nshape check: ns/event grows roughly linearly with the number of\n\
     simultaneously live automata (token visits), staying in the\n\
     sub-microsecond range per rule."

(* ------------------------------------------------------------------ *)
(* E3: skip index benefit vs authorized ratio                          *)
(* ------------------------------------------------------------------ *)

let e3_skip_benefit () =
  header "E3"
    "time vs authorized ratio, with and without skip index (e-gate model)";
  let rng = Rng.create 3L in
  let doc = Generator.hospital_named rng ~patients:90 in
  let doc_bytes = String.length (Serializer.to_string doc) in
  let total_elems = Dom.node_count doc in
  Printf.printf "document: %d bytes XML, %d elements\n\n" doc_bytes total_elems;
  Printf.printf "%5s %6s | %10s %10s %8s | %10s | %8s\n" "depts" "auth%"
    "idx_ms" "xfer_ms" "chunks" "noidx_ms" "speedup";
  let depts = Generator.department_tags in
  List.iter
    (fun k ->
      (* Closed world: no explicit deny needed, which also keeps the rule
         automata count (and the card's token stack) minimal. *)
      let rules =
        List.filteri
          (fun i _ -> i < k)
          (List.map
             (fun d -> Rule.allow ~subject:"u" ("//" ^ d))
             (Array.to_list depts))
      in
      let auth =
        List.length (Oracle.allowed_ids ~rules doc) * 100 / total_elems
      in
      let run use_index =
        (* 128-byte chunks: the e-gate chunk buffer must share 1 KB with
           the evaluator state. *)
        let w, card = make_world ~chunk_bytes:128 ~doc ~rules () in
        let store = World.store w in
        let proxy = Proxy.create ~store ~card in
        if use_index then
          match Proxy.run proxy (Proxy.Request.make "bench") with
          | Ok o -> o.Proxy.card_report
          | Error e -> failwith (Format.asprintf "%a" Proxy.pp_error e)
        else begin
          (* No request walks without the index: the baseline calls the
             card directly. *)
          let published = Option.get (Store.get_document store "bench") in
          let encrypted_rules =
            Option.get (Store.get_rules store ~doc_id:"bench" ~subject:"u")
          in
          (match
             Store.get_grant store ~doc_id:"bench" ~subject:"u"
           with
          | Some wrapped ->
              ignore (Card.install_wrapped_key card ~doc_id:"bench" ~wrapped)
          | None -> ());
          match
            Card.evaluate card
              (Publish.to_source published ~delivery:`Pull)
              ~encrypted_rules ~use_index:false ()
          with
          | Ok (_, report) -> report
          | Error e -> failwith (Format.asprintf "%a" Card.pp_error e)
        end
      in
      let with_idx = run true and without = run false in
      let bi = with_idx.Card.breakdown and bn = without.Card.breakdown in
      Printf.printf "%5d %5d%% | %10.0f %10.0f %4d/%-4d | %10.0f | %7.2fx\n" k
        auth bi.Cost.total_ms bi.Cost.transfer_ms with_idx.Card.chunks_consumed
        with_idx.Card.chunks_total bn.Cost.total_ms
        (bn.Cost.total_ms /. bi.Cost.total_ms))
    [ 0; 1; 2; 3; 4; 5; 6 ];
  print_endline
    "\nshape check: with the index, cost tracks the authorized volume;\n\
     the no-index baseline pays the full document everywhere. The two\n\
     meet as the authorized ratio approaches 100% (index overhead no\n\
     longer amortized) - the crossover reported in the original paper."

(* ------------------------------------------------------------------ *)
(* E4: index storage overhead and recursive compression                *)
(* ------------------------------------------------------------------ *)

let e4_index_overhead () =
  header "E4" "skip-index storage overhead (recursive vs flat bitmaps, thresholding)";
  Printf.printf "%-10s %8s | %9s %9s %9s %9s\n" "dataset" "bytes" "plain"
    "flat" "recursive" "rec+thr0";
  let datasets =
    [ ("hospital", Generator.hospital_units); ("agenda", Generator.agenda_units);
      ("sigmod", Generator.sigmod_units) ]
  in
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun target ->
          let rng = Rng.create 4L in
          let doc = Generator.scaled gen rng ~approx_bytes:target in
          let overhead ?meta_threshold mode =
            let s =
              Reader.size_stats (Encode.encode ?meta_threshold ~mode doc)
            in
            100.0 *. float_of_int s.Reader.metadata_bytes
            /. float_of_int s.Reader.total_bytes
          in
          Printf.printf "%-10s %8d | %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n" name
            target
            (overhead Encode.Plain)
            (overhead (Encode.Indexed { recursive = false }))
            (overhead (Encode.Indexed { recursive = true }))
            (overhead ~meta_threshold:0 (Encode.Indexed { recursive = true })))
        [ 10_000; 100_000; 500_000 ])
    datasets;
  print_endline
    "\nshape check: recursive bitmap compression roughly halves the flat\n\
     overhead; the size threshold keeps the total in single digits\n\
     (indexing every element, thr=0, is visibly worse)."

(* ------------------------------------------------------------------ *)
(* E5: SOE RAM ceiling                                                 *)
(* ------------------------------------------------------------------ *)

let e5_ram_budget () =
  header "E5" "evaluator working set vs document depth and rule count (1 KB card)";
  let budget = Cost.egate.Cost.ram_bytes in
  (* The card's charge, by its RAM layout. e-gate deployments use
     128-byte chunks so the chunk buffer shares the 1 KB with the
     evaluator (cf. E3/E6). *)
  let charge ~state_words ~reader_words ~tags =
    Ram.charge ~state_words ~reader_words ~tags ~held_bytes:0 ~chunk_bytes:128
  in
  Printf.printf "fixed overhead (chunk buffer + runtime): %dB of %dB\n\n"
    (charge ~state_words:0 ~reader_words:0 ~tags:0)
    budget;
  Printf.printf "%6s %6s | %10s %10s %8s %9s %6s\n" "depth" "rules"
    "engine_B" "reader_B" "tags_B" "total_B" "fits?";
  let deep_doc depth =
    (* A spine of nested sections whose tags cycle with depth (as nested
       folders/sections do in real documents), each level carrying a few
       leaves. *)
    let tag d = Printf.sprintf "s%d" (d mod 8) in
    let rec build d =
      let leaves =
        [ Dom.element "leaf" [ Dom.text "x" ]; Dom.element "meta" [] ]
      in
      if d >= depth then Dom.element (tag d) leaves
      else Dom.element (tag d) (leaves @ [ build (d + 1) ])
    in
    build 0
  in
  let mk_rules n =
    List.init n (fun i ->
        Rule.make
          (if i mod 3 = 0 then Rule.Deny else Rule.Allow)
          ~subject:"u"
          (match i mod 4 with
          | 0 -> Printf.sprintf "//s%d/leaf" (i mod 8)
          | 1 -> Printf.sprintf "//s%d[leaf]//meta" (i mod 8)
          | 2 -> Printf.sprintf "//s%d//s%d" (i mod 8) ((i + 3) mod 8)
          | _ -> Printf.sprintf "/s0//s%d/meta" (i mod 8)))
  in
  List.iter
    (fun (depth, nrules) ->
      let doc = deep_doc depth in
      let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
      let res = Indexed_engine.run ~use_index:false (mk_rules nrules) encoded in
      let state_words = res.Indexed_engine.engine_stats.Engine.peak_state_words in
      let reader_words = res.Indexed_engine.reader_peak_words in
      let tags = Ram.tag_table_entries res.Indexed_engine.outputs in
      let total = charge ~state_words ~reader_words ~tags in
      Printf.printf "%6d %6d | %10d %10d %8d %9d %6s\n" depth nrules
        (Ram.field_bytes state_words)
        (Ram.field_bytes reader_words)
        (Ram.field_bytes tags) total
        (if total <= budget then "yes" else "NO"))
    [ (4, 4); (8, 4); (16, 4); (32, 4); (64, 4);
      (8, 1); (8, 8); (8, 16); (8, 32); (8, 64);
      (32, 32); (64, 64) ];
  print_endline
    "\nshape check: the working set grows with depth x rules, never with\n\
     document length; policies of a few rules on documents of modest\n\
     depth fit the 1 KB card, and the wall is the depth x rules product\n\
     (roughly beyond ~50) - the hard limit the paper designed against."

(* ------------------------------------------------------------------ *)
(* E6: end-to-end pull latency                                         *)
(* ------------------------------------------------------------------ *)

let e6_e2e_pull () =
  header "E6" "end-to-end pull latency through the full architecture";
  Printf.printf "%8s %7s | %10s %10s %10s | %10s | %10s\n" "XML_B" "policy"
    "egate_ms" "xfer_ms" "crypto_ms" "modern_ms" "server_ms";
  let policies =
    [ ("broad", [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]);
      ("narrow", [ Rule.allow ~subject:"u" "//admission" ]) ]
  in
  List.iter
    (fun patients ->
      List.iter
        (fun (pname, rules) ->
          let rng = Rng.create 6L in
          let doc = Generator.hospital rng ~patients in
          let xml_bytes = String.length (Serializer.to_string doc) in
          let run profile =
            let w, card = make_world ~profile ~chunk_bytes:128 ~doc ~rules () in
            match query_report w card with
            | Ok o -> o.Proxy.card_report.Card.breakdown
            | Error e -> failwith e
          in
          let egate = run Cost.egate in
          let modern = run Cost.modern in
          (* Server-side baseline: plaintext evaluation at the DSP, only
             the view crosses the 2 KB/s link. *)
          let srv = Server_side.evaluate ~rules doc in
          let server_ms =
            1000.0
            *. float_of_int srv.Server_side.view_bytes
            /. Cost.egate.Cost.link_bytes_per_s
          in
          Printf.printf "%8d %7s | %10.0f %10.0f %10.0f | %10.1f | %10.0f\n"
            xml_bytes pname egate.Cost.total_ms egate.Cost.transfer_ms
            egate.Cost.crypto_ms modern.Cost.total_ms server_ms)
        policies)
    [ 10; 40; 120 ];
  print_endline
    "\nshape check: on the 2 KB/s card the link dominates end-to-end\n\
     latency (as the paper observes); the narrow policy rides the skip\n\
     index down to near the trusted-server lower bound, which trades\n\
     those seconds for trusting the DSP."

(* ------------------------------------------------------------------ *)
(* E7: push dissemination sustained rate                               *)
(* ------------------------------------------------------------------ *)

let e7_dissemination () =
  header "E7" "selective dissemination: sustained item rate per subscriber";
  let rng = Rng.create 7L in
  let doc = Generator.feed_tagged rng ~events:400 in
  let n_items = List.length (Dom.children doc) in
  Printf.printf "feed: %d items, %d bytes XML\n\n" n_items
    (String.length (Serializer.to_string doc));
  Printf.printf "%-22s | %9s %12s %12s %11s\n" "subscription" "items"
    "dec_chunks" "egate it/s" "modern it/s";
  let subs =
    [ ("all channels", [ Rule.allow ~subject:"u" "//feed" ]);
      ("one channel (sports)", [ Rule.allow ~subject:"u" "//sports" ]);
      ( "two channels",
        [ Rule.allow ~subject:"u" "//sports"; Rule.allow ~subject:"u" "//news" ] );
      ( "content-based (G only)",
        [ Rule.allow ~subject:"u" {|//*[rating="G"]|} ] ) ]
  in
  List.iter
    (fun (name, rules) ->
      let rate profile =
        (* 64-byte chunks: items are ~250 encoded bytes, so an item-sized
           skip frees several whole chunks. *)
        let w, card = make_world ~profile ~chunk_bytes:64 ~doc ~rules () in
        let proxy = Proxy.create ~store:(World.store w) ~card in
        match Proxy.run proxy (Proxy.Request.make ~delivery:`Push "bench") with
        | Ok o ->
            let r = o.Proxy.card_report in
            let items =
              match Lazy.force o.Proxy.view with
              | Some v -> List.length (Dom.children v)
              | None -> 0
            in
            (items, r, float_of_int n_items /. (r.Card.breakdown.Cost.total_ms /. 1000.0))
        | Error e -> failwith (Format.asprintf "%a" Proxy.pp_error e)
      in
      let items, r, egate_rate = rate Cost.egate in
      let _, _, modern_rate = rate Cost.modern in
      Printf.printf "%-22s | %9d %7d/%-4d %12.1f %11.0f\n" name items
        r.Card.chunks_consumed r.Card.chunks_total egate_rate modern_rate)
    subs;
  print_endline
    "\nshape check: structural subscriptions decrypt only their channels\n\
     (the broadcast still crosses the link - push mode); content-based\n\
     rules must decrypt everything since the index summarizes structure,\n\
     not values - exactly the paper's design point."

(* ------------------------------------------------------------------ *)
(* E8: dynamic policy change vs static encryption                      *)
(* ------------------------------------------------------------------ *)

let e8_policy_change () =
  header "E8" "cost of a policy change: rule-blob rewrite vs re-encryption";
  let subjects = [ "alice"; "bob"; "carol"; "dave" ] in
  let base_rules =
    [ Rule.allow ~subject:"alice" "//patient"; Rule.deny ~subject:"alice" "//ssn";
      Rule.allow ~subject:"bob" "//admission";
      Rule.allow ~subject:"carol" "//department";
      Rule.deny ~subject:"carol" "//folder";
      Rule.allow ~subject:"dave" "//prescription" ]
  in
  let change_rules =
    (* Grant bob the folders - the unpredictable evolution of §1. *)
    Rule.allow ~subject:"bob" "//folder" :: base_rules
  in
  Printf.printf "%9s | %14s | %14s %12s %10s\n" "doc_bytes" "ours:blob_B"
    "static:reenc_B" "elements" "key_deliv";
  List.iter
    (fun patients ->
      let rng = Rng.create 8L in
      let doc = Generator.hospital rng ~patients in
      let doc_bytes = String.length (Serializer.to_string doc) in
      let drbg = Drbg.create ~seed:"e8" in
      let publisher, _ = Lazy.force ids in
      (* Ours: the policy change rewrites bob's encrypted rule blob. *)
      let doc_key = Wire.fresh_doc_key drbg in
      let blob =
        Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"e8"
          ~subject:"bob"
          (Rule.for_subject "bob" change_rules)
      in
      (* Static encryption: rebuild classes, re-encrypt movers. *)
      let static = Static_enc.build drbg ~subjects ~rules:base_rules doc in
      let _, cost = Static_enc.update drbg static ~rules:change_rules in
      Printf.printf "%9d | %14d | %14d %12d %10d\n" doc_bytes
        (String.length blob) cost.Static_enc.reencrypted_bytes
        cost.Static_enc.reencrypted_elements cost.Static_enc.keys_redistributed)
    [ 10; 40; 120; 360 ];
  print_endline
    "\nshape check: our cost is the (constant-size) rule blob regardless\n\
     of document size; static encryption re-encrypts every element that\n\
     changed sharing class - growing linearly with the dataset - and\n\
     must redistribute fresh keys to affected readers.";
  (* The honest counterpoint: truly revoking a user who already holds the
     document key forces a key rotation - full re-encryption - in BOTH
     schemes. The advantage of dissociating rights from encryption is for
     grants and rule changes, not for key revocation. *)
  print_endline "";
  Printf.printf "%9s | %17s | %17s\n" "doc_bytes" "grant change (B)"
    "true revocation (B)";
  List.iter
    (fun patients ->
      let rng = Rng.create 88L in
      let doc = Generator.hospital rng ~patients in
      let drbg = Drbg.create ~seed:"e8-rot" in
      let publisher, _ = Lazy.force ids in
      let published, doc_key =
        Publish.publish drbg ~publisher ~doc_id:"e8" doc
      in
      let blob =
        Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"e8"
          ~subject:"bob"
          (Rule.for_subject "bob" change_rules)
      in
      let rotated, _ = Publish.rotate drbg ~publisher ~old_key:doc_key published in
      let rotated_bytes =
        Array.fold_left (fun a c -> a + String.length c) 0
          rotated.Publish.chunks
      in
      Printf.printf "%9d | %17d | %17d\n"
        (String.length (Serializer.to_string doc))
        (String.length blob) rotated_bytes)
    [ 10; 40; 120 ]

(* ------------------------------------------------------------------ *)
(* E9: tamper detection                                                *)
(* ------------------------------------------------------------------ *)

let e9_tampering () =
  header "E9" "tampering with the encrypted store: detection by the card";
  let rng = Rng.create 9L in
  let doc = Generator.hospital rng ~patients:20 in
  let rules = [ Rule.allow ~subject:"u" "//admission" ] in
  (* One clean run to learn which chunks a query consumes. *)
  let w, card = make_world ~doc ~rules () in
  let mask =
    match query_report w card with
    | Ok o -> o.Proxy.card_report.Card.consumed_mask
    | Error e -> failwith e
  in
  let consumed_chunk =
    let rec find i = if mask.(i) then i else find (i + 1) in
    find 0
  in
  let skipped_chunk =
    let rec find i = if not mask.(i) then Some i else if i + 1 < Array.length mask then find (i + 1) else None in
    find 0
  in
  Printf.printf "policy consumes %d of %d chunks\n\n"
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask)
    (Array.length mask);
  Printf.printf "%-34s %-10s %s\n" "attack" "target" "outcome";
  let attack name target tamper =
    let w, card = make_world ~doc ~rules () in
    tamper (World.store w);
    let outcome =
      match query_report w card with
      | Error e -> "REJECTED (" ^ e ^ ")"
      | Ok o -> (
          (* Undetected is acceptable only if the data was never used and
             the view is still correct. *)
          match
            (Oracle.authorized_view ~rules doc, Lazy.force o.Proxy.view)
          with
          | None, None -> "unused - view unaffected"
          | Some a, Some b when Dom.equal a b -> "unused - view unaffected"
          | _ -> "!!! SILENT CORRUPTION !!!")
    in
    Printf.printf "%-34s %-10s %s\n" name target outcome
  in
  attack "substitute chunk (random bytes)" "consumed" (fun store ->
      Store.tamper_substitute store ~doc_id:"bench" ~chunk:consumed_chunk
        (String.make 256 '\x41'));
  attack "flip one ciphertext bit" "consumed" (fun store ->
      Store.tamper_flip_bit store ~doc_id:"bench" ~chunk:consumed_chunk ~bit:7);
  attack "swap two chunks" "consumed" (fun store ->
      Store.tamper_swap store ~doc_id:"bench" consumed_chunk
        (consumed_chunk + 1));
  attack "truncate trailing chunks" "tail" (fun store ->
      Store.tamper_truncate store ~doc_id:"bench"
        ~keep_chunks:(Array.length mask - 2));
  (match skipped_chunk with
  | Some c ->
      attack "flip bit in a skipped chunk" "skipped" (fun store ->
          Store.tamper_flip_bit store ~doc_id:"bench" ~chunk:c ~bit:3)
  | None -> print_endline "(no skipped chunk under this policy)");
  print_endline
    "\nshape check: every attack touching data the card uses is rejected\n\
     (Merkle proof against the signed root); tampering with chunks the\n\
     skip index discards never reaches the user - and is caught the\n\
     moment any policy consumes them."

(* ------------------------------------------------------------------ *)
(* E10: crypto microbenchmarks (cost-model calibration)                *)
(* ------------------------------------------------------------------ *)

let e10_crypto_micro () =
  header "E10"
    "crypto microbenchmarks on this host (Bechamel wall clock; minor words \
     per call)";
  let aes_key = Sdds_crypto.Aes.expand_key (String.make 16 'k') in
  let block = Bytes.make 16 'b' in
  let kb = String.make 1024 'x' in
  let leaves = List.init 64 (fun i -> Printf.sprintf "leaf-%d-%s" i (String.make 200 'c')) in
  let tree = Sdds_crypto.Merkle.build leaves in
  let root = Sdds_crypto.Merkle.root tree in
  let proof = Sdds_crypto.Merkle.prove tree 17 in
  (* The card's per-request check: one multiproof over the consumed
     chunks, here 48 of 64. *)
  let wanted = Array.init 64 (fun i -> i mod 4 <> 3) in
  let multiproof = Sdds_crypto.Merkle.multiprove tree wanted in
  let wanted_leaves = List.filteri (fun i _ -> wanted.(i)) leaves in
  let drbg = Drbg.create ~seed:"e10" in
  let kp = Rsa.generate drbg ~bits:512 in
  let signature = Rsa.sign kp.Rsa.secret "msg" in
  Printf.printf "%-28s %12s %14s %10s\n" "operation" "ns/op" "ops/s"
    "words/op";
  (* Allocation is deterministic: one call's minor words. *)
  let row name f =
    let ns = ns_of ~name f in
    let before = Gc.minor_words () in
    f ();
    let words = Gc.minor_words () -. before in
    Printf.printf "%-28s %12.0f %14.0f %10.0f\n" name ns (1e9 /. ns) words
  in
  row "aes128 encrypt block" (fun () ->
      Sdds_crypto.Aes.encrypt_block aes_key block 0 block 0);
  row "aes128 decrypt block" (fun () ->
      Sdds_crypto.Aes.decrypt_block aes_key block 0 block 0);
  row "sha256 1KB" (fun () -> ignore (Sdds_crypto.Sha256.digest kb));
  row "hmac-sha256 1KB" (fun () -> ignore (Sdds_crypto.Hmac.mac ~key:"k" kb));
  row "merkle build 64x200B" (fun () -> ignore (Sdds_crypto.Merkle.build leaves));
  row "merkle verify 1 proof" (fun () ->
      ignore
        (Sdds_crypto.Merkle.verify ~root ~leaf_count:64 ~index:17
           ~leaf:(List.nth leaves 17) proof));
  row "merkle multiverify 48 of 64" (fun () ->
      ignore
        (Sdds_crypto.Merkle.multiverify ~root ~leaf_count:64 ~wanted
           ~leaves:wanted_leaves multiproof));
  row "rsa-512 sign" (fun () -> ignore (Rsa.sign kp.Rsa.secret "msg"));
  row "rsa-512 verify" (fun () ->
      ignore (Rsa.verify kp.Rsa.public "msg" ~signature));
  Printf.printf
    "\ncalibration: the e-gate model charges %.0f us per AES block and\n\
     %.0f us per SHA block - 2-3 orders slower than this host, matching\n\
     the 2005 card-vs-workstation gap the paper worked against.\n"
    Cost.egate.Cost.aes_block_us Cost.egate.Cost.sha_block_us

(* ------------------------------------------------------------------ *)
(* E11: guarded-output overhead                                        *)
(* ------------------------------------------------------------------ *)

let e11_guard_overhead () =
  header "E11" "cost of sealing pending output (guard protocol ablation)";
  let rng = Rng.create 11L in
  let doc = Generator.hospital rng ~patients:30 in
  Printf.printf "%-34s | %10s %10s %8s %10s\n" "policy" "plain_B" "guarded_B"
    "guards" "withheld_B";
  let cases =
    [ ("no predicates (all static)",
       [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]);
      ("value predicate (age > 50)",
       [ Rule.allow ~subject:"u" {|//patient[age>"50"]|} ]);
      ("structural predicate ([folder])",
       [ Rule.allow ~subject:"u" "//patient[folder]/name" ]);
      ("predicate never satisfied",
       [ Rule.allow ~subject:"u" {|//patient[age>"150"]|} ]);
      ("patients, deny any age > 50",
       [ Rule.allow ~subject:"u" "//patient";
         Rule.deny ~subject:"u" {|//*[age>"50"]|} ]);
      ("[folder], deny patient age > 50",
       [ Rule.allow ~subject:"u" "//patient[folder]";
         Rule.deny ~subject:"u" {|//patient[age>"50"]|} ]) ]
  in
  List.iter
    (fun (name, rules) ->
      let outs = Engine.run rules (Dom.to_events doc) in
      let plain_bytes = Sdds_core.Output_codec.size_list outs in
      let drbg = Drbg.create ~seed:"e11" in
      let protector =
        Sdds_soe.Guard.Protector.create drbg ~has_query:false ()
      in
      let messages =
        List.concat_map (Sdds_soe.Guard.Protector.feed protector) outs
      in
      Sdds_soe.Guard.Protector.finish protector;
      let guarded_bytes = Sdds_soe.Guard.wire_bytes messages in
      let unsealer = Sdds_soe.Guard.Unsealer.create ~has_query:false () in
      List.iter (Sdds_soe.Guard.Unsealer.feed unsealer) messages;
      ignore (Sdds_soe.Guard.Unsealer.finish unsealer);
      Printf.printf "%-34s | %10d %10d %8d %10d\n" name plain_bytes
        guarded_bytes
        (Sdds_soe.Guard.Protector.peak_live_guards protector)
        (Sdds_soe.Guard.Unsealer.sealed_bytes_withheld unsealer))
    cases;
  print_endline
    "\nshape check: static policies pay nothing (no guards); pending\n\
     policies pay a few bytes per guard for key releases; text whose\n\
     condition fails stays withheld - ciphertext the terminal cannot\n\
     read."

(* ------------------------------------------------------------------ *)
(* E12: static rule simplification                                     *)
(* ------------------------------------------------------------------ *)

let e12_rule_simplify () =
  header "E12" "containment-based rule simplification (suspension made static)";
  let rng = Rng.create 12L in
  let doc = Generator.agenda rng ~courses:200 in
  let events = Dom.to_events doc in
  let n_events = List.length events in
  (* A rule set with heavy redundancy: broad rules plus narrow shadows. *)
  let redundant =
    List.concat_map
      (fun tag ->
        [ Rule.allow ~subject:"u" ("//" ^ tag);
          Rule.allow ~subject:"u" ("//course/" ^ tag);
          Rule.allow ~subject:"u" ("//courses//" ^ tag) ])
      [ "title"; "credit"; "instructor"; "place"; "time" ]
    @ [ Rule.deny ~subject:"u" "//instructor";
        Rule.deny ~subject:"u" "//course/instructor" ]
  in
  let simplified = Sdds_core.Rule_opt.simplify redundant in
  Printf.printf "rules: %d -> %d after simplification\n\n"
    (List.length redundant) (List.length simplified);
  let throughput name rules =
    let ns =
      ns_of ~name (fun () ->
          let t = Engine.create rules in
          List.iter (fun ev -> ignore (Engine.feed t ev)) events;
          Engine.finish t)
    in
    Printf.printf "%-12s %8.0f ns/event\n" name (ns /. float_of_int n_events)
  in
  throughput "raw" redundant;
  throughput "simplified" simplified;
  (* Sanity: identical views. *)
  let same =
    Oracle.authorized_view ~rules:redundant doc
    = Oracle.authorized_view ~rules:simplified doc
  in
  Printf.printf "\nviews identical: %b\n" same;
  print_endline
    "shape check: dropping subsumed automata cuts the per-event token\n\
     work proportionally - the paper's rule-suspension idea applied\n\
     before the automata are even built."

(* ------------------------------------------------------------------ *)
(* E13: incremental view delivery latency                              *)
(* ------------------------------------------------------------------ *)

let e13_view_latency () =
  header "E13" "time-to-first-item: buffering reassembler vs streaming view";
  let rng = Rng.create 13L in
  let doc = Generator.feed_tagged rng ~events:300 in
  let events = Dom.to_events doc in
  let n = List.length events in
  Printf.printf "%-26s | %18s %14s\n" "subscription" "first item at"
    "peak buffer";
  List.iter
    (fun (name, rules) ->
      let emitted = ref 0 in
      let first_at = ref None in
      let consumed = ref 0 in
      let sv =
        Sdds_core.Stream_view.create ~has_query:false
          ~emit:(fun _ ->
            incr emitted;
            if !first_at = None then first_at := Some !consumed)
          ()
      in
      let engine = Engine.create rules in
      List.iter
        (fun ev ->
          incr consumed;
          List.iter (Sdds_core.Stream_view.feed sv) (Engine.feed engine ev))
        events;
      Engine.finish engine;
      Sdds_core.Stream_view.finish sv;
      let first =
        match !first_at with
        | Some c -> Printf.sprintf "%d%% of stream" (c * 100 / n)
        | None -> "never"
      in
      Printf.printf "%-26s | %18s %11d nodes\n" name first
        (Sdds_core.Stream_view.peak_buffered_nodes sv))
    [ ("one channel (sports)", [ Rule.allow ~subject:"u" "//sports" ]);
      ("everything", [ Rule.allow ~subject:"u" "//feed" ]);
      ( "content-based (G)",
        [ Rule.allow ~subject:"u" {|//*[rating="G"]|} ] ) ];
  Printf.printf
    "(a buffering reassembler always delivers at 100%% of the stream and \
     buffers all %d items)\n"
    (List.length (Dom.children doc));
  print_endline
    "\nshape check: the streaming view delivers the first authorized item\n\
     within the first few events and buffers only unresolved regions -\n\
     the latency profile selective dissemination needs."

(* ------------------------------------------------------------------ *)
(* E14: per-tag token dispatch ablation                                *)
(* ------------------------------------------------------------------ *)

let e14_dispatch_ablation () =
  header "E14"
    "per-tag token dispatch: bucketed vs naive frame scan (wall clock)";
  let rng = Rng.create 14L in
  (* A tag-rich document: the hospital generator emits many distinct
     element names, so most frames hold tokens waiting on tags other
     than the one being opened — the case dispatch is built for. *)
  let doc = Generator.hospital rng ~patients:60 in
  let events = Dom.to_events doc in
  let n_events = List.length events in
  let rules =
    [
      Rule.allow ~subject:"u" "//patient";
      Rule.deny ~subject:"u" "//ssn";
      Rule.allow ~subject:"u" "//folder/prescription/drug";
      Rule.deny ~subject:"u" "//comment";
      Rule.deny ~subject:"u" {|//patient[age>"80"]|};
    ]
  in
  Printf.printf "document: %d events, %d rules\n\n" n_events
    (List.length rules);
  Printf.printf "%-10s %12s %12s %12s %12s\n" "mode" "ns/event" "peak_tokens"
    "token_visits" "words/event";
  let run dispatch =
    let ns =
      ns_of ~name:(if dispatch then "dispatch" else "naive") (fun () ->
          let t = Engine.create ~dispatch rules in
          List.iter (fun ev -> ignore (Engine.feed t ev)) events;
          Engine.finish t)
    in
    let per_event = ns /. float_of_int n_events in
    let t = Engine.create ~dispatch rules in
    let outs =
      List.concat_map (fun ev -> Engine.feed t ev) events
    in
    Engine.finish t;
    let st = Engine.stats t in
    let words = minor_words_per_event ~dispatch rules events in
    record "records" ~experiment:"E14"
      Json.
        [ ("case", String (if dispatch then "dispatch" else "naive"));
          ("dispatch", Bool dispatch); ("events", Int n_events);
          ("ns_per_event", Float per_event);
          ("peak_tokens", Int st.Engine.peak_tokens);
          ("token_visits", Int st.Engine.token_visits);
          ("minor_words_per_event", Float words) ];
    Printf.printf "%-10s %12.0f %12d %12d %12.1f\n"
      (if dispatch then "dispatch" else "naive")
      per_event st.Engine.peak_tokens st.Engine.token_visits words;
    (per_event, st.Engine.token_visits, outs)
  in
  let ns_d, visits_d, outs_d = run true in
  let ns_n, visits_n, outs_n = run false in
  (* The same pass read through the skip index. These rules touch every
     department, so nothing is skippable (E18): every event goes through
     the reader, and its words per event are the reader's and the
     engine's together. *)
  let encoded = Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc in
  let ns_i =
    ns_of ~name:"indexed" (fun () -> ignore (Indexed_engine.run rules encoded))
  in
  let before = Gc.minor_words () in
  let res = Indexed_engine.run rules encoded in
  let words = Gc.minor_words () -. before in
  let fed = res.Indexed_engine.events_fed in
  let st = res.Indexed_engine.engine_stats in
  let per_event = ns_i /. float_of_int fed in
  let words = words /. float_of_int fed in
  record "records" ~experiment:"E14"
    Json.
      [ ("case", String "indexed"); ("dispatch", Bool true);
        ("events", Int fed); ("ns_per_event", Float per_event);
        ("peak_tokens", Int st.Engine.peak_tokens);
        ("token_visits", Int st.Engine.token_visits);
        ("minor_words_per_event", Float words) ];
  Printf.printf "%-10s %12.0f %12d %12d %12.1f\n" "indexed" per_event
    st.Engine.peak_tokens st.Engine.token_visits words;
  Printf.printf
    "\ntoken visits: %.2fx fewer; ns/event: %.2fx; outputs identical: %b \
     (indexed: %b, %d of %d events fed)\n"
    (float_of_int visits_n /. float_of_int (max 1 visits_d))
    (ns_n /. ns_d)
    (Sdds_core.Output_codec.encode_list outs_d
    = Sdds_core.Output_codec.encode_list outs_n)
    (Sdds_core.Output_codec.encode_list outs_d
    = Sdds_core.Output_codec.encode_list res.Indexed_engine.outputs)
    fed n_events;
  print_endline
    "\nshape check: bucketing tokens by their next name test means an\n\
     open only touches tokens that can actually react to the tag, so\n\
     visits drop by the ratio of live-to-matching tokens while the\n\
     output stream stays byte-identical."

(* ------------------------------------------------------------------ *)
(* E15: multi-client serving (channels + prepared-evaluation cache)    *)
(* ------------------------------------------------------------------ *)

let e15_session_cache () =
  header "E15"
    "multi-client serving: logical channels + prepared-evaluation cache \
     (fleet profile)";
  let rng = Rng.create 15L in
  let doc = Generator.hospital rng ~patients:(if !smoke then 10 else 30) in
  let rules =
    [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]
  in
  let queries =
    [| None; Some "//patient"; Some "//patient/name"; Some "//admission" |]
  in
  let sizes = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  Printf.printf "document: %d bytes XML; %d logical channels\n\n"
    (String.length (Serializer.to_string doc))
    Sdds_soe.Apdu.max_channels;
  Printf.printf "%7s %5s | %9s %9s %9s %9s | %8s %9s %5s %5s | %9s %9s\n"
    "streams" "phase" "ms/req" "rsa_ms" "comp_ms" "xfer_ms" "frames" "bytes"
    "warm" "hits" "words/req" "pool w/r";
  List.iter
    (fun n ->
      let reqs =
        List.init n (fun i ->
            Proxy.Request.make
              ?xpath:queries.(i mod Array.length queries)
              "bench")
      in
      (* Card side: the same request list against one fleet card, twice —
         the meter shows what the warm round no longer pays. *)
      let w, card = make_world ~profile:Cost.fleet ~doc ~rules () in
      let proxy = Proxy.create ~store:(World.store w) ~card in
      (* A round's totals, and its minor words per request: allocation
         is deterministic, so the gate holds it exactly. *)
      let round () =
        let before = Gc.minor_words () in
        let totals =
          List.fold_left
            (fun (ms, rsa, comp, xfer, hits, views) req ->
              match Proxy.run proxy req with
              | Error e -> failwith (Format.asprintf "%a" Proxy.pp_error e)
              | Ok o ->
                  let r = o.Proxy.card_report in
                  let b = r.Card.breakdown in
                  ( ms +. b.Cost.total_ms,
                    rsa +. b.Cost.rsa_ms,
                    comp +. b.Cost.compile_ms,
                    xfer +. b.Cost.transfer_ms,
                    (if r.Card.prepared_hit then hits + 1 else hits),
                    o.Proxy.xml :: views ))
            (0., 0., 0., 0., 0, [])
            reqs
        in
        (totals, (Gc.minor_words () -. before) /. float_of_int n)
      in
      let ( (cold_ms, cold_rsa, cold_comp, cold_xfer, cold_hits, cold_views),
            cold_words ) =
        round ()
      in
      let ( (warm_ms, warm_rsa, warm_comp, warm_xfer, warm_hits, warm_views),
            warm_words ) =
        round ()
      in
      let identical = cold_views = warm_views in
      (* Wire side: a pool multiplexing the same requests over one APDU
         transport to a second, identically provisioned card. *)
      let w2, card2 = make_world ~profile:Cost.fleet ~doc ~rules () in
      let host =
        Remote_card.Host.create ~card:card2 ~resolve:(World.resolve w2) ()
      in
      let pool =
        Proxy.Pool.create ~store:(World.store w2)
          ~transport:(Remote_card.Host.process host) ~subject:"u" ()
      in
      let pool_round () =
        let before = Gc.minor_words () in
        let totals =
          List.fold_left
            (fun (frames, bytes, warm) -> function
              | Error e -> failwith (Format.asprintf "%a" Proxy.pp_error e)
              | Ok s ->
                  ( frames + s.Proxy.Pool.command_frames,
                    bytes + s.Proxy.Pool.wire_bytes,
                    if s.Proxy.Pool.warm_setup then warm + 1 else warm ))
            (0, 0, 0)
            (Proxy.Pool.serve pool reqs)
        in
        (totals, (Gc.minor_words () -. before) /. float_of_int n)
      in
      let (cf, cb, cw), cold_pool_words = pool_round () in
      let (wf, wb, ww), warm_pool_words = pool_round () in
      let row phase ms rsa comp xfer frames bytes warm hits words pool_words =
        Printf.printf
          "%7d %5s | %9.1f %9.3f %9.3f %9.1f | %8d %9d %5d %5d | %9.0f %9.0f\n"
          n phase
          (ms /. float_of_int n)
          rsa comp xfer frames bytes warm hits words pool_words;
        record "sessions" ~experiment:"E15"
          Json.
            [ ("case", String (Printf.sprintf "streams-%d" n));
              ("phase", String phase); ("requests", Int n);
              ("command_frames", Int frames); ("wire_bytes", Int bytes);
              ("warm_setups", Int warm); ("cache_hits", Int hits);
              ("total_ms", Float ms); ("rsa_ms", Float rsa);
              ("compile_ms", Float comp);
              ("minor_words_per_request", Float words);
              ("pool_minor_words_per_request", Float pool_words) ]
      in
      row "cold" cold_ms cold_rsa cold_comp cold_xfer cf cb cw cold_hits
        cold_words cold_pool_words;
      row "warm" warm_ms warm_rsa warm_comp warm_xfer wf wb ww warm_hits
        warm_words warm_pool_words;
      Printf.printf "%31s views byte-identical across rounds: %b\n" ""
        identical;
      if not identical then failwith "E15: warm round changed a view")
    sizes;
  print_endline
    "\nshape check: the warm phase drops the rule-blob transfer, the\n\
     root-signature RSA and the automaton compilation from every request\n\
     (rsa/comp columns go to ~0, cache hits = requests), and the pool\n\
     skips the whole setup upload on a primed channel - amortized\n\
     frames/request approach the evaluate+drain floor. Views stay\n\
     byte-identical: the cache is a pure accelerator."

(* ------------------------------------------------------------------ *)
(* E16: static policy analysis (cost, pruning, bound tightness)        *)
(* ------------------------------------------------------------------ *)

let e16_static_analysis () =
  header "E16"
    "static policy analyzer: cost, rules pruned, bound vs observed peak";
  let rng = Rng.create 16L in
  (* Three corpora: the redundancy-heavy agenda policy of E12, a plain
     hospital policy with predicates, and a random rule set of the
     property-test shape. *)
  let agenda_doc = Generator.agenda rng ~courses:(if !smoke then 20 else 200) in
  let agenda_rules =
    List.concat_map
      (fun tag ->
        [ Rule.allow ~subject:"u" ("//" ^ tag);
          Rule.allow ~subject:"u" ("//course/" ^ tag);
          Rule.allow ~subject:"u" ("//courses//" ^ tag) ])
      [ "title"; "credit"; "instructor"; "place"; "time" ]
    @ [ Rule.deny ~subject:"u" "//instructor";
        Rule.deny ~subject:"u" "//course/instructor" ]
  in
  let hospital_doc =
    Generator.hospital rng ~patients:(if !smoke then 5 else 20)
  in
  let hospital_rules =
    [ Rule.allow ~subject:"u" "//patient";
      Rule.deny ~subject:"u" "//ssn";
      Rule.allow ~subject:"u" "//patient/name";
      Rule.deny ~subject:"u" "//admission[.//ssn]";
      Rule.allow ~subject:"u" "//admission/diagnosis" ]
  in
  let tags = [| "a"; "b"; "c"; "d"; "e" |] in
  let random_doc =
    Generator.random_tree rng ~tags ~max_depth:6 ~max_children:4
      ~text_probability:0.3
  in
  let cfg =
    { Random_path.default with max_steps = 3; predicate_probability = 0.4 }
  in
  let random_rules =
    List.init (if !smoke then 10 else 40) (fun _ ->
        { Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
          subject = "u";
          path = Random_path.generate rng cfg ~tags ~values:[| "1"; "2" |] })
  in
  Printf.printf "%-16s %5s %6s %5s | %10s %10s | %5s %11s %10s %6s\n"
    "case" "rules" "pruned" "diags" "analyze_us" "words" "depth"
    "bound_words" "peak_words" "ratio";
  List.iter
    (fun (case, doc, rules) ->
      let dict = Dom.distinct_tags doc in
      let analyze () = Analyzer.run ~dictionary:dict rules in
      (* The minor words of one call: allocation is deterministic, so
         the gate holds it exactly. *)
      let before = Gc.minor_words () in
      let report = analyze () in
      let words = Gc.minor_words () -. before in
      let ns = ns_of ~name:case (fun () -> ignore (analyze ())) in
      let pruned = List.length rules - report.Analyzer.kept in
      let diags = List.length report.Analyzer.diagnostics in
      (* Bound tightness: the static bound restricted to the document's
         own tag alphabet, against the engine's measured peak on that
         document. *)
      let depth = Dom.depth doc in
      let bound =
        Memory_bound.compute
          ~tag_possible:(fun t -> List.mem t dict)
          ~depth
          (Compile.compile rules)
      in
      let eng = Engine.create rules in
      List.iter (fun ev -> ignore (Engine.feed eng ev)) (Dom.to_events doc);
      Engine.finish eng;
      let peak = (Engine.stats eng).Engine.peak_state_words in
      let bw = bound.Memory_bound.state_words in
      if bw < peak then failwith (case ^ ": static bound below observed peak");
      Printf.printf
        "%-16s %5d %6d %5d | %10.1f %10.0f | %5d %11d %10d %6.1f\n" case
        (List.length rules) pruned diags (ns /. 1e3) words depth bw peak
        (float_of_int bw /. float_of_int (max 1 peak));
      record "analysis" ~experiment:"E16"
        Json.
          [ ("case", String case); ("rules", Int (List.length rules));
            ("pruned", Int pruned); ("diagnostics", Int diags);
            ("analyze_ns", Float ns);
            ("minor_words_per_analysis", Float words); ("depth", Int depth);
            ("bound_state_words", Int bw); ("engine_peak_words", Int peak) ])
    [ ("agenda-redundant", agenda_doc, agenda_rules);
      ("hospital", hospital_doc, hospital_rules);
      ("random", random_doc, random_rules) ];
  print_endline
    "\nshape check: analysis runs in microseconds (authoring/upload time,\n\
     never per event); the redundancy-heavy set loses most of its rules;\n\
     the static bound stays above every observed peak - the gap is the\n\
     price of covering the worst document of that depth, not the\n\
     benchmark's."

(* ------------------------------------------------------------------ *)
(* E17: resilience under injected link faults (fleet profile)          *)
(* ------------------------------------------------------------------ *)

let e17_resilience () =
  header "E17"
    "resilience: pooled serving over a faulty APDU link (fleet profile)";
  let rng = Rng.create 17L in
  let doc = Generator.hospital rng ~patients:(if !smoke then 10 else 24) in
  let rules =
    [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]
  in
  let queries =
    [| None; Some "//patient"; Some "//patient/name"; Some "//admission" |]
  in
  let n = if !smoke then 4 else 16 in
  let reqs =
    List.init n (fun i ->
        Proxy.Request.make ?xpath:queries.(i mod Array.length queries) "bench")
  in
  let rates =
    if !smoke then [ 0.0; 0.05 ] else [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ]
  in
  (* One batch through a fresh world, pool and (possibly faulty) link. *)
  let serve_through schedule =
    let w, card = make_world ~profile:Cost.fleet ~doc ~rules () in
    let host = Remote_card.Host.create ~card ~resolve:(World.resolve w) () in
    let link =
      Fault.Link.wrap ~schedule
        ~tear:(fun () -> Remote_card.Host.tear host)
        (Remote_card.Host.process host)
    in
    let pool =
      Proxy.Pool.create ~store:(World.store w)
        ~transport:(Fault.Link.transport link)
        ~subject:"u" ()
    in
    (Proxy.Pool.serve pool reqs, link)
  in
  (* Fault-free golden views: every Ok under faults must match these
     byte-for-byte — the injector may cost retries or a typed error,
     never a different view. *)
  let golden =
    List.map
      (function
        | Ok s -> s.Proxy.Pool.xml
        | Error e ->
            failwith (Format.asprintf "E17 golden: %a" Proxy.pp_error e))
      (fst (serve_through Fault.Schedule.none))
  in
  Printf.printf
    "document: %d bytes XML; %d requests/batch; retry budget %d\n\n"
    (String.length (Serializer.to_string doc))
    n Proxy.Pool.retry_budget;
  Printf.printf "%6s | %4s %6s %7s %8s | %8s %10s | %12s\n" "rate" "ok"
    "errors" "retries" "injected" "frames" "wire_bytes" "link_ms/ok";
  List.iteri
    (fun i rate ->
      let schedule =
        if rate = 0.0 then Fault.Schedule.none
        else Fault.Schedule.random ~seed:(Int64.of_int (1700 + i)) ~rate ()
      in
      let served, link = serve_through schedule in
      let ok, errors, retries, wire =
        List.fold_left2
          (fun (ok, errors, retries, wire) res gold ->
            match res with
            | Ok s ->
                if s.Proxy.Pool.xml <> gold then
                  failwith "E17: a faulty run changed an authorized view";
                ( ok + 1,
                  errors,
                  retries + s.Proxy.Pool.retries,
                  wire + s.Proxy.Pool.wire_bytes )
            | Error _ -> (ok, errors + 1, retries, wire))
          (0, 0, 0, 0) served golden
      in
      let frames = Fault.Link.frames link in
      let injected = Fault.Link.injected link in
      let link_ms_per_ok =
        if ok = 0 then Float.nan
        else
          1.0e3 *. float_of_int wire
          /. Cost.fleet.Cost.link_bytes_per_s
          /. float_of_int ok
      in
      Printf.printf "%6.2f | %4d %6d %7d %8d | %8d %10d | %12.1f\n" rate ok
        errors retries injected frames wire link_ms_per_ok;
      record "resilience" ~experiment:"E17"
        Json.
          [ ("case", String (Printf.sprintf "hospital-%d" n));
            ("fault_rate", Float rate); ("requests", Int n); ("ok", Int ok);
            ("typed_errors", Int errors); ("retries", Int retries);
            ("injected", Int injected); ("frames", Int frames);
            ("wire_bytes", Int wire);
            ("link_ms_per_ok", Float link_ms_per_ok) ])
    rates;
  print_endline
    "\nshape check: every view served under faults is byte-identical to\n\
     the fault-free golden run (checked above); low rates cost only\n\
     retries, high rates start spending the budget and convert into\n\
     typed errors - never into a wrong view."

(* ------------------------------------------------------------------ *)
(* E18: observability overhead                                         *)
(* ------------------------------------------------------------------ *)

let e18_observability () =
  header "E18"
    "observability overhead: indexed evaluation with tracing off / \
     metrics-only / tail-sampled / full (wall clock)";
  let rng = Rng.create 14L in
  (* The E14 document and rule set, so the prune histogram below reads
     against the dispatch-ablation numbers. *)
  let doc = Generator.hospital rng ~patients:(if !smoke then 10 else 60) in
  let rules =
    [
      Rule.allow ~subject:"u" "//patient";
      Rule.deny ~subject:"u" "//ssn";
      Rule.allow ~subject:"u" "//folder/prescription/drug";
      Rule.deny ~subject:"u" "//comment";
      Rule.deny ~subject:"u" {|//patient[age>"80"]|};
    ]
  in
  let encoded =
    Encode.encode ~mode:(Encode.Indexed { recursive = true }) doc
  in
  let mk_obs = function
    | "off" -> None
    | "metrics" -> Some (Obs.create ~tracing:false ())
    | "sampled" ->
        Some (Obs.create ~policy:(Obs.Policy.default ~baseline_1_in:8 ()) ())
    | "full" -> Some (Obs.create ())
    | m -> invalid_arg m
  in
  (* Warm up caches before the first measured mode, so "off" (measured
     first, the baseline) is not charged the cold start. *)
  for _ = 1 to 3 do
    ignore (Indexed_engine.run rules encoded)
  done;
  Printf.printf "%-8s %12s %10s %10s %9s\n" "mode" "ns/event" "overhead"
    "trace_ev" "dropped";
  let baseline = ref Float.nan in
  List.iter
    (fun mode ->
      (* Steady-state cost: one long-lived scope reused across iterations,
         the way the CLI holds one scope per invocation. *)
      let obs = mk_obs mode in
      let ns =
        ns_of ~name:("obs-" ^ mode) (fun () ->
            ignore (Indexed_engine.run ?obs rules encoded))
      in
      (* A fresh scope for the recorded-event and skip-metric numbers. *)
      let fresh = mk_obs mode in
      let res = Indexed_engine.run ?obs:fresh rules encoded in
      let events = res.Indexed_engine.events_fed in
      let per_event = ns /. float_of_int (max 1 events) in
      if mode = "off" then baseline := per_event;
      let overhead = 100.0 *. (per_event -. !baseline) /. !baseline in
      let trace_ev, dropped, considered =
        match fresh with
        | None -> (0, 0, 0)
        | Some o ->
            ( Obs.Tracer.recorded o.Obs.tracer,
              Obs.Tracer.evicted o.Obs.tracer + Obs.Tracer.dropped_trees o.Obs.tracer,
              Obs.Metrics.counter_value o.Obs.metrics "skip.considered" )
      in
      record "obs" ~experiment:"E18"
        Json.
          [ ("case", String "hospital"); ("mode", String mode);
            ("events", Int events); ("ns_per_event", Float per_event);
            ("overhead_pct", Float overhead); ("trace_events", Int trace_ev);
            ("dropped", Int dropped); ("skip_considered", Int considered);
            ("skipped_subtrees", Int res.Indexed_engine.skipped_subtrees);
            ("skipped_bytes", Int res.Indexed_engine.skipped_bytes) ];
      Printf.printf "%-8s %12.0f %9.1f%% %10d %9d\n" mode per_event overhead
        trace_ev dropped)
    [ "off"; "metrics"; "sampled"; "full" ];
  (* Prune-ratio histogram: a narrow rule set over the same document —
     the E14 rules touch every department, so nothing is skippable; one
     deep allow makes the index jump everything else, and the scope's
     [skip.*] cells record what was jumped and how big it was. *)
  let prune_obs = Obs.create () in
  let prune_res =
    Indexed_engine.run ~obs:prune_obs
      [ Rule.allow ~subject:"u" "//folder/prescription/drug" ]
      encoded
  in
  let m = prune_obs.Obs.metrics in
  let considered = Obs.Metrics.counter_value m "skip.considered" in
  let pruned = Obs.Metrics.counter_value m "skip.pruned_subtrees" in
  record "obs" ~experiment:"E18"
    Json.
      [ ("case", String "hospital-prune"); ("mode", String "full");
        ("events", Int prune_res.Indexed_engine.events_fed);
        ("ns_per_event", Null); ("overhead_pct", Null);
        ("trace_events", Int (Obs.Tracer.recorded prune_obs.Obs.tracer));
        ( "dropped",
          Int
            (Obs.Tracer.evicted prune_obs.Obs.tracer
            + Obs.Tracer.dropped_trees prune_obs.Obs.tracer) );
        ("skip_considered", Int considered);
        ("skipped_subtrees", Int prune_res.Indexed_engine.skipped_subtrees);
        ("skipped_bytes", Int prune_res.Indexed_engine.skipped_bytes) ];
  Printf.printf
    "\nskip-prune under a narrow rule set (//folder/prescription/drug) on \
     the E14 document:\n\
     %d/%d considered subtrees pruned (%.0f%%), %d bytes jumped; \
     pruned-subtree sizes (log2 buckets):\n"
    pruned considered
    (100.0 *. float_of_int pruned /. float_of_int (max 1 considered))
    prune_res.Indexed_engine.skipped_bytes;
  (match List.assoc_opt "skip.subtree_bytes" (Obs.Metrics.snapshot m) with
  | Some (Obs.Metrics.Histogram_v { buckets; _ }) ->
      List.iter
        (fun (ub, n) ->
          if n > 0 then Printf.printf "  <= %6d bytes: %d\n" ub n)
        buckets
  | _ -> ());
  print_endline
    "\nshape check: the metrics-only path stays within noise of tracing\n\
     off (a cell update is a single store; the registry is only read at\n\
     snapshot time); full tracing pays a ring write per span/instant, and\n\
     tail sampling records every tree before its policy decides, so it\n\
     costs about what full tracing does."

(* ------------------------------------------------------------------ *)
(* E19: fleet-scale sharded serving                                    *)
(* ------------------------------------------------------------------ *)

let e19_fleet () =
  header "E19"
    "fleet serving: cards x streams sweep, affinity vs random routing \
     (zipfian document population, simulated link time)";
  let ndocs = if !smoke then 4 else 12 in
  (* Zipf(1.1) requests over the documents: a hot head, a long tail —
     the mix that rewards keeping a (doc, rules) pair on the card that
     already compiled it. *)
  let w =
    ward_world "bench-fleet" ~doc_id:(Printf.sprintf "fleet%02d") ~seed:1900
      ndocs
  in
  let cards_list = if !smoke then [ 2 ] else [ 1; 2; 4; 8 ] in
  let streams_list = if !smoke then [ 16 ] else [ 8; 64; 256; 512 ] in
  (* The warm-rate comparison the sweep exists for, keyed by
     (cards, streams, routing) of the warm phase. *)
  let warm_rates = Hashtbl.create 16 in
  Printf.printf
    "%5s %7s %-8s %-4s | %4s %4s %4s | %5s %6s | %8s %8s %8s\n" "cards"
    "streams" "routing" "phse" "ok" "err" "rert" "warm" "hit%" "p50ms"
    "p95ms" "p99ms";
  List.iter
    (fun cards ->
      List.iter
        (fun streams ->
          List.iter
            (fun routing ->
              let cardset =
                Array.init cards (fun _ ->
                    Card.create ~profile:Cost.fleet ~subject:"u" (World.user w))
              in
              let transports =
                Array.map
                  (fun card ->
                    Remote_card.Host.process
                      (Remote_card.Host.create ~card
                         ~resolve:(World.resolve w) ()))
                  cardset
              in
              let fleet =
                Fleet.create
                  ~routing:
                    (if routing = "affinity" then Fleet.Affinity
                     else Fleet.Random 99L)
                  ~queue_limit:(max 64 streams) ~store:(World.store w)
                  ~subject:"u" transports
              in
              let reqs =
                World.requests w
                  (Rng.create (Int64.of_int (19000 + (cards * 1000) + streams)))
                  streams
              in
              (* Cold batch fills the caches; the warm batch — the same
                 population again — is where routing earns its keep. *)
              let prev_stats = ref (Fleet.stats fleet) in
              let prev_hits = ref 0 and prev_lookups = ref 0 in
              List.iter
                (fun phase ->
                  let outs = Fleet.serve fleet reqs in
                  let lat =
                    List.filter_map
                      (fun (o : Fleet.outcome) ->
                        match o.Fleet.result with
                        | Ok _ -> Some (o.Fleet.latency_s *. 1.0e3)
                        | Error _ -> None)
                      outs
                    |> Array.of_list
                  in
                  Array.sort compare lat;
                  let ok = Array.length lat in
                  let errors = List.length outs - ok in
                  let warm =
                    List.fold_left
                      (fun n (o : Fleet.outcome) ->
                        match o.Fleet.result with
                        | Ok s when s.Proxy.Pool.warm_setup -> n + 1
                        | _ -> n)
                      0 outs
                  in
                  let hits, lookups =
                    Array.fold_left
                      (fun (h, l) card ->
                        let cs = Card.cache_stats card in
                        (h + cs.Card.hits, l + cs.Card.hits + cs.Card.misses))
                      (0, 0) cardset
                  in
                  let d_hits = hits - !prev_hits
                  and d_lookups = lookups - !prev_lookups in
                  prev_hits := hits;
                  prev_lookups := lookups;
                  let hit_pct =
                    if d_lookups = 0 then Float.nan
                    else 100.0 *. float_of_int d_hits /. float_of_int d_lookups
                  in
                  let st = Fleet.stats fleet in
                  let p = !prev_stats in
                  prev_stats := st;
                  let p50 = percentile lat 0.50
                  and p95 = percentile lat 0.95
                  and p99 = percentile lat 0.99 in
                  if phase = "warm" then
                    Hashtbl.replace warm_rates (cards, streams, routing)
                      (hit_pct, warm);
                  Printf.printf
                    "%5d %7d %-8s %-4s | %4d %4d %4d | %5d %5.0f%% | %8.2f \
                     %8.2f %8.2f\n"
                    cards streams routing phase ok errors
                    (st.Fleet.reroutes - p.Fleet.reroutes)
                    warm hit_pct p50 p95 p99;
                  record "fleet" ~experiment:"E19"
                    Json.
                      [ ("cards", Int cards); ("streams", Int streams);
                        ("routing", String routing); ("phase", String phase);
                        ("ok", Int ok); ("errors", Int errors);
                        ("rejected", Int (st.Fleet.rejected - p.Fleet.rejected));
                        ( "affinity_hits",
                          Int (st.Fleet.affinity_hits - p.Fleet.affinity_hits) );
                        ("fallbacks", Int (st.Fleet.fallbacks - p.Fleet.fallbacks));
                        ("reroutes", Int (st.Fleet.reroutes - p.Fleet.reroutes));
                        ("warm_setups", Int warm); ("cache_hit_pct", Float hit_pct);
                        ("queue_peak", Int st.Fleet.queue_peak);
                        ("p50_ms", Float p50); ("p95_ms", Float p95);
                        ("p99_ms", Float p99) ])
                [ "cold"; "warm" ])
            [ "affinity"; "random" ])
        streams_list)
    cards_list;
  (* The headline: on the warm phase, affinity routing keeps repeat
     (doc, rules) pairs on the card that already compiled them, so its
     prepared-cache hit rate beats seeded-random placement. *)
  print_newline ();
  List.iter
    (fun cards ->
      List.iter
        (fun streams ->
          match
            ( Hashtbl.find_opt warm_rates (cards, streams, "affinity"),
              Hashtbl.find_opt warm_rates (cards, streams, "random") )
          with
          | Some (a_hit, a_warm), Some (r_hit, r_warm) ->
              Printf.printf
                "warm-cache @ %d cards x %3d streams: affinity %.0f%% hits \
                 (%d warm setups) vs random %.0f%% (%d) -> %s\n"
                cards streams a_hit a_warm r_hit r_warm
                (if cards = 1 then "single card: equal by construction"
                 else if a_hit >= r_hit then "affinity wins"
                 else "random wins (noise)")
          | _ -> ())
        streams_list)
    cards_list;
  print_endline
    "\nshape check: every request ends Ok (no faults injected here);\n\
     multi-card affinity beats random placement on warm-cache hit rate,\n\
     and queueing delay surfaces as p95/p99 growth once streams per\n\
     card outgrow the channel pool."

(* ------------------------------------------------------------------ *)
(* E20: dissemination fan-out — clustered shared rule evaluation       *)
(* ------------------------------------------------------------------ *)

let e20_dissem () =
  header "E20"
    "dissemination fan-out: subscribers x policy-overlap sweep, \
     clustered shared evaluation on the gateway card vs naive \
     per-subscriber pushes";
  let drbg = Drbg.create ~seed:"bench-dissem" in
  let publisher, user = Lazy.force ids in
  let doc =
    Generator.hospital (Rng.create 2020L) ~patients:(if !smoke then 2 else 6)
  in
  let deny_tags =
    [| "//ssn"; "//diagnosis"; "//comment"; "//prescription"; "//folder";
       "//address"; "//phone"; "//age" |]
  in
  (* Policy [k]: same allow, k-indexed denials — distinct canonical
     texts. Every third policy carries a value predicate, so it cannot
     join the merged-automaton walk and is evaluated solo: the sweep
     exercises both kinds of sharing (identical-set clustering for
     everyone, the shared walk for the predicate-free clusters). *)
  let policy k subject =
    let base =
      Rule.allow ~subject "//patient"
      :: Rule.deny ~subject deny_tags.(k mod Array.length deny_tags)
      ::
      (if k >= Array.length deny_tags then
         [ Rule.deny ~subject
             deny_tags.((k / Array.length deny_tags)
                        mod Array.length deny_tags) ]
       else [])
    in
    if k mod 3 = 2 then
      base @ [ Rule.deny ~subject {|//patient[age>"60"]/folder|} ]
    else base
  in
  let n_list = if !smoke then [ 8 ] else [ 4; 16; 64 ] in
  Printf.printf
    "%5s %8s | %4s %4s %4s | %5s %5s %5s %7s | %9s %9s %10s %10s\n" "subs"
    "distinct" "clus" "mux" "solo" "eval" "naive" "saved" "fanout" "p50ms"
    "p95ms" "naive-p50" "naive-p95";
  List.iter
    (fun n ->
      List.iter
        (fun distinct ->
          let doc_id = Printf.sprintf "dissem-%d-%d" n distinct in
          let published, doc_key =
            Publish.publish drbg ~publisher ~doc_id doc
          in
          let store = Store.create () in
          Store.put_document store published;
          let subjects =
            List.init n (fun i -> Printf.sprintf "sub%03d" i)
          in
          List.iteri
            (fun i subject ->
              Store.put_rules store ~doc_id ~subject
                (Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id
                   ~subject
                   (policy (i mod distinct) subject));
              Store.put_grant store ~doc_id ~subject
                (Publish.grant drbg ~doc_key ~doc_id
                   ~recipient:user.Rsa.public))
            subjects;
          (* Clustered: one disseminate batch on the gateway card. *)
          let gateway =
            Card.create ~profile:Cost.fleet ~subject:"#gateway" user
          in
          (match
             Card.install_wrapped_key gateway ~doc_id
               ~wrapped:
                 (Publish.grant drbg ~doc_key ~doc_id
                    ~recipient:user.Rsa.public)
           with
          | Ok () -> ()
          | Error e ->
              failwith (Format.asprintf "%a" Card.pp_error e));
          let source = Publish.to_source published ~delivery:`Push in
          let blobs =
            List.map
              (fun s ->
                (s, Option.get (Store.get_rules store ~doc_id ~subject:s)))
              subjects
          in
          let stats, dissem_ms =
            match Card.disseminate gateway source ~subscribers:blobs () with
            | Error e ->
                failwith (Format.asprintf "%a" Card.pp_error e)
            | Ok (results, report) ->
                List.iter
                  (fun (s, r) ->
                    match r with
                    | Ok _ -> ()
                    | Error e ->
                        failwith
                          (Format.asprintf "%s: %a" s Card.pp_error e))
                  results;
                ( report.Card.sharing,
                  report.Card.dissem_breakdown.Cost.total_ms )
          in
          (* Every subscriber's view completes with the shared batch. *)
          let clustered_lat =
            Array.make n dissem_ms
          in
          (* Naive baseline: the gateway pushes to each subscriber in
             turn — signature, integrity, decryption and evaluation
             re-run every time; subscriber i waits for all j <= i. *)
          let clock = ref 0.0 in
          let naive_lat =
            Array.of_list
              (List.map
                 (fun s ->
                   let card =
                     Card.create ~profile:Cost.fleet ~subject:s user
                   in
                   let proxy = Sdds_proxy.Proxy.create ~store ~card in
                   match
                     Sdds_proxy.Proxy.run proxy
                       (Proxy.Request.make ~delivery:`Push doc_id)
                   with
                   | Error e ->
                       failwith
                         (Format.asprintf "naive %s: %a" s Proxy.pp_error e)
                   | Ok o ->
                       clock :=
                         !clock
                         +. o.Proxy.card_report.Card.breakdown
                              .Cost.total_ms;
                       !clock)
                 subjects)
          in
          Array.sort compare clustered_lat;
          Array.sort compare naive_lat;
          let p50 = percentile clustered_lat 0.50
          and p95 = percentile clustered_lat 0.95
          and np50 = percentile naive_lat 0.50
          and np95 = percentile naive_lat 0.95 in
          let saved =
            stats.Sdds_dissem.Fanout.naive_evaluations
            - stats.Sdds_dissem.Fanout.evaluations
          in
          let fanout = Sdds_dissem.Fanout.fanout_ratio stats in
          Printf.printf
            "%5d %8d | %4d %4d %4d | %5d %5d %5d %6.1fx | %9.1f %9.1f \
             %10.1f %10.1f\n"
            n distinct stats.Sdds_dissem.Fanout.clusters
            stats.Sdds_dissem.Fanout.mux_clusters
            stats.Sdds_dissem.Fanout.solo_clusters
            stats.Sdds_dissem.Fanout.evaluations
            stats.Sdds_dissem.Fanout.naive_evaluations saved fanout p50 p95
            np50 np95;
          record "dissem" ~experiment:"E20"
            Json.
              [ ("subscribers", Int n); ("distinct", Int distinct);
                ("clusters", Int stats.Sdds_dissem.Fanout.clusters);
                ("mux_clusters", Int stats.Sdds_dissem.Fanout.mux_clusters);
                ("solo_clusters", Int stats.Sdds_dissem.Fanout.solo_clusters);
                ("evaluations", Int stats.Sdds_dissem.Fanout.evaluations);
                ( "naive_evaluations",
                  Int stats.Sdds_dissem.Fanout.naive_evaluations );
                ("saved", Int saved); ("fanout", Float fanout);
                ("p50_ms", Float p50); ("p95_ms", Float p95);
                ("naive_p50_ms", Float np50); ("naive_p95_ms", Float np95) ])
        (List.filter (fun d -> d <= n) [ 1; 4; 8; 16; 64 ]))
    n_list;
  print_endline
    "\nshape check: with overlap (distinct < subscribers) the clustered\n\
     gateway runs strictly fewer evaluations than the per-subscriber\n\
     baseline, all predicate-free clusters ride one merged walk, and\n\
     naive tail latency grows linearly with the population while the\n\
     shared batch stays near-flat."

(* ------------------------------------------------------------------ *)
(* E21: protocol model checking — states/sec, depth x alphabet sweep   *)
(* ------------------------------------------------------------------ *)

let e21_protocol_check () =
  header "E21"
    "protocol model checker: bounded exploration of the host x card x \
     fault product, depth x fault-alphabet sweep on the production \
     protocol and the preserved pre-fix fixture";
  let full = Pmodel.current.Pmodel.alphabet in
  let alphabets =
    [
      ("duplicate", [ Fault.Duplicate_command ]);
      ( "loss",
        [ Fault.Drop_command; Fault.Drop_response; Fault.Duplicate_command ] );
      ("full", full);
    ]
  in
  let models = [ ("current", Pmodel.current); ("pre-fix", Pmodel.pre_fix) ] in
  let depths = if !smoke then [ 8 ] else [ 8; 10; 12; 14 ] in
  Printf.printf "%8s %10s %6s | %8s %8s %8s | %4s %6s | %4s %7s | %8s %10s\n"
    "model" "alphabet" "depth" "states" "trans" "dedup" "ok" "failed" "viol"
    "cex-fr" "ms" "states/s";
  List.iter
    (fun (mname, base) ->
      List.iter
        (fun (aname, alphabet) ->
          List.iter
            (fun depth ->
              let config = { base with Pmodel.alphabet } in
              let r = Explore.run ~depth config in
              (* One run of well under a millisecond is at the mercy of
                 a GC slice: time it the way E10 and E14 do. *)
              let dt =
                ns_of
                  ~name:(Printf.sprintf "%s-%s-%d" mname aname depth)
                  (fun () -> ignore (Explore.run ~depth config))
                /. 1e9
              in
              let s = r.Explore.stats in
              let violations, cex_frames =
                match r.Explore.cex with
                | None -> (0, 0)
                | Some c -> (1, c.Sdds_protocol.Cex.steps)
              in
              let states_per_s =
                float_of_int s.Explore.expanded /. Float.max dt 1e-9
              in
              Printf.printf
                "%8s %10s %6d | %8d %8d %8d | %4d %6d | %4d %7d | %8.1f \
                 %10.0f\n%!"
                mname aname depth s.Explore.expanded s.Explore.transitions
                s.Explore.dedup_hits s.Explore.terminal_ok
                s.Explore.terminal_failed violations cex_frames (dt *. 1000.)
                states_per_s;
              record "check" ~experiment:"E21"
                Json.
                  [ ("model", String mname); ("alphabet", String aname);
                    ("kinds", Int (List.length alphabet)); ("depth", Int depth);
                    ("fault_budget", Int config.Pmodel.fault_budget);
                    ("states", Int s.Explore.expanded);
                    ("transitions", Int s.Explore.transitions);
                    ("dedup_hits", Int s.Explore.dedup_hits);
                    ("terminal_ok", Int s.Explore.terminal_ok);
                    ("terminal_failed", Int s.Explore.terminal_failed);
                    ("violations", Int violations);
                    ("cex_frames", Int cex_frames); ("ms", Float (dt *. 1000.));
                    ("states_per_s", Float states_per_s) ])
            depths)
        alphabets)
    models;
  print_endline
    "\nNote: every current row must report 0 violations; every pre-fix row \n\
     whose alphabet includes duplicate-command must report 1 — the \n\
     wraparound hole, minimized to a single duplicated frame. Dedup \n\
     collapses the product sharply, so deeper bounds exhaust the \n\
     reachable space instead of growing exponentially."

(* ------------------------------------------------------------------ *)
(* E22: chaos — availability and tail latency across a kill/revive     *)
(* ------------------------------------------------------------------ *)

let e22_chaos () =
  header "E22"
    "fleet survivability: per-phase availability and tail latency across \
     steady -> churn (kill the busiest card) -> recovered (revive it), \
     with hot-key standby replication on";
  let ndocs = if !smoke then 4 else 8 in
  let per_phase = if !smoke then 24 else 120 in
  let cards = 3 in
  (* The zipf head is what hot-key standby replication protects: the
     busiest card is, with high probability, the head key's primary. *)
  let w =
    ward_world "bench-chaos" ~doc_id:(Printf.sprintf "chaos%02d") ~seed:2200
      ndocs
  in
  let hosts = Array.init cards (fun _ -> World.host ~profile:Cost.fleet w) in
  let cutouts = Array.init cards (fun _ -> Fault.Cutout.create ()) in
  let transports =
    Array.mapi
      (fun i host ->
        Fault.Cutout.wrap cutouts.(i) (Remote_card.Host.process host))
      hosts
  in
  let fleet =
    Fleet.create ~queue_limit:64 ~standby_k:2 ~store:(World.store w)
      ~subject:"u" transports
  in
  let rng = Rng.create 220013L in
  let prev = ref (Fleet.stats fleet) in
  Printf.printf "%-10s | %4s %4s %4s | %4s %5s %4s | %6s | %8s %8s %8s\n"
    "phase" "ok" "err" "rej" "migr" "death" "stby" "avail%" "p50ms" "p95ms"
    "p99ms";
  let run_phase phase =
    (match phase with
    | "churn" ->
        (* Kill the card carrying the most traffic so far: power cutout
           plus a host tear (its volatile channel table dies with it). *)
        let st = Fleet.stats fleet in
        let victim = ref 0 in
        Array.iteri
          (fun i n -> if n > st.Fleet.served_by.(!victim) then victim := i)
          st.Fleet.served_by;
        Remote_card.Host.tear hosts.(!victim);
        Fault.Cutout.kill cutouts.(!victim)
    | "recovered" ->
        Array.iteri
          (fun i c ->
            if Fault.Cutout.is_down c then begin
              Fault.Cutout.revive c;
              if Fleet.state fleet i = Fleet.Dead then Fleet.revive_card fleet i
            end)
          cutouts
    | _ -> ());
    let outs = Fleet.serve fleet (World.requests w rng per_phase) in
    let lat =
      List.filter_map
        (fun (o : Fleet.outcome) ->
          match o.Fleet.result with
          | Ok _ -> Some (o.Fleet.latency_s *. 1.0e3)
          | Error _ -> None)
        outs
      |> Array.of_list
    in
    Array.sort compare lat;
    let ok = Array.length lat in
    let st = Fleet.stats fleet in
    let p = !prev in
    prev := st;
    let rejected = st.Fleet.rejected - p.Fleet.rejected in
    let errors = List.length outs - ok - rejected in
    let migrations = st.Fleet.migrations - p.Fleet.migrations in
    let deaths = st.Fleet.deaths - p.Fleet.deaths in
    let revives = st.Fleet.revives - p.Fleet.revives in
    let standby_hits = st.Fleet.standby_hits - p.Fleet.standby_hits in
    let availability =
      100.0 *. float_of_int ok /. float_of_int (List.length outs)
    in
    let p50 = percentile lat 0.50
    and p95 = percentile lat 0.95
    and p99 = percentile lat 0.99 in
    Printf.printf "%-10s | %4d %4d %4d | %4d %5d %4d | %5.1f%% | %8.2f \
                   %8.2f %8.2f\n"
      phase ok errors rejected migrations deaths standby_hits availability
      p50 p95 p99;
    record "chaos" ~experiment:"E22"
      Json.
        [ ("phase", String phase); ("requests", Int (List.length outs));
          ("ok", Int ok); ("errors", Int errors); ("rejected", Int rejected);
          ("migrations", Int migrations); ("deaths", Int deaths);
          ("revives", Int revives); ("standby_hits", Int standby_hits);
          ("availability_pct", Float availability); ("p50_ms", Float p50);
          ("p95_ms", Float p95); ("p99_ms", Float p99) ]
  in
  List.iter run_phase [ "steady"; "churn"; "recovered" ];
  print_endline
    "\nshape check: steady serves everything; the churn phase absorbs the\n\
     kill with migrations (the zipf-head keys fail over to their\n\
     pre-warmed standby, so errors stay 0 and only typed admission\n\
     refusals appear under the capacity dip); recovered returns to full\n\
     availability with the revived card back in the ring as joining."

(* ------------------------------------------------------------------ *)
(* E23: sampling retention quality                                     *)
(* ------------------------------------------------------------------ *)

(* The same three-phase incident drill as [sdds slo], traced two ways
   from identical seeds: in full (the ground truth for which trees are
   interesting) and tail-sampled at a 1-in-8 baseline budget (the
   decision deferred to root completion, when the policy can see the
   error outcomes, fault instants and migration spans). The score is
   what fraction of the interesting trees each mode's export retains. *)
let e23_sampling () =
  header "E23"
    "sampling retention: tail sampling at a 1-in-8 baseline budget vs \
     full tracing over the steady -> churn -> recovered incident drill";
  let budget = 8 in
  let per_phase = if !smoke then 24 else 48 in
  let run_mode mode =
    (* A fresh world per mode, from fixed seeds: the simulated run is
       identical, only the sampler differs. *)
    let w =
      ward_world "bench-sampling" ~doc_id:(Printf.sprintf "samp%d") ~seed:2300
        4
    in
    let obs =
      match mode with
      | "full" ->
          Obs.create ~clock:(Obs.Clock.manual ()) ~capacity:(1 lsl 18) ()
      | "tail" ->
          Obs.create
            ~clock:(Obs.Clock.manual ())
            ~policy:(Obs.Policy.default ~baseline_1_in:budget ())
            ()
      | m -> invalid_arg m
    in
    let rng = Rng.create 2301L in
    let requests _phase =
      List.init per_phase (fun _ ->
          let doc = Printf.sprintf "samp%d" (Rng.int rng 4) in
          let xpath =
            match Rng.int rng 3 with
            | 0 -> Some "//patient/name"
            | _ -> None
          in
          Proxy.Request.make ?xpath doc)
    in
    ignore
      (Chaos.run_slo ~obs ~store:(World.store w) ~subject:"u"
         ~make_card:(World.make_card ~profile:Cost.fleet w) ~requests ());
    obs
  in
  (* Export -> trees. Events arrive children-before-root, so two passes:
     collect parents first, then resolve each event to its root. *)
  let parse_trees jsonl =
    let events =
      String.split_on_char '\n' jsonl
      |> List.filter_map (fun line ->
             if line = "" then None
             else
               match Json.parse line with
               | Ok j when Json.member "type" j <> Some (Json.String "meta")
                 ->
                   Some j
               | Ok _ -> None
               | Error e -> failwith ("bad trace line: " ^ e))
    in
    let parent = Hashtbl.create 256 in
    List.iter
      (fun j ->
        match (Json.member "id" j, Json.member "parent" j) with
        | Some (Json.Int id), Some (Json.Int p) -> Hashtbl.replace parent id p
        | _ -> failwith "trace event without id/parent")
      events;
    let rec root_of id =
      match Hashtbl.find_opt parent id with
      | Some 0 | None -> id
      | Some p -> root_of p
    in
    let trees = Hashtbl.create 64 in
    List.iter
      (fun j ->
        match Json.member "id" j with
        | Some (Json.Int id) ->
            let r = root_of id in
            Hashtbl.replace trees r (j :: Option.value ~default:[] (Hashtbl.find_opt trees r))
        | _ -> ())
      events;
    (trees, List.length events)
  in
  (* Interesting = what the tail policy's non-baseline rules match: an
     error outcome anywhere in the tree, a fault instant, or a
     migration span. *)
  let interesting tree_events =
    List.exists
      (fun j ->
        (match Json.member "name" j with
        | Some (Json.String "fleet.migrate") -> true
        | Some (Json.String "fault") ->
            Json.member "type" j = Some (Json.String "instant")
        | _ -> false)
        ||
        match Json.member "args" j with
        | Some args -> (
            match Json.member "outcome" args with
            | Some (Json.String "ok") | None -> false
            | Some _ -> true)
        | None -> false)
      tree_events
  in
  let ground_interesting = ref 0 in
  let ground_total = ref 0 in
  Printf.printf "%-6s %8s %8s %12s %12s %10s %9s\n" "mode" "trees"
    "retained" "interesting" "int-kept" "retain%" "exemplars";
  List.iter
    (fun mode ->
      let obs = run_mode mode in
      let tr = obs.Obs.tracer in
      let trees, storage_events = parse_trees (Obs.Tracer.to_jsonl tr) in
      let retained = Hashtbl.length trees in
      let int_kept =
        Hashtbl.fold
          (fun _ evs acc -> if interesting evs then acc + 1 else acc)
          trees 0
      in
      let traces_total =
        if mode = "full" then retained
        else Obs.Tracer.kept_trees tr + Obs.Tracer.dropped_trees tr
      in
      if mode = "full" then begin
        ground_interesting := int_kept;
        ground_total := retained
      end;
      let retention_pct =
        100.0
        *. float_of_int int_kept
        /. float_of_int (max 1 !ground_interesting)
      in
      (* Every exemplar the registry holds must point at a span id that
         is actually in the export. *)
      let exemplar_ok =
        List.for_all
          (fun (_, v) ->
            match v with
            | Obs.Metrics.Histogram_v { exemplars; _ } ->
                List.for_all
                  (fun (_, (e : Obs.Metrics.Histogram.exemplar)) ->
                    Hashtbl.fold
                      (fun _ evs acc ->
                        acc
                        || List.exists
                             (fun j ->
                               Json.member "id" j
                               = Some (Json.Int e.Obs.Metrics.Histogram.ex_span))
                             evs)
                      trees false)
                  exemplars
            | _ -> true)
          (Obs.Metrics.snapshot obs.Obs.metrics)
      in
      let budget_of = if mode = "full" then 1 else budget in
      Printf.printf "%-6s %8d %8d %12d %12d %9.1f%% %9s\n" mode traces_total
        retained !ground_interesting int_kept retention_pct
        (if exemplar_ok then "resolve" else "DANGLING");
      record "sampling" ~experiment:"E23"
        Json.
          [ ("mode", String mode); ("budget", Int budget_of);
            ("requests", Int (3 * per_phase));
            ("traces_total", Int traces_total);
            ("retained_trees", Int retained);
            ("interesting_total", Int !ground_interesting);
            ("interesting_retained", Int int_kept);
            ("retention_pct", Float retention_pct);
            ("storage_events", Int storage_events);
            ("exemplar_ok", Bool exemplar_ok) ])
    [ "full"; "tail" ];
  print_endline
    "\nshape check: the tail sampler keeps every interesting tree (the\n\
     policy sees the whole tree before deciding) while storing a fraction\n\
     of full tracing's events; both exports' exemplars resolve, because\n\
     an observation can only carry an exemplar when its span was\n\
     recorded, and a bucket-max observation pins the owning trace."

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", "datasets", e1_datasets);
    ("E2", "rules-scaling", e2_rules_scaling);
    ("E3", "skip-benefit", e3_skip_benefit);
    ("E4", "index-overhead", e4_index_overhead);
    ("E5", "ram-budget", e5_ram_budget);
    ("E6", "e2e-pull", e6_e2e_pull);
    ("E7", "dissemination", e7_dissemination);
    ("E8", "policy-change", e8_policy_change);
    ("E9", "tampering", e9_tampering);
    ("E10", "crypto-micro", e10_crypto_micro);
    ("E11", "guard-overhead", e11_guard_overhead);
    ("E12", "rule-simplify", e12_rule_simplify);
    ("E13", "view-latency", e13_view_latency);
    ("E14", "dispatch-ablation", e14_dispatch_ablation);
    ("E15", "session-cache", e15_session_cache);
    ("E16", "static-analysis", e16_static_analysis);
    ("E17", "resilience", e17_resilience);
    ("E18", "observability", e18_observability);
    ("E19", "fleet", e19_fleet);
    ("E20", "dissem", e20_dissem);
    ("E21", "protocol-check", e21_protocol_check);
    ("E22", "chaos", e22_chaos);
    ("E23", "sampling", e23_sampling);
  ]

let () =
  let baseline = ref None in
  let update_baseline = ref false in
  let injection = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--smoke" :: rest ->
        smoke := true;
        parse acc rest
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        parse acc rest
    | "--update-baseline" :: rest ->
        update_baseline := true;
        parse acc rest
    | "--inject-regression" :: spec :: rest ->
        injection := Some (parse_injection spec);
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (Array.to_list Sys.argv |> List.tl) in
  if !injection <> None && (!baseline = None || !update_baseline) then begin
    prerr_endline "--inject-regression requires --baseline FILE to compare";
    exit 2
  end;
  let tol = wall_tolerance () in
  (* The gate: the shape claims of the [selected] experiments' arrays,
     then (unless promoting) the compare against the baseline. Returns
     the number of failures. *)
  let gate ~selected doc =
    match !baseline with
    | Some path when not !update_baseline ->
        let base = load_bench_json path in
        let doc =
          Option.fold ~none:doc
            ~some:(fun i -> inject_regression ~base i doc)
            !injection
        in
        check_shape ~selected doc
        + compare_baseline ~tol ~selected ~baseline_path:path base doc
    | _ -> check_shape ~selected doc
  in
  (* After the selected experiments ran: write their rows, gate them,
     and promote them to the baseline when asked. *)
  let finish selected =
    let ids = List.map (fun (id, _, _) -> id) selected in
    if !rows = [] && !update_baseline then begin
      Printf.eprintf
        "bench: %s recorded no rows; refusing to promote an empty run\n"
        (String.concat " " ids);
      exit 2
    end;
    let doc = document () in
    let contents = render doc in
    if !rows <> [] then begin
      write_file "BENCH_engine.json" contents;
      Printf.printf "\nwrote BENCH_engine.json (%s)\n"
        (String.concat ", "
           (List.map
              (fun s ->
                Printf.sprintf "%d %s"
                  (List.length (rows_of s.name doc))
                  s.name)
              specs))
    end;
    if gate ~selected:ids doc > 0 then exit 1;
    if !update_baseline then begin
      let path = Option.value ~default:"BENCH_baseline.json" !baseline in
      write_file path contents;
      Printf.printf "promoted BENCH_engine.json to baseline %s\n" path
    end
  in
  match args with
  | [ "--list" ] ->
      List.iter (fun (id, name, _) -> Printf.printf "%-4s %s\n" id name) experiments
  | [ "--compare-only" ] ->
      (* Gate an existing BENCH_engine.json without re-running anything,
         holding it to every experiment — the CI self-tests re-gate the
         smoke run's output with an injected regression and expect the
         gate to trip. *)
      if !baseline = None then begin
        prerr_endline "--compare-only requires --baseline FILE";
        exit 2
      end;
      let doc = load_bench_json "BENCH_engine.json" in
      smoke := Json.member "smoke" doc = Some (Json.Bool true);
      let selected = List.map (fun (id, _, _) -> id) experiments in
      if gate ~selected doc > 0 then exit 1
  | [] ->
      List.iter (fun (_, _, run) -> run ()) experiments;
      finish experiments
  | wanted ->
      let matches (id, name, _) =
        List.exists
          (fun w ->
            String.lowercase_ascii w = String.lowercase_ascii id || w = name)
          wanted
      in
      let selected = List.filter matches experiments in
      if selected = [] then begin
        prerr_endline "no experiment matched; try --list";
        exit 1
      end
      else begin
        List.iter (fun (_, _, run) -> run ()) selected;
        finish selected
      end
