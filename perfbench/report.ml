(* One run's result: named metrics with units, the op accounting, and
   the self-checks that decide [correct]. The last line printed is the
   JSON object the benchmark contract asks for. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type t = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;  (** failed, refused or wrong-view ops *)
  checks : (string * bool) list;  (** named self-checks; all must hold *)
  metrics : metric list;
}

let make ~workload ~seed ~trace ~checks ~failed ~attempted metrics =
  { workload; seed; trace; attempted; failed; checks; metrics }

let correct r = r.failed = 0 && List.for_all snd r.checks

(* Every per-layer metric, in print order. A traced run reports each of
   them on every workload; a layer a workload does not exercise reads 0.
   Means are per op unless the name says otherwise (_pct, _ratio, peaks,
   fleet.queue_peak). *)
let per_layer =
  [ ("dsp.fetch_ms", "ms"); ("dsp.update_sign_ms", "ms");
    ("crypto.aes_ms", "ms"); ("crypto.chunks_decrypted", "count");
    ("crypto.decrypt_useful_ratio", "ratio"); ("crypto.rsa_verify_ms", "ms");
    ("crypto.rsa_verifies", "count"); ("crypto.merkle_ms", "ms");
    ("index.skipped_bytes_ratio", "ratio"); ("index.subtrees_skipped", "count");
    ("index.reader_peak_words", "words");
    ("compile.ms", "ms"); ("compile.states", "count");
    ("engine.ms", "ms"); ("engine.ns_per_event", "ns");
    ("engine.events", "count"); ("engine.token_visits", "count");
    ("engine.minor_words_per_event", "words");
    ("engine.peak_state_words", "words");
    ("codec.ms", "ms"); ("codec.output_bytes", "bytes");
    ("reassemble.ms", "ms"); ("serialize.ms", "ms");
    ("card.transfer_ms", "ms"); ("card.crypto_ms", "ms"); ("card.cpu_ms", "ms");
    ("card.rsa_ms", "ms"); ("card.compile_ms", "ms"); ("card.queue_ms", "ms");
    ("card.bytes_transferred", "bytes"); ("card.apdu_frames", "count");
    ("card.cache_hit_pct", "%"); ("card.cache_evictions", "count");
    ("card.ram_peak_bytes", "bytes");
    ("apdu.transport_ms", "ms"); ("apdu.command_frames", "count");
    ("apdu.response_frames", "count"); ("apdu.wire_bytes", "bytes");
    ("apdu.retries", "count");
    ("fleet.sched_ms", "ms"); ("fleet.affinity_hit_pct", "%");
    ("fleet.fallbacks", "count"); ("fleet.queue_peak", "count");
    ("pool.warm_setup_pct", "%");
    ("dissem.plan_ms", "ms"); ("dissem.fanout_ms", "ms");
    ("dissem.evaluations", "count"); ("dissem.fanout_ratio", "ratio");
    ("dissem.mux_token_visits", "count");
    ("other.ms", "ms"); ("op.wall_ms", "ms"); ("op.sim_ms", "ms");
    ("trace.overhead_ms", "ms") ]

(* The traced run's metrics from a name -> value table, every name of
   [per_layer] present. *)
let layer_metrics tbl =
  List.map
    (fun (name, unit) ->
      metric name unit (Option.value ~default:0.0 (Hashtbl.find_opt tbl name)))
    per_layer

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit measured; a non-finite value would not be JSON. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let to_json r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed
    (String.concat ", " metrics)

let print r =
  Printf.printf "# workload %s, seed %d, %s run\n" r.workload r.seed
    (if r.trace then "traced" else "untraced");
  List.iter
    (fun (name, ok) ->
      Printf.printf "# check %s: %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  Printf.printf "# failed_ratio: %.6f (%d of %d)\n"
    (Stat.ratio (float_of_int r.failed) (float_of_int r.attempted))
    r.failed r.attempted;
  List.iter
    (fun m -> Printf.printf "%-32s %18.6f %s\n" m.name m.value m.unit)
    r.metrics;
  print_endline (to_json r)
