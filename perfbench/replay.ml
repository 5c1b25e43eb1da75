(* The traced run's outside-in ledger: after an op, its own inputs are
   replayed through the public function of each layer, and every call
   is timed from here. Nothing inside the libraries is instrumented.
   Times are summed in a ledger and turned into per-op means at the end
   of the traced phase. *)

module Rsa = Sdds_crypto.Rsa
module Merkle = Sdds_crypto.Merkle
module Wire = Sdds_soe.Wire
module Card = Sdds_soe.Card
module Compile = Sdds_core.Compile
module Output_codec = Sdds_core.Output_codec
module Reassembler = Sdds_core.Reassembler
module Indexed_engine = Sdds_index.Indexed_engine
module Serializer = Sdds_xml.Serializer
module L = World.Ledger

let fi = float_of_int

(* Time [f ()] into layer [k]; its result passes through. *)
let layer led k f =
  let s, r = Stat.timed f in
  L.add_s led k s;
  r

(* What a prepared-cache miss pays on the card: the root signature,
   then the rule blob's MAC, decryption and publisher signature. *)
let prepare_miss led (src : Card.doc_source) ~key ~subject blob =
  layer led "crypto.rsa_verify_ms" (fun () ->
      let msg =
        Wire.signed_root_message ~doc_id:src.doc_id
          ~merkle_root:src.merkle_root ~plain_length:src.plain_length
      in
      if not (Rsa.verify src.publisher msg ~signature:src.root_signature)
      then failwith "replay: root signature";
      match
        Wire.decrypt_rules ~key ~doc_id:src.doc_id ~subject
          ~publisher:src.publisher blob
      with
      | Ok _ -> ()
      | Error e -> failwith ("replay: rule blob: " ^ e));
  L.add led "crypto.rsa_verifies" 2.0

(* The card decrypts every chunk up front, consumed or not. *)
let decrypt_all led (src : Card.doc_source) ~key =
  let plain =
    layer led "crypto.aes_ms" (fun () ->
        Array.mapi
          (fun i c ->
            match Wire.decrypt_chunk ~key ~doc_id:src.doc_id ~index:i c with
            | Some p -> p
            | None -> failwith "replay: chunk")
          src.chunks
        |> Array.to_list |> String.concat "")
  in
  L.add led "crypto.chunks_decrypted" (fi (Array.length src.chunks));
  plain

let merkle led (src : Card.doc_source) consumed =
  layer led "crypto.merkle_ms" (fun () ->
      Array.iteri
        (fun i used ->
          if
            used
            && not
                 (Merkle.verify ~root:src.merkle_root
                    ~leaf_count:src.leaf_count ~index:i ~leaf:src.chunks.(i)
                    (src.prove i))
          then failwith "replay: merkle proof")
        consumed);
  L.add led "crypto.chunks_consumed"
    (fi (Array.fold_left (fun n b -> if b then n + 1 else n) 0 consumed))

(* Which chunks an evaluation consumes: a chunk is skipped only when a
   jumped range covers it whole — the rule the card applies. *)
let consumed_of (src : Card.doc_source) skipped_ranges =
  let n = Array.length src.chunks and cb = src.chunk_plain_bytes in
  let consumed = Array.make n true in
  List.iter
    (fun (start, len) ->
      let first = (start + cb - 1) / cb and last = ((start + len) / cb) - 1 in
      for i = max 0 first to min (n - 1) last do
        consumed.(i) <- false
      done)
    skipped_ranges;
  consumed

(* [count] is false on a prepared-cache hit: the automata are rebuilt
   here only to drive the engine replay, the card did not pay for them. *)
let compile led ~count ?query rules =
  let s, c = Stat.timed (fun () -> Compile.compile ?query rules) in
  if count then begin
    L.add_s led "compile.ms" s;
    L.add led "compile.states" (fi (Compile.state_count c))
  end;
  c

let engine led ?query ~compiled rules encoded =
  let w0 = Gc.minor_words () in
  let s, (res : Indexed_engine.result) =
    Stat.timed (fun () -> Indexed_engine.run ?query ~compiled rules encoded)
  in
  L.add led "engine.words" (Gc.minor_words () -. w0);
  L.add_s led "engine.ms" s;
  L.add led "engine.events" (fi res.events_fed);
  L.add led "engine.token_visits" (fi res.engine_stats.token_visits);
  L.peak led "engine.peak_state_words"
    (fi res.engine_stats.peak_state_words);
  L.add led "index.skipped_bytes" (fi res.skipped_bytes);
  L.add led "index.encoded_bytes" (fi (String.length encoded));
  L.add led "index.subtrees_skipped" (fi res.skipped_subtrees);
  L.peak led "index.reader_peak_words" (fi res.reader_peak_words);
  res

let encode led outs =
  let b = layer led "codec.ms" (fun () -> Output_codec.encode_list outs) in
  L.add led "codec.output_bytes" (fi (String.length b));
  b

let decode led bytes = layer led "codec.ms" (fun () -> Output_codec.decode_list bytes)

let reassemble led ~has_query outs =
  layer led "reassemble.ms" (fun () -> Reassembler.run ~has_query outs)

let serialize led view =
  layer led "serialize.ms" (fun () ->
      Option.map (Serializer.to_string ~indent:true) view)

(* The simulated card figures of one evaluation. Returns whether the
   fields add up exactly to the total, in the cost model's own addition
   order. *)
let card_breakdown led (b : Sdds_soe.Cost.breakdown) =
  let add = L.add led in
  add "card.transfer_ms" b.transfer_ms;
  add "card.crypto_ms" b.crypto_ms;
  add "card.cpu_ms" b.cpu_ms;
  add "card.rsa_ms" b.rsa_ms;
  add "card.compile_ms" b.compile_ms;
  add "card.bytes_transferred" (fi b.bytes_transferred);
  add "card.apdu_frames" (fi b.apdu_frames);
  add "op.sim_ms" b.total_ms;
  b.transfer_ms +. b.crypto_ms +. b.cpu_ms +. b.rsa_ms +. b.compile_ms
  = b.total_ms

(* Host layers an op's wall time is split into; [other.ms] is the rest. *)
let host_layers =
  [ "dsp.fetch_ms"; "crypto.aes_ms"; "crypto.rsa_verify_ms";
    "crypto.merkle_ms"; "compile.ms"; "engine.ms"; "codec.ms";
    "reassemble.ms"; "serialize.ms"; "apdu.transport_ms"; "fleet.sched_ms";
    "dissem.plan_ms"; "dissem.fanout_ms" ]

(* Ledger sums reported as per-op means. *)
let per_op_sums =
  host_layers
  @ [ "crypto.chunks_decrypted"; "crypto.rsa_verifies"; "compile.states";
      "engine.events"; "engine.token_visits"; "index.subtrees_skipped";
      "codec.output_bytes"; "card.transfer_ms"; "card.crypto_ms";
      "card.cpu_ms"; "card.rsa_ms"; "card.compile_ms"; "card.queue_ms";
      "card.bytes_transferred"; "card.apdu_frames"; "card.cache_evictions";
      "apdu.command_frames"; "apdu.response_frames"; "apdu.wire_bytes";
      "apdu.retries"; "fleet.fallbacks"; "dissem.evaluations";
      "dissem.mux_token_visits"; "op.sim_ms" ]

let peaks =
  [ "engine.peak_state_words"; "index.reader_peak_words";
    "card.ram_peak_bytes" ]

(* The per-layer table of a traced phase of [ops] ops whose walls sum
   to [wall_ms]. Host layers plus [other.ms] add up to [op.wall_ms] by
   construction; the returned flag says the split is finite. *)
let table led ~ops ~wall_ms =
  let tbl = Hashtbl.create 64 in
  let per k = Stat.ratio (L.get led k) ops in
  List.iter (fun k -> Hashtbl.replace tbl k (per k)) per_op_sums;
  List.iter (fun k -> Hashtbl.replace tbl k (L.get led k)) peaks;
  let get k = L.get led k in
  Hashtbl.replace tbl "crypto.decrypt_useful_ratio"
    (Stat.ratio (get "crypto.chunks_consumed") (get "crypto.chunks_decrypted"));
  Hashtbl.replace tbl "index.skipped_bytes_ratio"
    (Stat.ratio (get "index.skipped_bytes") (get "index.encoded_bytes"));
  Hashtbl.replace tbl "engine.ns_per_event"
    (Stat.ratio (1.0e6 *. get "engine.ms") (get "engine.events"));
  Hashtbl.replace tbl "engine.minor_words_per_event"
    (Stat.ratio (get "engine.words") (get "engine.events"));
  let wall = Stat.ratio wall_ms ops in
  let hosts = List.fold_left (fun acc k -> acc +. per k) 0.0 host_layers in
  let other = wall -. hosts in
  Hashtbl.replace tbl "op.wall_ms" wall;
  Hashtbl.replace tbl "other.ms" other;
  (tbl, Float.is_finite (hosts +. other) && ops > 0.0)
