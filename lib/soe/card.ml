module Aes = Sdds_crypto.Aes
module Rsa = Sdds_crypto.Rsa
module Sha256 = Sdds_crypto.Sha256
module Merkle = Sdds_crypto.Merkle
module Rule = Sdds_core.Rule
module Compile = Sdds_core.Compile
module Output_codec = Sdds_core.Output_codec
module Ram = Sdds_core.Ram

module Indexed_engine = Sdds_index.Indexed_engine
module Obs = Sdds_obs.Obs

(* A resident prepared evaluation: everything the card derives from one
   (rule blob, query) pair before any document byte is processed. Keyed by
   (doc_id, blob digest, query); keeping it across evaluations is what the
   session layer amortizes. *)
type prepared = {
  p_key : string;  (* document key the entry was prepared under *)
  p_version : int;  (* policy version parsed from the blob *)
  p_rules : Rule.t list;  (* subject-filtered *)
  p_compiled : Compile.t;
  mutable p_root : string;  (* Merkle root whose signature was verified *)
  mutable p_length : int;  (* the plaintext length that signature bound *)
  mutable p_tick : int;  (* LRU clock at last use *)
}

type cache_stats = {
  entries : int;
  resident_bytes : int;
  cache_budget_bytes : int;
  hits : int;
  misses : int;
  evictions : int;
}

type t = {
  prof : Cost.profile;
  subj : string;
  keypair : Rsa.keypair;
  doc_keys : (string, string) Hashtbl.t;
  rule_versions : (string, int) Hashtbl.t;
      (* per document: highest policy version enforced so far (secure
         stable storage) — the anti-rollback high-water mark *)
  cache : (string, prepared) Hashtbl.t;
  mutable resident : int;  (* bytes the cache holds *)
  mutable cache_clock : int;
  obs : Obs.t option;
  (* The card's own cache counts, which [cache_stats] reads; each event
     is also added to the scope's cell for its name. *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  c_hits : Obs.Metrics.Counter.t;
  c_misses : Obs.Metrics.Counter.t;
  c_evictions : Obs.Metrics.Counter.t;
}

let create ?obs ?(profile = Cost.egate) ~subject keypair =
  if profile.Cost.ram_bytes < 4 then
    invalid_arg "Card.create: a profile with under 4 bytes of RAM";
  {
    prof = profile;
    subj = subject;
    keypair;
    doc_keys = Hashtbl.create 8;
    rule_versions = Hashtbl.create 8;
    cache = Hashtbl.create 8;
    resident = 0;
    cache_clock = 0;
    obs;
    hits = 0;
    misses = 0;
    evictions = 0;
    c_hits = Obs.counter obs "card.cache.hits";
    c_misses = Obs.counter obs "card.cache.misses";
    c_evictions = Obs.counter obs "card.cache.evictions";
  }

let cache_budget t = t.prof.Cost.ram_bytes / 4

let cache_stats t =
  {
    entries = Hashtbl.length t.cache;
    resident_bytes = t.resident;
    cache_budget_bytes = cache_budget t;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }

let subject t = t.subj
let public_key t = t.keypair.Rsa.public
let profile t = t.prof
let obs t = t.obs

type error =
  | No_key of string
  | Stale_key of string
  | Bad_grant
  | Bad_signature
  | Integrity_failure of { chunk : int }
  | Memory_exceeded of { need_bytes : int; budget_bytes : int }
  | Bad_rules of string
  | Replayed_rules of { seen : int; offered : int }

let pp_error ppf = function
  | No_key id -> Format.fprintf ppf "no key for document %s" id
  | Stale_key id ->
      Format.fprintf ppf
        "stale key for document %s (authentic data, undecryptable: the \
         document was re-keyed)" id
  | Bad_grant -> Format.pp_print_string ppf "grant failed to unwrap"
  | Bad_signature -> Format.pp_print_string ppf "bad publisher signature"
  | Integrity_failure { chunk } ->
      Format.fprintf ppf "integrity failure on chunk %d" chunk
  | Memory_exceeded { need_bytes; budget_bytes } ->
      Format.fprintf ppf "RAM exceeded: need %dB, budget %dB" need_bytes
        budget_bytes
  | Bad_rules msg -> Format.fprintf ppf "bad rule blob: %s" msg
  | Replayed_rules { seen; offered } ->
      Format.fprintf ppf
        "stale policy: version %d offered after version %d was enforced \
         (rollback attempt)"
        offered seen

let install_wrapped_key t ~doc_id ~wrapped =
  match Wire.unwrap_doc_key t.keypair.Rsa.secret ~doc_id wrapped with
  | Some key ->
      Hashtbl.replace t.doc_keys doc_id key;
      Ok ()
  | None -> Error Bad_grant

let has_key t ~doc_id = Hashtbl.mem t.doc_keys doc_id

type doc_source = {
  doc_id : string;
  chunks : string array;
  chunk_plain_bytes : int;
  plain_length : int;
  prove : int -> Merkle.proof;
  multiprove : bool array -> Merkle.proof;
  leaf_count : int;
  merkle_root : string;
  root_signature : string;
  publisher : Rsa.public;
  delivery : [ `Pull | `Push ];
}

type report = {
  breakdown : Cost.breakdown;
  ram_peak_bytes : int;
  chunks_consumed : int;
  chunks_total : int;
  consumed_mask : bool array;
  skipped_bytes : int;
  events : int;
  token_visits : int;
  output_bytes : int;
  prepared_hit : bool;
}

let guard_drbg t source =
  (* Guard keys are card-local secrets: seed from the card's own identity
     and the document, never shipped anywhere. *)
  Sdds_crypto.Drbg.create
    ~seed:("guard|" ^ t.subj ^ "|" ^ source.doc_id ^ "|"
          ^ Sdds_crypto.Rsa.fingerprint t.keypair.Rsa.public)

(* ------------------------------------------------------------------ *)
(* Prepared-evaluation cache                                           *)
(* ------------------------------------------------------------------ *)

let cache_key ~doc_id ~encrypted_rules query =
  doc_id ^ "\x00"
  ^ Sha256.digest encrypted_rules
  ^ "\x00"
  ^ Option.fold ~none:"" ~some:Sdds_xpath.Ast.to_string query

(* An entry's residency charge against the cache budget: the packed
   automaton (one field per state, as the evaluator accounting) plus the
   document key and fixed entry framing. *)
let entry_bytes p = 64 + Ram.field_bytes (Compile.state_count p.p_compiled)

let count_hit t =
  t.hits <- t.hits + 1;
  Obs.Metrics.Counter.inc t.c_hits

let count_miss t =
  t.misses <- t.misses + 1;
  Obs.Metrics.Counter.inc t.c_misses

let count_eviction t =
  t.evictions <- t.evictions + 1;
  Obs.Metrics.Counter.inc t.c_evictions

let drop_entry t key p =
  Hashtbl.remove t.cache key;
  t.resident <- t.resident - entry_bytes p

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k p acc ->
        match acc with
        | Some (_, best) when best.p_tick <= p.p_tick -> acc
        | _ -> Some (k, p))
      t.cache None
  in
  match victim with
  | Some (k, p) ->
      drop_entry t k p;
      count_eviction t
  | None -> ()

(* Admit a freshly prepared entry, evicting least-recently-used residents
   until it fits; an entry larger than the whole budget is simply not
   cached (the evaluation itself already succeeded). *)
let admit t ~key:ckey prepared_entry =
  let bytes = entry_bytes prepared_entry in
  if bytes <= cache_budget t then begin
    (match Hashtbl.find_opt t.cache ckey with
    | Some old -> drop_entry t ckey old
    | None -> ());
    while t.resident + bytes > cache_budget t do
      evict_lru t
    done;
    t.resident <- t.resident + bytes;
    Hashtbl.replace t.cache ckey prepared_entry
  end

(* Chunks fully contained in a skipped byte range are never consumed. *)
let consumed_chunks ~n_chunks ~chunk_plain_bytes ~skipped_ranges =
  let consumed = Array.make n_chunks true in
  List.iter
    (fun (start, len) ->
      let stop = start + len in
      let first = (start + chunk_plain_bytes - 1) / chunk_plain_bytes in
      let last = (stop / chunk_plain_bytes) - 1 in
      for i = max 0 first to min (n_chunks - 1) last do
        consumed.(i) <- false
      done)
    skipped_ranges;
  consumed

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* The per-document path of evaluate and disseminate                   *)
(* ------------------------------------------------------------------ *)

(* The publisher's signature over the Merkle root and the exact
   plaintext length: one RSA operation. *)
let root_signed meter source =
  Cost.charge_rsa meter ~ops:1;
  Rsa.verify source.publisher
    (Wire.signed_root_message ~doc_id:source.doc_id
       ~merkle_root:source.merkle_root ~plain_length:source.plain_length)
    ~signature:source.root_signature

(* Simulation: every chunk is decrypted up front, under one key schedule,
   into its place in one buffer, and the callers charge only what they
   consume. Chunk [i]'s place starts at [i * chunk_plain_bytes] and holds
   the rest of the signed plaintext, up to [chunk_plain_bytes]; the
   buffer ends with the last place the chunks reach. A chunk the key does
   not open, or opens to another length, is zero-filled, so later chunks
   stay in place, and its index is returned. The two are never told
   apart: a terminal that splices blocks into a chunk learns nothing from
   whether their padding was valid. *)
let open_chunks ~key source =
  let k = Aes.expand_key key in
  let cpb = max 0 source.chunk_plain_bytes in
  let total =
    max 0 (min source.plain_length (Array.length source.chunks * cpb))
  in
  let plain = Bytes.create total in
  let bad = ref [] in
  Array.iteri
    (fun i cipher ->
      let pos = min (i * cpb) total in
      let len = min cpb (total - pos) in
      match
        Wire.decrypt_chunk_into k ~doc_id:source.doc_id ~index:i cipher plain
          pos len
      with
      | Some n when n = len -> ()
      | Some _ | None ->
          bad := i :: !bad;
          Bytes.fill plain pos len '\000')
    source.chunks;
  (Bytes.unsafe_to_string plain, !bad)

(* Verify the wanted chunks against the signed root, using proofs the
   (untrusted) server provides. A tampering server can at best serve the
   stale proofs of the original tree, which expose any modified leaf it
   actually has to deliver. One multiproof covers the request: its
   digests cross the link once, each wanted leaf is hashed, and each
   interior node rebuilt costs one SHA block. If it fails, each wanted
   chunk's own inclusion proof is fetched and checked in document order
   (leaf and path hashing, proof bytes on the link), and the first chunk
   that fails decides: a bad proof is an integrity failure, and an
   authentic chunk that did not decrypt means the document was re-keyed.
   A request whose chunks all pass their own proofs goes ahead, charged
   for both. *)
let check_chunks meter source ~bad wanted =
  let rec per_chunk i =
    if i = Array.length wanted then Ok ()
    else if not wanted.(i) then per_chunk (i + 1)
    else begin
      let leaf = source.chunks.(i) in
      let proof = try source.prove i with Invalid_argument _ -> [] in
      Cost.charge_transfer meter ~bytes:(Merkle.proof_size_bytes proof);
      Cost.charge_hash meter ~bytes:(String.length leaf);
      Cost.charge_hash meter ~bytes:(64 * List.length proof);
      if
        not
          (Merkle.verify ~root:source.merkle_root
             ~leaf_count:source.leaf_count ~index:i ~leaf proof)
      then Error (Integrity_failure { chunk = i })
      else if List.mem i bad then Error (Stale_key source.doc_id)
      else per_chunk (i + 1)
    end
  in
  let leaves = ref [] in
  for i = Array.length wanted - 1 downto 0 do
    if wanted.(i) then leaves := source.chunks.(i) :: !leaves
  done;
  let leaves = !leaves in
  let proof = try source.multiprove wanted with Invalid_argument _ -> [] in
  Cost.charge_transfer meter ~bytes:(Merkle.proof_size_bytes proof);
  List.iter
    (fun leaf -> Cost.charge_hash meter ~bytes:(String.length leaf))
    leaves;
  match
    Merkle.multiverify ~root:source.merkle_root ~leaf_count:source.leaf_count
      ~wanted ~leaves proof
  with
  | Some hashes ->
      Cost.charge_hash meter ~bytes:(64 * hashes);
      if List.exists (fun i -> wanted.(i)) bad then
        Error (Stale_key source.doc_id)
      else Ok ()
  | None -> per_chunk 0

(* A rule blob is transferred, MAC-checked and decrypted. *)
let charge_blob meter blob =
  let bytes = String.length blob in
  Cost.charge_transfer meter ~bytes;
  Cost.charge_hash meter ~bytes;
  Cost.charge_decrypt meter ~bytes

(* A guard is its key plus two packed fields. *)
let guard_bytes = Guard.seal_key_bytes + Ram.field_bytes 2

(* [wire] turns the engine's outputs into the stream that crosses the
   link, with that stream's exact size and the bytes held to make it. *)
let evaluate_with ~wire t source ~encrypted_rules ?query ?(use_index = true)
    () =
  Obs.Tracer.with_span (Obs.tracer t.obs)
    ~args:[ ("doc_id", source.doc_id); ("subject", t.subj) ]
    "card.evaluate"
  @@ fun () ->
  match Hashtbl.find_opt t.doc_keys source.doc_id with
  | None -> Error (No_key source.doc_id)
  | Some key -> (
      let meter = Cost.meter t.prof in
      let n_chunks = Array.length source.chunks in
      let ckey = cache_key ~doc_id:source.doc_id ~encrypted_rules query in
      let seen_version () =
        Option.value ~default:(-1)
          (Hashtbl.find_opt t.rule_versions source.doc_id)
      in
      (* 1+2. Prepare the evaluation: publisher signature over the Merkle
         root, then the rule blob (transferred, MAC-checked, decrypted,
         parsed, compiled). A resident prepared entry skips all of it —
         except that a root or plaintext length other than the one it last
         verified pays the signature check again — while the
         anti-rollback high-water mark is enforced on both paths. *)
      let prepare () =
        let resident =
          match Hashtbl.find_opt t.cache ckey with
          | Some p when String.equal p.p_key key -> Some (ckey, p)
          | Some p ->
              (* the document was re-granted under a different key: the
                 entry can never serve again *)
              drop_entry t ckey p;
              count_eviction t;
              None
          | None -> None
        in
        match resident with
        | Some (ckey, p) ->
            let seen = seen_version () in
            if p.p_version < seen then begin
              (* a version bump was enforced since this entry was built:
                 it must never serve again (rollback through the cache) *)
              drop_entry t ckey p;
              count_eviction t;
              Error (Replayed_rules { seen; offered = p.p_version })
            end
            else if
              (not
                 (String.equal p.p_root source.merkle_root
                 && p.p_length = source.plain_length))
              && not (root_signed meter source)
            then Error Bad_signature
            else begin
              p.p_root <- source.merkle_root;
              p.p_length <- source.plain_length;
              Hashtbl.replace t.rule_versions source.doc_id
                (max seen p.p_version);
              count_hit t;
              t.cache_clock <- t.cache_clock + 1;
              p.p_tick <- t.cache_clock;
              Ok (p.p_rules, p.p_compiled, true)
            end
        | None ->
            if not (root_signed meter source) then Error Bad_signature
            else begin
              charge_blob meter encrypted_rules;
              match
                Wire.decrypt_rules ~key ~doc_id:source.doc_id ~subject:t.subj
                  ~publisher:source.publisher encrypted_rules
              with
              | Error msg -> Error (Bad_rules msg)
              | Ok (version, rules) ->
                  let seen = seen_version () in
                  if version < seen then
                    Error (Replayed_rules { seen; offered = version })
                  else begin
                    Hashtbl.replace t.rule_versions source.doc_id version;
                    let rules = Rule.for_subject t.subj rules in
                    let compiled = Compile.compile ?query rules in
                    Cost.charge_compile meter
                      ~states:(Compile.state_count compiled);
                    count_miss t;
                    t.cache_clock <- t.cache_clock + 1;
                    admit t ~key:ckey
                      {
                        p_key = key;
                        p_version = version;
                        p_rules = rules;
                        p_compiled = compiled;
                        p_root = source.merkle_root;
                        p_length = source.plain_length;
                        p_tick = t.cache_clock;
                      };
                    Ok (rules, compiled, false)
                  end
            end
      in
      let* rules, compiled, prepared_hit = prepare () in
      (* 3. Open every chunk. Truncation shows before the engine runs: the
         signed message binds the exact plaintext length. *)
      let encoded, bad = open_chunks ~key source in
      if String.length encoded <> source.plain_length then
        Error (Integrity_failure { chunk = n_chunks })
      else
        (* 4. Stream through the engine with skipping, reusing the
           prepared automaton. *)
        match
          Indexed_engine.run ?obs:t.obs ?query ~use_index ~compiled rules
            encoded
        with
        | exception Invalid_argument _ ->
            (* Garbage reached the decoder: some chunk fails its proof or
               did not decrypt, and the walk over all of them names it. *)
            let all = Array.make n_chunks true in
            let* () = check_chunks meter source ~bad all in
            Error (Integrity_failure { chunk = 0 })
        | res -> (
            let consumed =
              if use_index then
                consumed_chunks ~n_chunks
                  ~chunk_plain_bytes:source.chunk_plain_bytes
                  ~skipped_ranges:res.Indexed_engine.skipped_ranges
              else Array.make n_chunks true
            in
            let* () = check_chunks meter source ~bad consumed in
            (* 5. Charge transfer and decryption. *)
            Array.iteri
              (fun i used ->
                let cipher_bytes = String.length source.chunks.(i) in
                match (used, source.delivery) with
                | true, _ ->
                    Cost.charge_transfer meter ~bytes:cipher_bytes;
                    Cost.charge_decrypt meter ~bytes:cipher_bytes
                | false, `Pull -> ()
                | false, `Push ->
                    (* flows past the card, discarded without decryption *)
                    Cost.charge_transfer meter ~bytes:cipher_bytes)
              consumed;
            (* 6. Automaton work and result upload. *)
            let st = res.Indexed_engine.engine_stats in
            Cost.charge_events meter ~events:res.Indexed_engine.events_fed
              ~tokens:st.Sdds_core.Engine.token_visits;
            let stream, out_bytes, held_bytes =
              wire res.Indexed_engine.outputs
            in
            Cost.charge_transfer meter ~bytes:out_bytes;
            (* 7. RAM: the layout's charge, against the whole RAM. The
               prepared entry in use is the evaluator's own state; other
               residents make room, least recently used first. The entry
               in use is the most recently used, and with the others gone
               the charge fits, so it is never evicted here. *)
            let ram = t.prof.Cost.ram_bytes in
            let ram_bytes =
              Ram.charge ~state_words:st.Sdds_core.Engine.peak_state_words
                ~reader_words:res.Indexed_engine.reader_peak_words
                ~tags:(Ram.tag_table_entries res.Indexed_engine.outputs)
                ~held_bytes ~chunk_bytes:source.chunk_plain_bytes
            in
            if ram_bytes > ram then
              Error
                (Memory_exceeded { need_bytes = ram_bytes; budget_bytes = ram })
            else begin
              let in_use =
                match Hashtbl.find t.cache ckey with
                | p -> entry_bytes p
                | exception Not_found -> 0
              in
              while ram_bytes > ram - (t.resident - in_use) do
                evict_lru t
              done;
              Obs.inc t.obs "card.evaluations" 1;
              Obs.set_gauge t.obs "card.ram_peak_bytes" ram_bytes;
              Obs.observe t.obs "card.output_bytes" out_bytes;
              let report =
                {
                  breakdown = Cost.read meter;
                  ram_peak_bytes = ram_bytes;
                  chunks_consumed =
                    Array.fold_left
                      (fun a b -> if b then a + 1 else a)
                      0 consumed;
                  chunks_total = n_chunks;
                  consumed_mask = consumed;
                  skipped_bytes = res.Indexed_engine.skipped_bytes;
                  events = res.Indexed_engine.events_fed;
                  token_visits = st.Sdds_core.Engine.token_visits;
                  output_bytes = out_bytes;
                  prepared_hit;
                }
              in
              Ok (stream, report)
            end))

let evaluate t source ~encrypted_rules ?query ?use_index () =
  evaluate_with t source ~encrypted_rules ?query ?use_index ()
    ~wire:(fun outputs -> (outputs, Output_codec.size_list outputs, 0))

let evaluate_protected t source ~encrypted_rules ?query ?use_index () =
  evaluate_with t source ~encrypted_rules ?query ?use_index ()
    ~wire:(fun outputs ->
      let protector =
        Guard.Protector.create (guard_drbg t source)
          ~has_query:(query <> None) ()
      in
      let messages = List.concat_map (Guard.Protector.feed protector) outputs in
      Guard.Protector.finish protector;
      ( messages,
        Guard.wire_bytes messages,
        guard_bytes * Guard.Protector.peak_live_guards protector ))

(* ------------------------------------------------------------------ *)
(* Dissemination: one stream, N subscribers, clustered evaluation      *)
(* ------------------------------------------------------------------ *)

type dissem_report = {
  dissem_breakdown : Cost.breakdown;
  sharing : Sdds_dissem.Fanout.stats;
  dissem_output_bytes : int;  (* sum over all subscriber streams *)
  rejected : int;  (* subscribers refused before clustering *)
}

(* Dissemination watermarks live in the same stable-storage table as the
   card's own, under keys that cannot collide with a bare doc_id. *)
let dissem_version_key ~doc_id ~subject = doc_id ^ "\x00" ^ subject

let disseminate t source ~subscribers () =
  Obs.Tracer.with_span (Obs.tracer t.obs)
    ~args:
      [ ("doc_id", source.doc_id);
        ("subscribers", string_of_int (List.length subscribers)) ]
    "card.disseminate"
  @@ fun () ->
  match Hashtbl.find_opt t.doc_keys source.doc_id with
  | None -> Error (No_key source.doc_id)
  | Some key -> (
      let meter = Cost.meter t.prof in
      let n_chunks = Array.length source.chunks in
      if not (root_signed meter source) then Error Bad_signature
      else
        (* Dissemination pushes whole authorized views: every chunk is
           transferred, decrypted and proof-checked — once, for the whole
           population. *)
        let encoded, bad = open_chunks ~key source in
        let* () = check_chunks meter source ~bad (Array.make n_chunks true) in
        Array.iter
          (fun cipher ->
            Cost.charge_transfer meter ~bytes:(String.length cipher);
            Cost.charge_decrypt meter ~bytes:(String.length cipher))
          source.chunks;
        if String.length encoded <> source.plain_length then
          Error (Integrity_failure { chunk = n_chunks })
        else
          match Sdds_index.Reader.to_events encoded with
          | exception Invalid_argument _ ->
              Error (Integrity_failure { chunk = 0 })
          | events ->
              (* Per-subscriber preparation: each blob is MAC-checked,
                 decrypted and version-gated independently; a broken blob
                 rejects its subscriber, never the publish. Watermarks are
                 read against the pre-publish snapshot (listing order
                 cannot matter) and advanced only when the publish goes
                 through. *)
              let new_marks : (string, int) Hashtbl.t = Hashtbl.create 8 in
              let prepared =
                List.map
                  (fun (subject, blob) ->
                    charge_blob meter blob;
                    match
                      Wire.decrypt_rules ~key ~doc_id:source.doc_id ~subject
                        ~publisher:source.publisher blob
                    with
                    | Error msg -> (subject, Error (Bad_rules msg))
                    | Ok (version, rules) ->
                        let seen =
                          Option.value ~default:(-1)
                            (Hashtbl.find_opt t.rule_versions
                               (dissem_version_key ~doc_id:source.doc_id
                                  ~subject))
                        in
                        if version < seen then
                          ( subject,
                            Error (Replayed_rules { seen; offered = version }) )
                        else begin
                          let cur =
                            Option.value ~default:seen
                              (Hashtbl.find_opt new_marks subject)
                          in
                          Hashtbl.replace new_marks subject (max cur version);
                          (subject, Ok (Rule.for_subject subject rules))
                        end)
                  subscribers
              in
              let population =
                List.filter_map
                  (fun (s, r) ->
                    match r with Ok rules -> Some (s, rules) | Error _ -> None)
                  prepared
              in
              let* plan =
                Result.map_error
                  (fun e ->
                    Bad_rules
                      (Format.asprintf "%a" Sdds_dissem.Cluster.pp_error e))
                  (Sdds_dissem.Cluster.plan population)
              in
              Hashtbl.iter
                (fun subject v ->
                  Hashtbl.replace t.rule_versions
                    (dissem_version_key ~doc_id:source.doc_id ~subject)
                    v)
                new_marks;
              (* Compilation is per cluster, not per subscriber — the first
                 dividend of the digest grouping. *)
              Array.iter
                (fun c ->
                  Cost.charge_compile meter
                    ~states:
                      (Compile.state_count c.Sdds_dissem.Cluster.compiled))
                plan.Sdds_dissem.Cluster.clusters;
              let delivered, stats =
                Sdds_dissem.Fanout.run_plan ?obs:t.obs plan events
              in
              let n_events = List.length events in
              (* One event pass per evaluation actually run; the mux walk's
                 trie-token work stands in for the per-engine token visits
                 it replaces. *)
              Cost.charge_events meter
                ~events:(n_events * stats.Sdds_dissem.Fanout.evaluations)
                ~tokens:stats.Sdds_dissem.Fanout.mux_token_visits;
              (* Sharing saves evaluations, not uploads: every subscriber's
                 stream crosses the link. Members of a cluster share one
                 list ([delivered] follows [assignment]), sized once. *)
              let sizes =
                Array.make (Array.length plan.Sdds_dissem.Cluster.clusters) (-1)
              in
              let out_bytes =
                List.fold_left2
                  (fun acc (_, i) (_, outs) ->
                    if sizes.(i) < 0 then
                      sizes.(i) <- Output_codec.size_list outs;
                    acc + sizes.(i))
                  0 plan.Sdds_dissem.Cluster.assignment delivered
              in
              Cost.charge_transfer meter ~bytes:out_bytes;
              let results =
                List.map
                  (fun (subject, r) ->
                    match r with
                    | Error e -> (subject, Error e)
                    | Ok _ ->
                        ( subject,
                          Ok
                            (Option.value ~default:[]
                               (List.assoc_opt subject delivered)) ))
                  prepared
              in
              Obs.inc t.obs "card.disseminations" 1;
              Ok
                ( results,
                  {
                    dissem_breakdown = Cost.read meter;
                    sharing = stats;
                    dissem_output_bytes = out_bytes;
                    rejected = List.length prepared - List.length population;
                  } ))
