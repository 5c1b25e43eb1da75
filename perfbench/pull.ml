(* pull-egate: the paper's terminal on its own device. A closed loop
   with one outstanding request through [Proxy.run] on 1 KB / 2 KB/s
   e-gate cards with 128-byte chunks (as E3/E6 deploy them): 8 hospital
   documents under zipf popularity, three policies (broad, narrow and
   skip-heavy, value predicate), one request in three carrying a query. *)

module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Rule = Sdds_core.Rule
module Rsa = Sdds_crypto.Rsa
module Cost = Sdds_soe.Cost
module Card = Sdds_soe.Card
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Proxy = Sdds_proxy.Proxy
module L = World.Ledger

let name = "pull-egate"

type scale = {
  docs : int;
  doc_bytes : int;  (** serialized size of each document *)
  det_ops : int;  (** the deterministic window: sim and allocation figures *)
}

let default_scale = { docs = 8; doc_bytes = 15_500; det_ops = 192 }

(* Every policy fits the card's 1 KB together with its prepared cache. *)
let policies =
  [| ("broad", [ ('+', "//patient"); ('-', "//ssn") ]);
     ("narrow", [ ('+', "//admission") ]);
     ("pred", [ ('+', {|//patient[age>"60"]/admission|}) ]) |]

let queries = [| "//patient/name"; "//patient/admission" |]

type op = { doc : int; pol : int; query : string option }

type inputs = {
  seed : int;
  scale : scale;
  doc_ids : string array;
  docs : Dom.t array;
  schedule : op array;
}

let subject pol = fst policies.(pol)
let rules pol = World.rules_of ~subject:(subject pol) (snd policies.(pol))

(* Exactly one op in three per policy and one in three with a query;
   the document is drawn from the zipf head. *)
let inputs ?(scale = default_scale) ~seed () =
  let rng = World.rng ~seed 1 in
  let docs =
    Array.init scale.docs (fun _ ->
        World.sized
          (fun r -> Generator.hospital r ~patients:(scale.doc_bytes / 780))
          rng ~target:scale.doc_bytes)
  in
  let pick = World.zipf scale.docs and srng = World.rng ~seed 2 in
  let schedule =
    Array.init (max 1 scale.det_ops) (fun i ->
        {
          doc = pick srng;
          pol = i mod 3;
          query =
            (if (i / 3) mod 3 = 0 then Some queries.((i / 9) mod 2) else None);
        })
  in
  { seed; scale; doc_ids = Array.init scale.docs (Printf.sprintf "doc%02d"); docs; schedule }

type world = {
  ids : World.ids;
  drbg : Sdds_crypto.Drbg.t;
  store : Store.t;
  doc_keys : string array;
  cards : Card.t array;  (** one terminal per policy subject *)
  proxies : Proxy.t array;
}

(* Keys, publishing (index, chunks, Merkle tree, root signature), one
   grant and one signed rule blob per (document, policy), card
   personalisation, then a warm-up pull of every (document, policy) so
   every grant is unwrapped and installed here, not in the timed loop. *)
let setup inp =
  let ids = World.identities name in
  let drbg = World.drbg ~workload:name ~seed:inp.seed in
  let store = Store.create () in
  let n = Array.length inp.docs in
  let pubs =
    Array.mapi
      (fun i doc ->
        Publish.publish drbg ~publisher:ids.publisher ~doc_id:inp.doc_ids.(i)
          ~chunk_bytes:128 doc)
      inp.docs
  in
  Array.iteri
    (fun i (p, doc_key) ->
      let doc_id = inp.doc_ids.(i) in
      Store.put_document store p;
      Array.iteri
        (fun pol _ ->
          let subject = subject pol in
          Store.put_rules store ~doc_id ~subject
            (Publish.encrypt_rules_for drbg ~publisher:ids.publisher ~doc_key
               ~doc_id ~subject (rules pol));
          Store.put_grant store ~doc_id ~subject
            (Publish.grant drbg ~doc_key ~doc_id ~recipient:ids.user.Rsa.public))
        policies)
    pubs;
  let cards =
    Array.map
      (fun (s, _) -> Card.create ~profile:Cost.egate ~subject:s ids.user)
      policies
  in
  let proxies = Array.map (fun card -> Proxy.create ~store ~card) cards in
  for i = 0 to n - 1 do
    Array.iteri
      (fun pol proxy ->
        match Proxy.run proxy (Proxy.Request.make inp.doc_ids.(i)) with
        | Ok _ -> ()
        | Error e ->
            failwith
              (Format.asprintf "warm-up %s/%s: %a" inp.doc_ids.(i)
                 (subject pol) Proxy.pp_error e))
      proxies
  done;
  {
    ids;
    drbg;
    store;
    doc_keys = Array.map snd pubs;
    cards;
    proxies;
  }

(* Scheduled ops whose card still lacks the document key: each would
   unwrap a grant (an RSA private-key operation) inside the timed loop.
   Empty after [setup]. *)
let pending_grants inp w =
  Array.to_list inp.schedule
  |> List.filter (fun op ->
         not (Card.has_key w.cards.(op.pol) ~doc_id:inp.doc_ids.(op.doc)))

let goldens inp =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun d doc ->
      Array.iteri
        (fun pol _ ->
          List.iter
            (fun query ->
              Hashtbl.replace tbl (d, pol, query)
                (World.golden ?query ~rules:(rules pol) doc))
            (None :: List.map Option.some (Array.to_list queries)))
        policies)
    inp.docs;
  tbl

(* One timed op: wall seconds, minor words, and the outcome. *)
let run_op inp w op =
  let req = Proxy.Request.make ?xpath:op.query inp.doc_ids.(op.doc) in
  let w0 = Gc.minor_words () in
  let t0 = Stat.now () in
  let r = Proxy.run w.proxies.(op.pol) req in
  let t1 = Stat.now () in
  let words = Gc.minor_words () -. w0 in
  (t1 -. t0, words, r)

let verdict goldens op (r : (Proxy.outcome, Proxy.error) result) =
  match r with
  | Ok o when o.Proxy.xml = Hashtbl.find goldens (op.doc, op.pol, op.query) ->
      `Ok o
  | Ok _ -> `Wrong
  | Error e -> `Failed e

let op_at inp i = inp.schedule.(i mod Array.length inp.schedule)

(* The publisher-side latency of policy update [k], for the traced
   run's [dsp.update_sign_ms]: re-sign a rule blob with its version
   bumped and store it. The blob goes to [shadow], a store nobody serves
   from, so the world the ops see is untouched. *)
let update inp w shadow k =
  let d = k mod Array.length inp.docs and pol = k mod 3 in
  let doc_id = inp.doc_ids.(d) and subject = subject pol in
  let s, () =
    Stat.timed (fun () ->
        Store.put_rules shadow ~doc_id ~subject
          (Publish.encrypt_rules_for w.drbg ~publisher:w.ids.publisher
             ~doc_key:w.doc_keys.(d) ~doc_id ~subject ~version:(k + 1)
             (rules pol)))
  in
  1000.0 *. s

type tally = { mutable attempted : int; mutable failed : int }

let count tally = function
  | `Ok _ -> ()
  | `Wrong | `Failed _ -> tally.failed <- tally.failed + 1

let e2e ?(reps = 3) inp ~seconds =
  let goldens = goldens inp in
  let no_pending = ref true in
  let tally = { attempted = 0; failed = 0 } in
  let sims = ref [] and words = ref 0.0 and busy = ref 0.0 in
  let heap = ref (World.heap_words ()) in
  let det = inp.scale.det_ops in
  let measure ~first w ~seconds =
    if pending_grants inp w <> [] then no_pending := false;
    ignore @@ World.loop ~seconds ~min_ops:(if first then det else 0) (fun i ->
        let op = op_at inp i in
        let s, wd, r = run_op inp w op in
        tally.attempted <- tally.attempted + 1;
        busy := !busy +. s;
        let v = verdict goldens op r in
        count tally v;
        if first && i < det then begin
          words := !words +. wd;
          heap := max !heap (World.heap_words ());
          match v with
          | `Ok o ->
              sims := o.Proxy.card_report.Card.breakdown.Sdds_soe.Cost.total_ms :: !sims
          | `Wrong | `Failed _ -> ()
        end)
  in
  let setup_s = World.segments ~reps ~seconds (fun () -> setup inp) measure in
  Report.make ~workload:name ~seed:inp.seed ~trace:false
    ~checks:[ ("no grant install in the timed loop", !no_pending) ]
    ~failed:tally.failed ~attempted:tally.attempted
    (World.e2e ~setup_s ~ops:tally.attempted ~busy_s:!busy ~sims_ms:!sims
       ~words:!words ~det_ops:det ~heap_peak_words:!heap)

(* Replay one finished pull through the layers, outside its wall time. *)
let replay inp w led op (o : Proxy.outcome) =
  let doc_id = inp.doc_ids.(op.doc) and subject = subject op.pol in
  let src, blob =
    Replay.layer led "dsp.fetch_ms" (fun () ->
        let p = Option.get (Store.get_document w.store doc_id) in
        let blob = Option.get (Store.get_rules w.store ~doc_id ~subject) in
        (Publish.to_source p ~delivery:`Pull, blob))
  in
  let rep = o.Proxy.card_report and key = w.doc_keys.(op.doc) in
  let query = Option.map Sdds_xpath.Parser.parse op.query in
  let miss = not rep.Card.prepared_hit in
  if miss then Replay.prepare_miss led src ~key ~subject blob;
  let rules = Rule.for_subject subject (rules op.pol) in
  let compiled = Replay.compile led ~count:miss ?query rules in
  let encoded = Replay.decrypt_all led src ~key in
  Replay.merkle led src rep.Card.consumed_mask;
  let res = Replay.engine led ?query ~compiled rules encoded in
  ignore (Replay.encode led res.Sdds_index.Indexed_engine.outputs);
  let view =
    Replay.reassemble led ~has_query:(query <> None)
      res.Sdds_index.Indexed_engine.outputs
  in
  ignore (Replay.serialize led view);
  L.peak led "card.ram_peak_bytes" (float_of_int rep.Card.ram_peak_bytes);
  Replay.card_breakdown led rep.Card.breakdown

(* The traced run: an untraced phase, then a traced phase over the same
   schedule whose ops are each replayed through the layers. *)
let traced inp ~seconds =
  let _, w = World.build (fun () -> setup inp) in
  let goldens = goldens inp in
  let no_pending = pending_grants inp w = [] in
  let tally = { attempted = 0; failed = 0 } in
  let phase ~on_op =
    let wall = ref 0.0 in
    let ops =
      World.loop ~seconds:(seconds /. 2.0) ~min_ops:inp.scale.det_ops
        (fun i ->
          let op = op_at inp i in
          let s, _, r = run_op inp w op in
          tally.attempted <- tally.attempted + 1;
          wall := !wall +. (1000.0 *. s);
          let v = verdict goldens op r in
          count tally v;
          match v with `Ok o -> on_op op o | `Wrong | `Failed _ -> ())
    in
    (float_of_int ops, !wall)
  in
  let plain_ops, plain_wall = phase ~on_op:(fun _ _ -> ()) in
  let led = L.create () and sim_ok = ref true in
  let h0, m0, e0 = World.cache_totals w.cards in
  let ops, wall =
    phase ~on_op:(fun op o ->
        if not (replay inp w led op o) then sim_ok := false)
  in
  let h1, m1, e1 = World.cache_totals w.cards in
  L.add led "card.cache_evictions" (float_of_int (e1 - e0));
  let tbl, host_ok = Replay.table led ~ops ~wall_ms:wall in
  Hashtbl.replace tbl "card.cache_hit_pct"
    (100.0 *. Stat.ratio (float_of_int (h1 - h0)) (float_of_int (h1 - h0 + m1 - m0)));
  let shadow = Store.create () in
  Hashtbl.replace tbl "dsp.update_sign_ms"
    (Stat.median (List.init 9 (update inp w shadow)));
  Hashtbl.replace tbl "trace.overhead_ms"
    (Stat.ratio wall ops -. Stat.ratio plain_wall plain_ops);
  Report.make ~workload:name ~seed:inp.seed ~trace:true
    ~checks:
      [ ("card.*_ms sum to each op's simulated total", !sim_ok);
        ("host layers + other.ms = op wall", host_ok);
        ("no grant install in the timed loop", no_pending) ]
    ~failed:tally.failed ~attempted:tally.attempted
    (Report.layer_metrics tbl)
