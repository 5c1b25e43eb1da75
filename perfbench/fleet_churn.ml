(* fleet-churn: a DSP front-end serving many terminals while owners keep
   changing policies. A closed loop with 32 outstanding requests over a
   [Proxy.Fleet] of 4 [Cost.fleet] cards x 4 logical channels, each card
   behind its own APDU [Remote_card.Host] transport, affinity routing;
   zipf over 16 hospital documents, queries mixed as in E19. One op in
   16 is a policy update: the rule blob re-signed with its version
   bumped, alternating between two policies, which moves the key's ring
   position and invalidates its prepared entry. *)

module Rng = Sdds_util.Rng
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Rule = Sdds_core.Rule
module Rsa = Sdds_crypto.Rsa
module Cost = Sdds_soe.Cost
module Card = Sdds_soe.Card
module Remote_card = Sdds_soe.Remote_card
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Proxy = Sdds_proxy.Proxy
module Fleet = Sdds_proxy.Fleet
module L = World.Ledger

let name = "fleet-churn"
let subject = "u"
let cards = 4
let outstanding = 32

(* Room for two queued requests per channel: the 32 outstanding fill
   the fleet, so a hot key's card overflows to the least-loaded one. *)
let queue_limit = 8

type scale = {
  docs : int;
  det_ops : int;  (** the deterministic window, in completed requests *)
}

let default_scale = { docs = 16; det_ops = 1024 }

let policies =
  [| [ ('+', "//patient"); ('-', "//ssn") ];
     [ ('+', "//patient"); ('-', "//diagnosis") ] |]

let rules pol = World.rules_of ~subject policies.(pol)
let xpaths = [| None; Some "//patient/name"; Some "//patient" |]

type op = Read of { doc : int; query : int } | Update of int

type inputs = {
  seed : int;
  scale : scale;
  doc_ids : string array;
  docs : Dom.t array;
  schedule : op array;
}

(* Reads pick their document from the zipf head; updates pick theirs
   uniformly, so writes are spread over the population. *)
let inputs ?(scale = default_scale) ~seed () =
  let rng = World.rng ~seed 1 in
  let docs =
    Array.init scale.docs (fun i ->
        let patients = 1 + (i mod 3) in
        World.sized
          (fun r -> Generator.hospital r ~patients)
          rng ~target:(800 * patients))
  in
  let pick = World.zipf scale.docs and srng = World.rng ~seed 2 in
  let schedule =
    Array.init 4096 (fun i ->
        if i mod 16 = 15 then Update (Rng.int srng scale.docs)
        else Read { doc = pick srng; query = i mod Array.length xpaths })
  in
  { seed; scale; doc_ids = Array.init scale.docs (Printf.sprintf "fdoc%02d"); docs; schedule }

(* Host time spent inside the closures the fleet is handed: the APDU
   transports (which include the card's own work) and the DSP resolve
   the card host calls on SELECT. Off during untraced phases. *)
type probe = {
  mutable on : bool;
  mutable transport_s : float;
  mutable resolve_s : float;
}

type world = {
  ids : World.ids;
  drbg : Sdds_crypto.Drbg.t;
  store : Store.t;
  doc_keys : string array;
  cardset : Card.t array;
  fleet : Fleet.t;
  policy : int array;  (** current policy per document *)
  version : int array;
  probe : probe;
}

let with_probe probe add f =
  if probe.on then begin
    let s, r = Stat.timed f in
    add s;
    r
  end
  else f ()

let sign_rules w d =
  Publish.encrypt_rules_for w.drbg ~publisher:w.ids.publisher
    ~doc_key:w.doc_keys.(d) ~doc_id:(Printf.sprintf "fdoc%02d" d) ~subject
    ~version:w.version.(d) (rules w.policy.(d))

(* Keys, publishing, one grant and one rule blob per document, four
   cards behind APDU hosts, the fleet, and a warm-up: for every document
   a burst that fills the ring's card and overflows once onto each other
   card, so every card's pool installs every grant here. *)
let setup inp =
  let ids = World.identities name in
  let drbg = World.drbg ~workload:name ~seed:inp.seed in
  let store = Store.create () in
  let n = Array.length inp.docs in
  let doc_keys =
    Array.mapi
      (fun i doc ->
        let doc_id = inp.doc_ids.(i) in
        let p, doc_key = Publish.publish drbg ~publisher:ids.publisher ~doc_id doc in
        Store.put_document store p;
        Store.put_grant store ~doc_id ~subject
          (Publish.grant drbg ~doc_key ~doc_id ~recipient:ids.user.Rsa.public);
        doc_key)
      inp.docs
  in
  let probe = { on = false; transport_s = 0.0; resolve_s = 0.0 } in
  let resolve id =
    with_probe probe
      (fun s -> probe.resolve_s <- probe.resolve_s +. s)
      (fun () ->
        Option.map
          (fun p -> Publish.to_source p ~delivery:`Pull)
          (Store.get_document store id))
  in
  let cardset =
    Array.init cards (fun _ -> Card.create ~profile:Cost.fleet ~subject ids.user)
  in
  let transports =
    Array.map
      (fun card ->
        let host = Remote_card.Host.create ~card ~resolve () in
        fun cmd ->
          with_probe probe
            (fun s -> probe.transport_s <- probe.transport_s +. s)
            (fun () -> Remote_card.Host.process host cmd))
      cardset
  in
  let fleet = Fleet.create ~queue_limit ~store ~subject transports in
  let w =
    {
      ids;
      drbg;
      store;
      doc_keys;
      cardset;
      fleet;
      policy = Array.init n (fun i -> i mod 2);
      version = Array.make n 0;
      probe;
    }
  in
  for d = 0 to n - 1 do
    Store.put_rules store ~doc_id:inp.doc_ids.(d) ~subject (sign_rules w d)
  done;
  for d = 0 to n - 1 do
    let outs =
      Fleet.serve fleet
        (List.init (queue_limit + cards - 1) (fun i ->
             Proxy.Request.make
               ?xpath:xpaths.(i mod Array.length xpaths)
               inp.doc_ids.(d)))
    in
    List.iter
      (fun (o : Fleet.outcome) ->
        match o.Fleet.result with
        | Ok _ -> ()
        | Error e ->
            failwith
              (Format.asprintf "warm-up %s: %a" inp.doc_ids.(d) Proxy.pp_error e))
      outs
  done;
  w

let goldens inp =
  let tbl = Hashtbl.create 128 in
  Array.iteri
    (fun d doc ->
      for pol = 0 to Array.length policies - 1 do
        Array.iteri
          (fun q query ->
            Hashtbl.replace tbl (d, pol, q) (World.golden ?query ~rules:(rules pol) doc))
          xpaths
      done)
    inp.docs;
  tbl

(* The owner's side of a policy update: the other policy, version
   bumped, re-signed. *)
let sign_update w d =
  w.policy.(d) <- 1 - w.policy.(d);
  w.version.(d) <- w.version.(d) + 1;
  sign_rules w d

type flight = {
  st : Fleet.stream;
  doc : int;
  query : int;
  pol : int;  (** the policy in force at admission *)
  blob : string;
}

type completion = {
  flight : flight;
  outcome : Fleet.outcome;
  index : int;  (** completion order within the phase *)
}

type phase = {
  completed : completion list;  (** newest first *)
  loop_s : float;  (** host time inside the fleet's calls and store writes *)
  update_s : float list;  (** each update's latency, signing included *)
  put_s : float;  (** the updates' store writes, part of [loop_s] *)
  words : float;  (** minor words until the [det_ops]-th completion *)
  heap_peak : int;  (** major heap words, peak over the same window *)
}

(* The closed loop. An update waits until its document has no request
   in flight (a writer barrier), so every request is served under the
   policy it was admitted with, and the card's anti-rollback watermark
   never sees an older blob after a newer one. The owner signs on their
   own device: the loop's clock stops while the blob is signed, and only
   the DSP's store write is loop time. *)
let drive inp w ~seconds ~min_ops =
  let ndocs = Array.length inp.docs in
  let per_doc = Array.make ndocs 0 in
  let inflight = ref [] and n_inflight = ref 0 in
  let completed = ref [] and n_done = ref 0 in
  let loop_s = ref 0.0 and updates = ref [] and words = ref 0.0 in
  let put_s = ref 0.0 in
  let heap = ref (World.heap_words ()) in
  let i = ref 0 in
  let t_start = Stat.now () in
  let call f =
    let w0 = Gc.minor_words () in
    let s, r = Stat.timed f in
    loop_s := !loop_s +. s;
    if !n_done < min_ops then begin
      words := !words +. (Gc.minor_words () -. w0);
      heap := max !heap (World.heap_words ())
    end;
    r
  in
  let collect () =
    inflight :=
      List.filter
        (fun f ->
          match Fleet.result f.st with
          | None -> true
          | Some outcome ->
              per_doc.(f.doc) <- per_doc.(f.doc) - 1;
              decr n_inflight;
              completed :=
                { flight = f; outcome; index = !n_done } :: !completed;
              incr n_done;
              false)
        !inflight
  in
  let turn () =
    call (fun () -> Fleet.turn w.fleet);
    collect ()
  in
  let admitting () =
    !n_done < min_ops || Stat.now () -. t_start < seconds
  in
  while admitting () || !n_inflight > 0 do
    while admitting () && !n_inflight < outstanding do
      (match inp.schedule.(!i mod Array.length inp.schedule) with
      | Update d ->
          while per_doc.(d) > 0 do
            turn ()
          done;
          let t0 = Stat.now () in
          let blob = sign_update w d in
          let t1 = Stat.now () in
          call (fun () ->
              Store.put_rules w.store ~doc_id:inp.doc_ids.(d) ~subject blob);
          let t2 = Stat.now () in
          put_s := !put_s +. (t2 -. t1);
          updates := (t2 -. t0) :: !updates
      | Read { doc; query } ->
          let doc_id = inp.doc_ids.(doc) in
          let blob = Option.get (Store.get_rules w.store ~doc_id ~subject) in
          let req = Proxy.Request.make ?xpath:xpaths.(query) doc_id in
          let st = call (fun () -> Fleet.start w.fleet req) in
          per_doc.(doc) <- per_doc.(doc) + 1;
          incr n_inflight;
          inflight :=
            { st; doc; query; pol = w.policy.(doc); blob } :: !inflight);
      incr i
    done;
    if !n_inflight > 0 then turn ()
  done;
  {
    completed = !completed;
    loop_s = !loop_s;
    update_s = !updates;
    put_s = !put_s;
    words = !words;
    heap_peak = !heap;
  }

let ok goldens c =
  match c.outcome.Fleet.result with
  | Ok s ->
      s.Proxy.Pool.xml
      = Hashtbl.find goldens (c.flight.doc, c.flight.pol, c.flight.query)
  | Error _ -> false

let failures goldens p =
  List.length (List.filter (fun c -> not (ok goldens c)) p.completed)

(* Requests are the ops; the updates' store writes stay in the loop's
   wall, their signing does not. *)
let e2e ?(reps = 3) inp ~seconds =
  let goldens = goldens inp in
  let det = inp.scale.det_ops in
  let phases = ref [] and first_phase = ref None in
  let measure ~first w ~seconds =
    let q = drive inp w ~seconds ~min_ops:(if first then det else 0) in
    if first then first_phase := Some q;
    phases := q :: !phases
  in
  let setup_s = World.segments ~reps ~seconds (fun () -> setup inp) measure in
  let p = Option.get !first_phase in
  let ops = List.fold_left (fun n q -> n + List.length q.completed) 0 !phases in
  let sims =
    List.filter_map
      (fun c ->
        if c.index < det then Some (1000.0 *. c.outcome.Fleet.latency_s)
        else None)
      p.completed
  in
  Report.make ~workload:name ~seed:inp.seed ~trace:false ~checks:[]
    ~failed:(List.fold_left (fun n q -> n + failures goldens q) 0 !phases)
    ~attempted:ops
    (World.e2e ~setup_s ~ops
       ~busy_s:(List.fold_left (fun s q -> s +. q.loop_s) 0.0 !phases)
       ~sims_ms:sims
       ~words:p.words ~det_ops:det ~heap_peak_words:p.heap_peak)

let card_layers =
  [ "crypto.rsa_verify_ms"; "compile.ms"; "crypto.aes_ms"; "engine.ms";
    "crypto.merkle_ms"; "codec.ms" ]

let terminal_layers = [ "codec.ms"; "reassemble.ms"; "serialize.ms" ]
let sum led keys = List.fold_left (fun acc k -> acc +. L.get led k) 0.0 keys

(* Replay one completed request: the card's side (inside the transport:
   cold prepare, AES, engine, Merkle proofs, output encoding) and the
   terminal's (decode, reassembly, serialization). The cards count cache
   misses, not requests, so the first [misses] requests replayed also
   replay a cold prepare. Returns the card's and the terminal's ms. *)
let replay inp w led ~miss c =
  let f = c.flight in
  let doc_id = inp.doc_ids.(f.doc) and key = w.doc_keys.(f.doc) in
  let src =
    Publish.to_source (Option.get (Store.get_document w.store doc_id))
      ~delivery:`Pull
  in
  let query = Option.map Sdds_xpath.Parser.parse xpaths.(f.query) in
  let card0 = sum led card_layers in
  if miss then Replay.prepare_miss led src ~key ~subject f.blob;
  let rules = Rule.for_subject subject (rules f.pol) in
  let compiled = Replay.compile led ~count:miss ?query rules in
  let encoded = Replay.decrypt_all led src ~key in
  let res = Replay.engine led ?query ~compiled rules encoded in
  Replay.merkle led src
    (Replay.consumed_of src res.Sdds_index.Indexed_engine.skipped_ranges);
  let wire = Replay.encode led res.Sdds_index.Indexed_engine.outputs in
  let card_ms = sum led card_layers -. card0 in
  let term0 = sum led terminal_layers in
  let outs = Replay.decode led wire in
  let view = Replay.reassemble led ~has_query:(query <> None) outs in
  ignore (Replay.serialize led view);
  (card_ms, sum led terminal_layers -. term0)

(* The simulated split of one request's latency on its card's clock:
   its own frames' wire time, and the wire time of the frames it waited
   behind. Exact in bytes, since the clock advances frame by frame. *)
let sim_split led c =
  match c.outcome.Fleet.result with
  | Error _ -> true
  | Ok s ->
      let rate = Cost.fleet.Cost.link_bytes_per_s in
      let total = c.outcome.Fleet.latency_s in
      let during = Float.round (total *. rate) in
      let own = float_of_int s.Proxy.Pool.wire_bytes in
      let frames = s.Proxy.Pool.command_frames + s.Proxy.Pool.response_frames in
      L.add led "card.transfer_ms" (1000.0 *. own /. rate);
      L.add led "card.queue_ms" (1000.0 *. (during -. own) /. rate);
      L.add led "card.bytes_transferred" own;
      L.add led "card.apdu_frames" (float_of_int frames);
      L.add led "apdu.command_frames" (float_of_int s.Proxy.Pool.command_frames);
      L.add led "apdu.response_frames" (float_of_int s.Proxy.Pool.response_frames);
      L.add led "apdu.wire_bytes" own;
      L.add led "apdu.retries" (float_of_int s.Proxy.Pool.retries);
      if s.Proxy.Pool.warm_setup then L.add led "pool.warm" 1.0;
      L.add led "op.sim_ms" (1000.0 *. total);
      during >= own
      && Float.abs ((during /. rate) -. total) <= 1e-9 *. Float.max 1.0 total

(* The traced run: an untraced phase, then a phase with the transport
   and resolve closures timed, whose requests are replayed afterwards.
   The op wall is the loop's host time per request (updates excluded),
   split into DSP resolve, the card's layers, the transport's own time,
   the terminal's layers and the scheduler's own time. *)
let traced inp ~seconds =
  let _, w = World.build (fun () -> setup inp) in
  let goldens = goldens inp in
  let det = inp.scale.det_ops in
  let read_ms p = 1000.0 *. (p.loop_s -. p.put_s) in
  let served p = float_of_int (List.length p.completed) in
  let plain = drive inp w ~seconds:(seconds /. 2.0) ~min_ops:det in
  let (h0, m0, e0), st0 = (World.cache_totals w.cardset, Fleet.stats w.fleet) in
  w.probe.on <- true;
  let p = drive inp w ~seconds:(seconds /. 2.0) ~min_ops:det in
  w.probe.on <- false;
  let (h1, m1, e1), st1 = (World.cache_totals w.cardset, Fleet.stats w.fleet) in
  let led = L.create () and sim_ok = ref true in
  let card_ms = ref 0.0 and term_ms = ref 0.0 in
  List.iteri
    (fun k c ->
      if not (sim_split led c) then sim_ok := false;
      let cm, tm = replay inp w led ~miss:(k < m1 - m0) c in
      card_ms := !card_ms +. cm;
      term_ms := !term_ms +. tm)
    (List.rev p.completed);
  let transport_ms = 1000.0 *. w.probe.transport_s
  and resolve_ms = 1000.0 *. w.probe.resolve_s in
  L.add led "dsp.fetch_ms" resolve_ms;
  L.add led "apdu.transport_ms" (transport_ms -. resolve_ms -. !card_ms);
  L.add led "fleet.sched_ms" (read_ms p -. transport_ms -. !term_ms);
  L.add led "card.cache_evictions" (float_of_int (e1 - e0));
  L.add led "fleet.fallbacks"
    (float_of_int (st1.Fleet.fallbacks - st0.Fleet.fallbacks));
  let ops = served p in
  let tbl, host_ok = Replay.table led ~ops ~wall_ms:(read_ms p) in
  let pct num den = 100.0 *. Stat.ratio (float_of_int num) (float_of_int den) in
  Hashtbl.replace tbl "card.cache_hit_pct" (pct (h1 - h0) (h1 - h0 + m1 - m0));
  Hashtbl.replace tbl "fleet.affinity_hit_pct"
    (pct
       (st1.Fleet.affinity_hits - st0.Fleet.affinity_hits)
       (st1.Fleet.requests - st0.Fleet.requests));
  Hashtbl.replace tbl "fleet.queue_peak" (float_of_int st1.Fleet.queue_peak);
  Hashtbl.replace tbl "pool.warm_setup_pct"
    (100.0 *. Stat.ratio (L.get led "pool.warm") ops);
  Hashtbl.replace tbl "dsp.update_sign_ms"
    (Stat.median (List.map (fun s -> 1000.0 *. s) p.update_s));
  Hashtbl.replace tbl "trace.overhead_ms"
    (Stat.ratio (read_ms p) ops -. Stat.ratio (read_ms plain) (served plain));
  Report.make ~workload:name ~seed:inp.seed ~trace:true
    ~checks:
      [ ("card.*_ms sum to each op's simulated total", !sim_ok);
        ("host layers + other.ms = op wall", host_ok) ]
    ~failed:(failures goldens plain + failures goldens p)
    ~attempted:(List.length plain.completed + List.length p.completed)
    (Report.layer_metrics tbl)
