(* dissem-feed: the parental-control push application. A closed loop,
   one publish at a time, through [Client.deliver] on a direct
   [Cost.fleet] gateway session: one [Generator.feed_tagged] stream
   (~48 KB of XML) pushed to 64 subscribers holding 16 distinct channel
   policies. Every third policy carries a content predicate (rating),
   which forces a solo cluster; the rest ride the merged mux walk. An op
   is one delivered subscriber view. *)

module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Rule = Sdds_core.Rule
module Engine = Sdds_core.Engine
module Rsa = Sdds_crypto.Rsa
module Cost = Sdds_soe.Cost
module Card = Sdds_soe.Card
module Wire = Sdds_soe.Wire
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Proxy = Sdds_proxy.Proxy
module Client = Sdds_proxy.Client
module Cluster = Sdds_dissem.Cluster
module Fanout = Sdds_dissem.Fanout
module L = World.Ledger

let name = "dissem-feed"
let doc_id = "feed"
let gateway = "#gateway"

type scale = {
  items : int;  (** feed items, ~200 B of XML each *)
  subscribers : int;
  det_ops : int;  (** the deterministic window, in publishes *)
}

let default_scale = { items = 200; subscribers = 64; det_ops = 6 }
let distinct = 16

(* Policy [k]: the channels of bitmask [k + 1]; every third also hides
   R-rated items, a value predicate. *)
let policy k ~subject =
  let chans = Generator.channel_tags in
  let allows =
    List.filteri (fun i _ -> (k + 1) land (1 lsl i) <> 0) (Array.to_list chans)
    |> List.map (fun c -> ('+', "//" ^ c))
  in
  World.rules_of ~subject
    (if k mod 3 = 2 then allows @ [ ('-', {|//*[rating="R"]|}) ] else allows)

type inputs = {
  seed : int;
  scale : scale;
  doc : Dom.t;
  subjects : string list;
}

let inputs ?(scale = default_scale) ~seed () =
  {
    seed;
    scale;
    doc = Generator.feed_tagged (World.rng ~seed 1) ~events:scale.items;
    subjects = List.init scale.subscribers (Printf.sprintf "sub%02d");
  }

let policy_of i = i mod distinct

type world = {
  ids : World.ids;
  drbg : Sdds_crypto.Drbg.t;
  store : Store.t;
  doc_key : string;
  card : Card.t;
  client : Client.t;
}

(* Keys, publishing, one signed rule blob per subscriber, the gateway's
   grant and card, and a warm-up publish that installs the grant. *)
let setup inp =
  let ids = World.identities name in
  let drbg = World.drbg ~workload:name ~seed:inp.seed in
  let store = Store.create () in
  let p, doc_key = Publish.publish drbg ~publisher:ids.publisher ~doc_id inp.doc in
  Store.put_document store p;
  List.iteri
    (fun i subject ->
      Store.put_rules store ~doc_id ~subject
        (Publish.encrypt_rules_for drbg ~publisher:ids.publisher ~doc_key ~doc_id
           ~subject (policy (policy_of i) ~subject)))
    inp.subjects;
  Store.put_grant store ~doc_id ~subject:gateway
    (Publish.grant drbg ~doc_key ~doc_id ~recipient:ids.user.Rsa.public);
  let card = Card.create ~profile:Cost.fleet ~subject:gateway ids.user in
  let client = Client.direct ~store ~card in
  (match Client.deliver client ~doc_id inp.subjects with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "warm-up: %a" Proxy.pp_error e));
  { ids; drbg; store; doc_key; card; client }

let goldens inp =
  Array.init distinct (fun k ->
      World.golden ~rules:(policy k ~subject:"s") inp.doc)

(* Wrong or failed views of one publish. *)
let failures inp goldens = function
  | Error _ -> List.length inp.subjects
  | Ok (per, _) ->
      List.length
        (List.filter
           (fun (i, (_, r)) ->
             match r with
             | Ok s -> s.Proxy.Pool.xml <> goldens.(policy_of i)
             | Error _ -> true)
           (List.mapi (fun i x -> (i, x)) per))

(* The gateway's simulated cost of a publish: every publish carries the
   same document to the same population, so one disseminate (outside
   any timing) gives it. *)
let sim_breakdown inp w =
  let src =
    Publish.to_source (Option.get (Store.get_document w.store doc_id))
      ~delivery:`Push
  in
  let subs =
    List.map
      (fun s -> (s, Option.get (Store.get_rules w.store ~doc_id ~subject:s)))
      inp.subjects
  in
  match Card.disseminate w.card src ~subscribers:subs () with
  | Ok (_, rep) -> rep.Card.dissem_breakdown
  | Error e -> failwith (Format.asprintf "disseminate: %a" Card.pp_error e)

let publish inp w =
  let w0 = Gc.minor_words () in
  let t0 = Stat.now () in
  let r = Client.deliver w.client ~doc_id inp.subjects in
  let t1 = Stat.now () in
  (t1 -. t0, Gc.minor_words () -. w0, r)

(* The publisher-side latency of policy update [k], for the traced
   run's [dsp.update_sign_ms]: a parent changing a child's policy, that
   subscriber's blob re-signed with its version bumped and stored. The
   blob goes to [shadow], a store nobody serves from, so the delivered
   views are untouched. *)
let update inp w shadow k =
  let i = k mod List.length inp.subjects in
  let subject = List.nth inp.subjects i in
  let s, () =
    Stat.timed (fun () ->
        Store.put_rules shadow ~doc_id ~subject
          (Publish.encrypt_rules_for w.drbg ~publisher:w.ids.publisher
             ~doc_key:w.doc_key ~doc_id ~subject ~version:(k + 1)
             (policy (policy_of i) ~subject)))
  in
  1000.0 *. s

let e2e ?(reps = 3) inp ~seconds =
  let goldens = goldens inp in
  let n = List.length inp.subjects and det = inp.scale.det_ops in
  let busy = ref 0.0 and words = ref 0.0 and sim = ref 0.0 in
  let failed = ref 0 and publishes = ref 0 in
  let heap = ref (World.heap_words ()) in
  let measure ~first w ~seconds =
    if first then sim := (sim_breakdown inp w).Cost.total_ms;
    ignore @@ World.loop ~seconds ~min_ops:(if first then det else 0) (fun i ->
        let s, wd, r = publish inp w in
        incr publishes;
        busy := !busy +. s;
        if first && i < det then begin
          words := !words +. wd;
          heap := max !heap (World.heap_words ())
        end;
        failed := !failed + failures inp goldens r)
  in
  let setup_s = World.segments ~reps ~seconds (fun () -> setup inp) measure in
  let ops = n * !publishes in
  Report.make ~workload:name ~seed:inp.seed ~trace:false ~checks:[]
    ~failed:!failed ~attempted:ops
    (World.e2e ~setup_s ~ops ~busy_s:!busy
       ~sims_ms:(List.init det (fun _ -> !sim))
       ~words:!words ~det_ops:(n * det)
       ~heap_peak_words:!heap)

(* Replay one publish through the layers: DSP fetches, root signature
   and per-subscriber blob checks, AES and Merkle over every chunk, the
   decode pass, cluster planning (compilation inside it), the fan-out
   (solo engines inside it), and each view's codec, reassembly and
   serialization. *)
let replay inp w led =
  let src, blobs =
    Replay.layer led "dsp.fetch_ms" (fun () ->
        let p = Option.get (Store.get_document w.store doc_id) in
        ignore (Card.has_key w.card ~doc_id);
        ( Publish.to_source p ~delivery:`Push,
          List.map
            (fun s -> (s, Option.get (Store.get_rules w.store ~doc_id ~subject:s)))
            inp.subjects ))
  in
  let key = w.doc_key in
  let population =
    Replay.layer led "crypto.rsa_verify_ms" (fun () ->
        let msg =
          Wire.signed_root_message ~doc_id ~merkle_root:src.Card.merkle_root
            ~plain_length:src.Card.plain_length
        in
        if not (Rsa.verify src.Card.publisher msg ~signature:src.Card.root_signature)
        then failwith "replay: root signature";
        List.map
          (fun (s, blob) ->
            match
              Wire.decrypt_rules ~key ~doc_id ~subject:s
                ~publisher:src.Card.publisher blob
            with
            | Ok (_, rules) -> (s, Rule.for_subject s rules)
            | Error e -> failwith ("replay: rule blob: " ^ e))
          blobs)
  in
  L.add led "crypto.rsa_verifies" (float_of_int (1 + List.length blobs));
  let encoded = Replay.decrypt_all led src ~key in
  Replay.merkle led src (Array.make (Array.length src.Card.chunks) true);
  let events =
    Replay.layer led "engine.ms" (fun () -> Sdds_index.Reader.to_events encoded)
  in
  let plan_s, plan = Stat.timed (fun () -> Cluster.plan population) in
  let plan = match plan with Ok p -> p | Error _ -> failwith "replay: plan" in
  let compile_s =
    Array.fold_left
      (fun acc (c : Cluster.cluster) ->
        let s, compiled = Stat.timed (fun () -> Sdds_core.Compile.compile c.rules) in
        L.add led "compile.states" (float_of_int (Sdds_core.Compile.state_count compiled));
        acc +. s)
      0.0 plan.Cluster.clusters
  in
  L.add_s led "compile.ms" compile_s;
  L.add_s led "dissem.plan_ms" (plan_s -. compile_s);
  let fan_s, (delivered, stats) = Stat.timed (fun () -> Fanout.run_plan plan events) in
  let solo_s =
    List.fold_left
      (fun acc i ->
        let c = plan.Cluster.clusters.(i) in
        let w0 = Gc.minor_words () in
        let s, st =
          Stat.timed (fun () ->
              let e = Engine.create c.Cluster.rules in
              List.iter (fun ev -> ignore (Engine.feed e ev)) events;
              Engine.finish e;
              Engine.stats e)
        in
        L.add led "engine.words" (Gc.minor_words () -. w0);
        L.add led "engine.events" (float_of_int st.Engine.events);
        L.add led "engine.token_visits" (float_of_int st.Engine.token_visits);
        L.peak led "engine.peak_state_words" (float_of_int st.Engine.peak_state_words);
        acc +. s)
      0.0 plan.Cluster.solo
  in
  L.add_s led "engine.ms" solo_s;
  L.add_s led "dissem.fanout_ms" (fan_s -. solo_s);
  L.add led "dissem.evaluations" (float_of_int stats.Fanout.evaluations);
  L.add led "dissem.mux_token_visits" (float_of_int stats.Fanout.mux_token_visits);
  L.add led "dissem.subscribers" (float_of_int stats.Fanout.subscribers);
  List.iter
    (fun (_, outs) ->
      ignore (Replay.encode led outs);
      ignore (Replay.serialize led (Replay.reassemble led ~has_query:false outs)))
    delivered

let traced inp ~seconds =
  let _, w = World.build (fun () -> setup inp) in
  let goldens = goldens inp in
  let b = sim_breakdown inp w in
  let n = float_of_int (List.length inp.subjects) in
  let failed = ref 0 and attempted = ref 0 in
  let phase ~on_publish =
    let wall = ref 0.0 and views = ref 0.0 in
    ignore @@ World.loop ~seconds:(seconds /. 2.0) ~min_ops:inp.scale.det_ops (fun _ ->
        let s, _, r = publish inp w in
        wall := !wall +. (1000.0 *. s);
        views := !views +. n;
        attempted := !attempted + List.length inp.subjects;
        failed := !failed + failures inp goldens r;
        if Result.is_ok r then on_publish ());
    (!views, !wall)
  in
  let plain_views, plain_wall = phase ~on_publish:ignore in
  let led = L.create () and publishes = ref 0 in
  let views, wall =
    phase ~on_publish:(fun () ->
        incr publishes;
        replay inp w led)
  in
  (* The gateway's figures, once per publish; the table's per-view means
     give each view its share. *)
  let sim_ok = ref true in
  for _ = 1 to !publishes do
    if not (Replay.card_breakdown led b) then sim_ok := false
  done;
  let tbl, host_ok = Replay.table led ~ops:views ~wall_ms:wall in
  Hashtbl.replace tbl "dissem.fanout_ratio"
    (Stat.ratio (L.get led "dissem.subscribers") (L.get led "dissem.evaluations"));
  let shadow = Store.create () in
  Hashtbl.replace tbl "dsp.update_sign_ms"
    (Stat.median (List.init 9 (update inp w shadow)));
  Hashtbl.replace tbl "trace.overhead_ms"
    (Stat.ratio wall views -. Stat.ratio plain_wall plain_views);
  Report.make ~workload:name ~seed:inp.seed ~trace:true
    ~checks:
      [ ("card.*_ms sum to each op's simulated total", !sim_ok);
        ("host layers + other.ms = op wall", host_ok) ]
    ~failed:!failed ~attempted:!attempted (Report.layer_metrics tbl)
