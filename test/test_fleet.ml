(* Fleet-scale sharded serving, and the chain-protocol replay fixes it
   leans on: the exactly-once chain completion (duplicate final frames,
   including at the 256-frame sequence wraparound), the consistent-hash
   ring's resize stability, admission control, re-routing, and the fleet
   differential oracle (every fleet-served request equals the
   single-card golden view or a typed error, under per-card faults). *)

module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Remote = Sdds_soe.Remote_card
module Chain = Sdds_soe.Protocol.Chain
module Proxy = Sdds_proxy.Proxy
module Fleet = Sdds_proxy.Fleet
module World = Sdds_proxy.World
module Fault = Sdds_fault.Fault
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng
module Obs = Sdds_obs.Obs
module Json = Sdds_analysis.Json

(* ------------------------------------------------------------------ *)
(* Chain protocol: exactly-once completion under retransmission        *)
(* ------------------------------------------------------------------ *)

let chain_frame ?(p1 = 0) ?(p2 = 0) data =
  { Apdu.cla = Apdu.base_cla; ins = Remote.Ins.rules; p1; p2; data }

(* The replay hole the identity marker closes: a single-frame chain
   finishes at p2 = 0, which a p2-keyed completion marker cannot tell
   from a fresh chain opener — the duplicated final frame silently
   re-executed. *)
let test_chain_single_frame_duplicate () =
  let ch, v = Chain.feed Chain.empty (chain_frame "abc") in
  (match v with
  | Chain.Completed p -> Alcotest.(check string) "payload" "abc" p
  | _ -> Alcotest.fail "single final frame must complete");
  match snd (Chain.feed ch (chain_frame "abc")) with
  | Chain.Duplicate -> ()
  | Chain.Completed _ ->
      Alcotest.fail "duplicated final frame re-executed the instruction"
  | _ -> Alcotest.fail "duplicated final frame must be re-acked"

(* The same hole one lap later: frame 257 carries p2 = 256 mod 256 = 0. *)
let test_chain_wraparound_duplicate () =
  let payload =
    String.init ((256 * 255) + 9) (fun i -> Char.chr ((i * 31) land 0xff))
  in
  let frames = Apdu.segment ~cla:Apdu.base_cla ~ins:Remote.Ins.rules payload in
  Alcotest.(check int) "spans the wraparound" 257 (List.length frames);
  let final = List.nth frames 256 in
  Alcotest.(check int) "final frame lands on p2 = 0" 0 final.Apdu.p2;
  let completed = ref None in
  let ch =
    List.fold_left
      (fun ch f ->
        let ch, v = Chain.feed ch f in
        (match v with
        | Chain.Completed p -> completed := Some p
        | Chain.Accepted -> ()
        | Chain.Duplicate | Chain.Rejected ->
            Alcotest.fail "clean chain must be accepted");
        ch)
      Chain.empty frames
  in
  Alcotest.(check bool) "completed with the exact payload" true
    (!completed = Some payload);
  let ch, v = Chain.feed ch final in
  (match v with
  | Chain.Duplicate -> ()
  | Chain.Completed _ ->
      Alcotest.fail "retransmitted wraparound final started a fresh chain"
  | _ -> Alcotest.fail "retransmitted final must be re-acked");
  (* A stale mid-chain continuation after completion is a protocol
     error, not a silent restart. *)
  match snd (Chain.feed ch (chain_frame ~p1:1 ~p2:5 "stale")) with
  | Chain.Rejected -> ()
  | _ -> Alcotest.fail "stale continuation must be rejected"

(* [forget] exists for uploads the backend refuses for good: the marker
   is dropped, so the "same" frame executes afresh. *)
let test_chain_forget_clears_marker () =
  let ch, v = Chain.feed Chain.empty (chain_frame "abc") in
  (match v with
  | Chain.Completed _ -> ()
  | _ -> Alcotest.fail "must complete");
  let ch = Chain.forget ch Remote.Ins.rules in
  match snd (Chain.feed ch (chain_frame "abc")) with
  | Chain.Completed p -> Alcotest.(check string) "payload" "abc" p
  | _ -> Alcotest.fail "forgotten marker must not re-ack"

(* The invariant, property-tested across the 256-frame boundary: feeding
   one [Apdu.segment] run with any frame retransmitted (adjacent
   duplicates, the link's failure mode) completes exactly once with the
   exact payload, and never rejects. *)
let qcheck_chain_exactly_once =
  QCheck2.Test.make
    ~name:"chain completes exactly once under duplicates (256 wraparound)"
    ~count:25
    QCheck2.Gen.(
      triple
        (oneofl [ 1; 2; 3; 254; 255; 256; 257; 258 ])
        (int_range 1 255) (int_bound 1_000_000))
    (fun (frames, last_len, seed) ->
      let len = ((frames - 1) * 255) + last_len in
      let payload =
        String.init len (fun i -> Char.chr ((i * 131 + seed) land 0xff))
      in
      let cmds =
        Apdu.segment ~cla:Apdu.base_cla ~ins:Remote.Ins.rules payload
      in
      assert (List.length cmds = frames);
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let ch = ref Chain.empty in
      let completions = ref [] in
      let ok = ref true in
      List.iter
        (fun f ->
          let deliveries = 1 + (if Rng.int rng 100 < 30 then 1 else 0) in
          for _ = 1 to deliveries do
            let next, v = Chain.feed !ch f in
            ch := next;
            match v with
            | Chain.Completed p -> completions := p :: !completions
            | Chain.Accepted | Chain.Duplicate -> ()
            | Chain.Rejected -> ok := false
          done)
        cmds;
      !ok && !completions = [ payload ])

(* ------------------------------------------------------------------ *)
(* End-to-end: duplicated final frames through the full APDU stack     *)
(* ------------------------------------------------------------------ *)

(* One request for "ward" on a fresh one-request pool, with [blob] and
   [grant] as the store's policy for "u": it runs alone on the basic
   channel, so frames 0 and 1 are SELECT and GRANT. *)
let run_eval ~store ~user ~grant ~blob schedule =
  Store.put_rules store ~doc_id:"ward" ~subject:"u" blob;
  Store.put_grant store ~doc_id:"ward" ~subject:"u" grant;
  let resolve id =
    Option.map
      (fun p -> Publish.to_source p ~delivery:`Pull)
      (Store.get_document store id)
  in
  let card = Card.create ~profile:Cost.modern ~subject:"u" user in
  let host = Remote.Host.create ~card ~resolve () in
  let link =
    Fault.Link.wrap ~schedule
      ~tear:(fun () -> Remote.Host.tear host)
      (Remote.Host.process host)
  in
  let pool =
    Proxy.Pool.create ~store ~transport:(Fault.Link.transport link)
      ~subject:"u" ()
  in
  match Proxy.Pool.serve pool [ Proxy.Request.make "ward" ] with
  | [ r ] -> (r, link)
  | _ -> assert false

let view_of name = function
  | Ok s, _ -> s.Proxy.Pool.xml
  | Error e, _ -> Alcotest.failf "%s failed: %a" name Proxy.pp_error e

(* Satellite: a rules blob that fits one frame — the upload IS its own
   final frame (p1 = 0, p2 = 0) — duplicated on the wire. The view must
   equal the clean run's. *)
let test_single_frame_upload_duplicate_end_to_end () =
  let drbg = Drbg.create ~seed:"fleet-single-frame" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let store = Store.create () in
  let doc = Generator.hospital (Rng.create 7L) ~patients:2 in
  let published, doc_key = Publish.publish drbg ~publisher ~doc_id:"ward" doc in
  Store.put_document store published;
  let blob =
    Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"ward"
      ~subject:"u"
      [ Rule.allow ~subject:"u" "//patient" ]
  in
  Alcotest.(check int) "the upload fits one frame" 1
    (Apdu.frame_count ~payload_bytes:(String.length blob));
  let grant =
    Publish.grant drbg ~doc_key ~doc_id:"ward" ~recipient:user.Rsa.public
  in
  let clean =
    view_of "clean" (run_eval ~store ~user ~grant ~blob Fault.Schedule.none)
  in
  (* Frames 0–1 are SELECT and GRANT; frame 2 is the whole rules chain. *)
  let r, link =
    run_eval ~store ~user ~grant ~blob
      (Fault.Schedule.of_events
         [ { Fault.frame = 2; kind = Fault.Duplicate_command } ])
  in
  Alcotest.(check int) "the duplicate fired" 1 (Fault.Link.injected link);
  Alcotest.(check bool) "duplicated single-frame upload: exact view" true
    (view_of "duplicated" (r, link) = clean)

(* Satellite: a 257-frame upload, whose final frame lands on
   p2 = 256 mod 256 = 0, with that final frame duplicated. Pre-fix the
   duplicate opened a fresh one-frame "chain" whose garbage payload
   replaced the rules and the evaluation failed; post-fix it is re-acked
   and the view is exact. *)
let test_wraparound_upload_duplicate_end_to_end () =
  let drbg = Drbg.create ~seed:"fleet-wraparound" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let store = Store.create () in
  let doc = Generator.hospital (Rng.create 9L) ~patients:1 in
  let published, doc_key = Publish.publish drbg ~publisher ~doc_id:"ward" doc in
  Store.put_document store published;
  (* Pad the rule set until the encrypted blob segments into exactly 257
     frames; ciphertext grows ~1 byte per plaintext byte, so aiming at
     the middle of the 255-byte-wide window converges in a few steps. *)
  let blob_for pad =
    Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"ward"
      ~subject:"u"
      [ Rule.allow ~subject:"u" "//patient";
        Rule.deny ~subject:"u" ("//" ^ String.make pad 'z') ]
  in
  let target = (257 * 255) - 127 in
  let rec tune pad guard =
    if guard = 0 then Alcotest.fail "could not tune a 257-frame blob"
    else
      let blob = blob_for pad in
      if Apdu.frame_count ~payload_bytes:(String.length blob) = 257 then blob
      else tune (max 1 (pad + target - String.length blob)) (guard - 1)
  in
  let blob = tune 65000 20 in
  let grant =
    Publish.grant drbg ~doc_key ~doc_id:"ward" ~recipient:user.Rsa.public
  in
  let clean =
    view_of "clean" (run_eval ~store ~user ~grant ~blob Fault.Schedule.none)
  in
  (* SELECT (0), GRANT (1), then 257 rules frames: the final one is
     frame 2 + 256 = 258. *)
  let r, link =
    run_eval ~store ~user ~grant ~blob
      (Fault.Schedule.of_events
         [ { Fault.frame = 258; kind = Fault.Duplicate_command } ])
  in
  Alcotest.(check int) "the duplicate fired" 1 (Fault.Link.injected link);
  Alcotest.(check bool) "duplicated wraparound final: exact view" true
    (view_of "duplicated" (r, link) = clean)

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring                                                 *)
(* ------------------------------------------------------------------ *)

let test_ring_basics () =
  let ring = Fleet.Ring.create [ 2; 0; 1; 1 ] in
  Alcotest.(check (list int)) "members sorted, deduped" [ 0; 1; 2 ]
    (Fleet.Ring.members ring);
  let owner = Fleet.Ring.lookup ring "some-key" in
  Alcotest.(check bool) "owner is a member" true (List.mem owner [ 0; 1; 2 ]);
  Alcotest.(check int) "lookup is deterministic" owner
    (Fleet.Ring.lookup ring "some-key");
  Alcotest.check_raises "empty ring refuses lookups"
    (Invalid_argument "Ring.lookup: empty ring") (fun () ->
      ignore (Fleet.Ring.lookup (Fleet.Ring.create []) "k"))

(* Resize stability — why the fleet's affinity survives adding or
   removing a card: growing the ring only moves keys TO the new member,
   and shrinking it back restores the exact original mapping. *)
let qcheck_ring_resize_stability =
  QCheck2.Test.make ~name:"ring resize moves only the changed member's keys"
    ~count:50
    QCheck2.Gen.(pair (int_range 1 8) (int_bound 1_000_000))
    (fun (n, seed) ->
      let ring = Fleet.Ring.create (List.init n Fun.id) in
      let keys = List.init 100 (fun i -> Printf.sprintf "key-%d-%d" seed i) in
      let before = List.map (Fleet.Ring.lookup ring) keys in
      let grown = Fleet.Ring.add ring n in
      List.for_all2
        (fun k b ->
          let a = Fleet.Ring.lookup grown k in
          a = b || a = n)
        keys before
      && Fleet.Ring.members (Fleet.Ring.remove grown n)
         = Fleet.Ring.members ring
      && List.for_all2
           (fun k b -> Fleet.Ring.lookup (Fleet.Ring.remove grown n) k = b)
           keys before)

(* ------------------------------------------------------------------ *)
(* Fleet world: several published documents, one subject               *)
(* ------------------------------------------------------------------ *)

let ndocs = 6
let fdoc i = Printf.sprintf "doc%d" i

let fleet_world =
  lazy
    (let drbg = Drbg.create ~seed:"fleet-world" in
     let publisher = Rsa.generate drbg ~bits:512 in
     let user = Rsa.generate drbg ~bits:512 in
     World.create drbg ~publisher ~user
       (World.wards ~doc_id:fdoc ~seed:(( + ) 101) ndocs))

let fresh_hosts w n =
  Array.init n (fun _ -> World.host ~profile:Cost.modern w)

(* ------------------------------------------------------------------ *)
(* Fleet behaviour                                                      *)
(* ------------------------------------------------------------------ *)

(* A zipf-flavoured pull of the document population: doc0 takes half the
   traffic, the rest spreads thin — the mix that makes affinity pay. *)
let pick_doc i =
  if i mod 2 = 0 then 0 else 1 + (i * 7 mod (ndocs - 1))

let test_fleet_serves_batch_exactly () =
  let w = Lazy.force fleet_world in
  let obs = Obs.create ~tracing:false () in
  let hosts = fresh_hosts w 2 in
  let fleet =
    Fleet.create ~obs ~store:(World.store w) ~subject:"u"
      (Array.map Remote.Host.process hosts)
  in
  let reqs = List.init 24 (fun i -> Proxy.Request.make (fdoc (pick_doc i))) in
  let outs = Fleet.serve fleet reqs in
  List.iter2
    (fun (r : Proxy.Request.t) (o : Fleet.outcome) ->
      match o.Fleet.result with
      | Ok s ->
          Alcotest.(check (option string))
            "fleet view = single-card view"
            (World.golden w (Proxy.Request.make r.Proxy.Request.doc_id))
            s.Proxy.Pool.xml;
          Alcotest.(check bool) "latency is simulated time" true
            (o.Fleet.latency_s > 0.0)
      | Error e -> Alcotest.failf "fleet request failed: %a" Proxy.pp_error e)
    reqs outs;
  let st = Fleet.stats fleet in
  Alcotest.(check int) "every request counted" 24 st.Fleet.requests;
  Alcotest.(check int) "no rejections" 0 st.Fleet.rejected;
  Alcotest.(check bool) "affinity routed" true (st.Fleet.affinity_hits > 0);
  Alcotest.(check int) "all completions accounted" 24
    (Array.fold_left ( + ) 0 st.Fleet.served_by);
  Alcotest.(check int) "requests counter" 24
    (Obs.Metrics.counter_value obs.Obs.metrics "fleet.requests");
  Alcotest.(check int) "affinity counter mirrors stats"
    st.Fleet.affinity_hits
    (Obs.Metrics.counter_value obs.Obs.metrics "fleet.affinity_hits");
  (* Affinity's point: a second identical batch finds the per-channel
     session memos of the cards the first batch warmed. *)
  let again = Fleet.serve fleet reqs in
  let warm =
    List.fold_left
      (fun n (o : Fleet.outcome) ->
        match o.Fleet.result with
        | Ok s when s.Proxy.Pool.warm_setup -> n + 1
        | _ -> n)
      0 again
  in
  Alcotest.(check bool) "repeat batch hits warm setups" true (warm > 0)

let test_fleet_admission_control () =
  let w = Lazy.force fleet_world in
  let hosts = fresh_hosts w 1 in
  let fleet =
    Fleet.create ~queue_limit:2 ~store:(World.store w) ~subject:"u"
      (Array.map Remote.Host.process hosts)
  in
  let outs =
    Fleet.serve fleet (List.init 8 (fun _ -> Proxy.Request.make (fdoc 0)))
  in
  let ok, rejected =
    List.partition
      (fun (o : Fleet.outcome) -> Result.is_ok o.Fleet.result)
      outs
  in
  Alcotest.(check int) "bounded queue admits its limit" 2 (List.length ok);
  Alcotest.(check int) "the rest are refused" 6 (List.length rejected);
  List.iter
    (fun (o : Fleet.outcome) ->
      match o.Fleet.result with
      | Error Proxy.Overloaded -> ()
      | Error e -> Alcotest.failf "wrong refusal: %a" Proxy.pp_error e
      | Ok _ -> assert false)
    rejected;
  let st = Fleet.stats fleet in
  Alcotest.(check int) "rejections counted" 6 st.Fleet.rejected;
  Alcotest.(check int) "queue peak at the limit" 2 st.Fleet.queue_peak

let test_fleet_reroutes_off_a_dead_card () =
  let w = Lazy.force fleet_world in
  let hosts = fresh_hosts w 2 in
  (* Card 0's link drops every command; card 1 is clean. Least-loaded
     routing sends the lone request to card 0 first. *)
  let dead =
    Fault.Link.wrap
      ~schedule:
        (Fault.Schedule.random ~seed:1L ~rate:1.0
           ~kinds:[| Fault.Drop_command |] ())
      ~tear:(fun () -> Remote.Host.tear hosts.(0))
      (Remote.Host.process hosts.(0))
  in
  let fleet =
    Fleet.create ~routing:Fleet.Least_loaded ~store:(World.store w) ~subject:"u"
      [| Fault.Link.transport dead; Remote.Host.process hosts.(1) |]
  in
  match Fleet.serve fleet [ Proxy.Request.make (fdoc 0) ] with
  | [ o ] ->
      (match o.Fleet.result with
      | Ok s ->
          Alcotest.(check (option string))
            "re-routed request serves the exact view"
            (World.golden w (Proxy.Request.make (fdoc 0)))
            s.Proxy.Pool.xml
      | Error e -> Alcotest.failf "re-route failed: %a" Proxy.pp_error e);
      Alcotest.(check int) "served by the healthy card" 1 o.Fleet.card;
      (* The dead link fails the whole probe budget, so the card is
         declared dead and the request migrates — cheaper than a
         re-route, which would leave the corpse routable. *)
      Alcotest.(check int) "migrated, not re-routed" 0 o.Fleet.reroutes;
      Alcotest.(check int) "one migration" 1 o.Fleet.migrations;
      let st = Fleet.stats fleet in
      Alcotest.(check int) "death declared" 1 st.Fleet.deaths;
      Alcotest.(check bool) "corpse left the routing set" true
        (st.Fleet.states.(0) = Fleet.Dead)
  | _ -> Alcotest.fail "one request, one outcome"

(* A malformed query raises at admission and leaves no trace in the
   fleet: no stream, no request counted, and a stream admitted before it
   is still served. Raised later, from the pool inside [turn], it would
   lose its stream and skip the cards after the raising one. *)
let test_fleet_malformed_query_raises_at_start () =
  let w = Lazy.force fleet_world in
  let fleet =
    Fleet.create ~store:(World.store w) ~subject:"u"
      (Array.map Remote.Host.process (fresh_hosts w 2))
  in
  let before = Fleet.start fleet (Proxy.Request.make (fdoc 0)) in
  let requests = (Fleet.stats fleet).Fleet.requests in
  (match Fleet.start fleet (Proxy.Request.make ~xpath:"//[" (fdoc 1)) with
  | _ -> Alcotest.fail "a malformed query must raise at Fleet.start"
  | exception Sdds_xpath.Parser.Error _ -> ());
  Alcotest.(check int) "the malformed request is not counted" requests
    (Fleet.stats fleet).Fleet.requests;
  let turns = ref 0 in
  while Fleet.result before = None && !turns < 200 do
    Fleet.turn fleet;
    incr turns
  done;
  match Fleet.result before with
  | Some { Fleet.result = Ok s; _ } ->
      Alcotest.(check (option string)) "the earlier stream is served"
        (World.golden w (Proxy.Request.make (fdoc 0)))
        s.Proxy.Pool.xml
  | Some { Fleet.result = Error e; _ } ->
      Alcotest.failf "the earlier stream failed: %a" Proxy.pp_error e
  | None -> Alcotest.fail "the earlier stream was never served"

(* The fleet differential oracle: under arbitrary seeded per-card fault
   schedules, every fleet-served request is the exact single-card golden
   view or one typed error — sharding plus re-routing never stitches,
   truncates or cross-serves a view. *)
let qcheck_fleet_differential =
  QCheck2.Test.make ~name:"fleet = single-card golden view or typed error"
    ~count:15
    QCheck2.Gen.(
      pair (int_bound 1_000_000) (map (fun r -> 0.25 *. r) (float_range 0.0 1.0)))
    (fun (seed, rate) ->
      let w = Lazy.force fleet_world in
      let hosts = fresh_hosts w 3 in
      let base = Fault.Schedule.random ~seed:(Int64.of_int seed) ~rate () in
      let transports =
        Array.mapi
          (fun i host ->
            Fault.Link.transport
              (Fault.Link.wrap
                 ~schedule:(Fault.Schedule.for_card base i)
                 ~tear:(fun () -> Remote.Host.tear host)
                 (Remote.Host.process host)))
          hosts
      in
      let fleet = Fleet.create ~store:(World.store w) ~subject:"u" transports in
      let rng = Rng.create (Int64.of_int (seed + 7)) in
      let reqs =
        List.init 18 (fun _ ->
            let doc = fdoc (Rng.int rng ndocs) in
            let xpath =
              match Rng.int rng 3 with
              | 0 -> Some "//patient/name"
              | _ -> None
            in
            Proxy.Request.make ?xpath doc)
      in
      List.for_all2
        (fun (r : Proxy.Request.t) (o : Fleet.outcome) ->
          match o.Fleet.result with
          | Ok s ->
              s.Proxy.Pool.xml
              = World.golden w r
          | Error
              ( Proxy.Link_failure _ | Proxy.Card_error _ | Proxy.Protocol _
              | Proxy.Unknown_document _ | Proxy.No_grant | Proxy.No_rules
              | Proxy.Overloaded ) ->
              true)
        reqs (Fleet.serve fleet reqs))

(* ------------------------------------------------------------------ *)
(* Fleet survivability                                                  *)
(* ------------------------------------------------------------------ *)

module Chaos = Sdds_proxy.Chaos

(* The stale-channel-reuse regression, minimized from the long-flaky
   fleet differential: one card, 8 concurrent streams, a single tear
   early in the exchange. The tear resets the card's channel table while
   the pool's free list is empty; a Wait_channel stream's MANAGE CHANNEL
   then re-opened a number a pre-tear stream still held, and the two
   interleaved valid frames on one channel — one received the other's
   authorized view. Fixed in [Pool.acquire]: a MANAGE CHANNEL answer
   below the pool's open count is proof of an unobserved reset and now
   counts as tear evidence. The scan covers the early frames so the tear
   lands in every acquire/setup interleaving the 8 streams produce. *)
let test_tear_stale_channel_regression () =
  let w = Lazy.force fleet_world in
  for frame = 0 to 12 do
    let hosts = fresh_hosts w 1 in
    let link =
      Fault.Link.wrap
        ~schedule:
          (Fault.Schedule.of_events [ { Fault.frame; kind = Fault.Tear } ])
        ~tear:(fun () -> Remote.Host.tear hosts.(0))
        (Remote.Host.process hosts.(0))
    in
    let fleet =
      Fleet.create ~queue_limit:64 ~store:(World.store w) ~subject:"u"
        [| Fault.Link.transport link |]
    in
    let reqs =
      List.init 8 (fun i ->
          let doc = fdoc (i mod ndocs) in
          let xpath = if i mod 3 = 0 then Some "//patient/name" else None in
          Proxy.Request.make ?xpath doc)
    in
    List.iter2
      (fun (r : Proxy.Request.t) (o : Fleet.outcome) ->
        match o.Fleet.result with
        | Ok s ->
            if
              s.Proxy.Pool.xml
              <> World.golden w r
            then
              Alcotest.failf
                "stale-channel cross-served view (tear at frame %d, doc %s)"
                frame r.Proxy.Request.doc_id
        | Error e -> Alcotest.failf "tear at frame %d: %a" frame Proxy.pp_error e)
      reqs (Fleet.serve fleet reqs)
  done

(* Draining a card with work in flight: every stream migrates and
   completes exactly once with the exact view; the drained card accepts
   nothing after the drain. *)
let test_drain_with_inflight_migrates_exactly_once () =
  let w = Lazy.force fleet_world in
  let obs = Obs.create ~tracing:false () in
  let hosts = fresh_hosts w 2 in
  let evals = Array.make 2 0 in
  let transports =
    Array.mapi
      (fun i host cmd ->
        if cmd.Apdu.ins = Remote.Ins.evaluate then evals.(i) <- evals.(i) + 1;
        Remote.Host.process host cmd)
      hosts
  in
  let fleet =
    Fleet.create ~obs ~store:(World.store w) ~subject:"u" transports
  in
  let reqs = List.init 10 (fun i -> Proxy.Request.make (fdoc (i mod ndocs))) in
  let streams = List.map (Fleet.start fleet) reqs in
  Fleet.turn fleet;
  let load0 =
    fst (Obs.Metrics.gauge_value obs.Obs.metrics "fleet.card0.queue_depth")
  in
  Alcotest.(check bool) "card 0 holds work at drain time" true (load0 > 0);
  Fleet.remove_card fleet 0;
  let evals0_at_drain = evals.(0) in
  Alcotest.(check bool) "drain migrated the held work" true
    ((Fleet.stats fleet).Fleet.migrations >= 1);
  while List.exists (fun st -> Fleet.result st = None) streams do
    Fleet.turn fleet
  done;
  let ok = ref 0 in
  List.iter2
    (fun (r : Proxy.Request.t) st ->
      match (Option.get (Fleet.result st)).Fleet.result with
      | Ok s ->
          incr ok;
          Alcotest.(check (option string))
            "migrated request serves the exact view"
            (World.golden w (Proxy.Request.make r.Proxy.Request.doc_id))
            s.Proxy.Pool.xml
      | Error e -> Alcotest.failf "drained request failed: %a" Proxy.pp_error e)
    reqs streams;
  let st = Fleet.stats fleet in
  Alcotest.(check int) "every request completed" 10 !ok;
  Alcotest.(check int) "one drain" 1 st.Fleet.drains;
  Alcotest.(check int) "no deaths" 0 st.Fleet.deaths;
  Alcotest.(check bool) "drained card evaluated nothing after the drain" true
    (evals.(0) = evals0_at_drain);
  Alcotest.(check bool) "draining state recorded" true
    (st.Fleet.states.(0) = Fleet.Draining);
  Alcotest.(check int) "survivor finished everything" 10 st.Fleet.served_by.(1);
  (* Exactly-once, as evaluation accounting: each completion evaluated
     once, plus at most one abandoned attempt per migrated stream. *)
  let total_evals = evals.(0) + evals.(1) in
  Alcotest.(check bool) "no duplicate evaluations beyond aborted attempts"
    true
    (total_evals >= !ok && total_evals <= !ok + st.Fleet.migrations)

(* Live resize under load: a card added mid-run joins the ring, takes
   affinity traffic and is promoted to [Up] by its first serve. *)
let test_join_under_load () =
  let w = Lazy.force fleet_world in
  let hosts = fresh_hosts w 2 in
  let fleet =
    Fleet.create ~store:(World.store w) ~subject:"u"
      (Array.map (fun h -> Remote.Host.process h) hosts)
  in
  let reqs =
    List.init 12 (fun i ->
        Proxy.Request.make
          ?xpath:(if i mod 3 = 0 then Some "//patient/name" else None)
          (fdoc (i mod ndocs)))
  in
  List.iter
    (fun (o : Fleet.outcome) ->
      if not (Result.is_ok o.Fleet.result) then
        Alcotest.fail "clean pre-resize batch must serve")
    (Fleet.serve fleet reqs);
  let joined =
    Fleet.add_card fleet
      (Remote.Host.process (World.host ~profile:Cost.modern w))
  in
  Alcotest.(check int) "indices are stable" 2 joined;
  Alcotest.(check bool) "joins as Joining" true
    (Fleet.state fleet joined = Fleet.Joining);
  List.iter2
    (fun (r : Proxy.Request.t) (o : Fleet.outcome) ->
      match o.Fleet.result with
      | Ok s ->
          Alcotest.(check (option string))
            "post-resize view is exact"
            (World.golden w r)
            s.Proxy.Pool.xml
      | Error e -> Alcotest.failf "post-resize request failed: %a" Proxy.pp_error e)
    reqs (Fleet.serve fleet reqs);
  let st = Fleet.stats fleet in
  Alcotest.(check int) "one card added" 1 st.Fleet.added;
  Alcotest.(check bool) "the joiner took remapped affinity traffic" true
    (st.Fleet.served_by.(joined) > 0);
  Alcotest.(check bool) "promoted to Up by its first serve" true
    (Fleet.state fleet joined = Fleet.Up)

(* Hot-key standby: the zipf-head key's standby is pre-warmed by a slice
   of its traffic, and the primary's death fails over with zero
   client-visible errors — every request still serves the exact view. *)
let test_hot_key_standby_failover () =
  let w = Lazy.force fleet_world in
  let hosts = fresh_hosts w 3 in
  let cutouts = Array.init 3 (fun _ -> Fault.Cutout.create ()) in
  let transports =
    Array.mapi
      (fun i h -> Fault.Cutout.wrap cutouts.(i) (Remote.Host.process h))
      hosts
  in
  let fleet =
    Fleet.create ~standby_k:1 ~max_reroutes:2 ~store:(World.store w)
      ~subject:"u"
      transports
  in
  let hot () = Proxy.Request.make (fdoc 0) in
  let warm = Fleet.serve fleet (List.init 12 (fun _ -> hot ())) in
  List.iter
    (fun (o : Fleet.outcome) ->
      if not (Result.is_ok o.Fleet.result) then
        Alcotest.fail "warm-up must serve")
    warm;
  let st = Fleet.stats fleet in
  Alcotest.(check bool) "standby pre-warmed" true (st.Fleet.standby_hits >= 1);
  (* The primary is where the hot key's non-standby traffic went. *)
  let primary = ref 0 in
  Array.iteri
    (fun i n -> if n > st.Fleet.served_by.(!primary) then primary := i)
    st.Fleet.served_by;
  Remote.Host.tear hosts.(!primary);
  Fault.Cutout.kill cutouts.(!primary);
  let after = Fleet.serve fleet (List.init 8 (fun _ -> hot ())) in
  List.iter
    (fun (o : Fleet.outcome) ->
      match o.Fleet.result with
      | Ok s ->
          Alcotest.(check (option string))
            "failover serves the exact view"
            (World.golden w (Proxy.Request.make (fdoc 0)))
            s.Proxy.Pool.xml
      | Error e ->
          Alcotest.failf "hot key surfaced an error across the death: %a"
            Proxy.pp_error e)
    after;
  let st = Fleet.stats fleet in
  Alcotest.(check int) "death declared once, after one probe budget" 1
    st.Fleet.deaths;
  Alcotest.(check int) "typed probe budget spent" 3 st.Fleet.probes;
  Alcotest.(check bool) "dead state recorded" true
    (st.Fleet.states.(!primary) = Fleet.Dead);
  (* Revival restores capacity: the card rejoins and serves again. *)
  Fault.Cutout.revive cutouts.(!primary);
  Fleet.revive_card fleet !primary;
  Alcotest.(check bool) "revived as Joining" true
    (Fleet.state fleet !primary = Fleet.Joining);
  List.iter
    (fun (o : Fleet.outcome) ->
      if not (Result.is_ok o.Fleet.result) then
        Alcotest.fail "post-revival batch must serve")
    (Fleet.serve fleet
       (List.init 12 (fun i -> Proxy.Request.make (fdoc (i mod ndocs)))));
  Alcotest.(check int) "revival counted" 1 (Fleet.stats fleet).Fleet.revives

(* The observability registry is the source of truth: the stats record
   mirrors the registry's counters exactly, and the per-card state
   gauges track the lifecycle. *)
let test_fleet_registry_reconciliation () =
  let w = Lazy.force fleet_world in
  let obs = Obs.create ~tracing:false () in
  let hosts = fresh_hosts w 2 in
  let fleet =
    Fleet.create ~obs ~store:(World.store w) ~subject:"u"
      (Array.map (fun h -> Remote.Host.process h) hosts)
  in
  let reqs = List.init 8 (fun i -> Proxy.Request.make (fdoc (i mod ndocs))) in
  let streams = List.map (Fleet.start fleet) reqs in
  Fleet.turn fleet;
  Fleet.remove_card fleet 0;
  while List.exists (fun st -> Fleet.result st = None) streams do
    Fleet.turn fleet
  done;
  let st = Fleet.stats fleet in
  let counter name = Obs.Metrics.counter_value obs.Obs.metrics name in
  List.iter
    (fun (name, value) ->
      Alcotest.(check int) (name ^ " reconciles") value (counter name))
    [ ("fleet.requests", st.Fleet.requests);
      ("fleet.migrations", st.Fleet.migrations);
      ("fleet.drains", st.Fleet.drains);
      ("fleet.deaths", st.Fleet.deaths);
      ("fleet.revives", st.Fleet.revives);
      ("fleet.rejected", st.Fleet.rejected);
      ("fleet.reroutes", st.Fleet.reroutes) ];
  Alcotest.(check int) "card 0 state gauge shows draining" 1
    (fst (Obs.Metrics.gauge_value obs.Obs.metrics "fleet.card0.state"));
  Alcotest.(check int) "card 1 state gauge shows up" 0
    (fst (Obs.Metrics.gauge_value obs.Obs.metrics "fleet.card1.state"))

(* The chaos differential, property-tested: under a seeded random
   campaign (kills, a revive, a resize) interleaved with seeded frame
   faults, every request serves the exact golden view or a typed error,
   and the fleet converges on a clean pass afterwards. *)
let qcheck_chaos_campaign =
  QCheck2.Test.make
    ~name:"chaos campaign: golden-or-typed throughout, converges after"
    ~count:8
    QCheck2.Gen.(
      pair (int_bound 1_000_000)
        (map (fun r -> 0.06 *. r) (float_range 0.0 1.0)))
    (fun (seed, rate) ->
      let w = Lazy.force fleet_world in
      let requests = 60 in
      let rng = Rng.create (Int64.of_int (seed + 13)) in
      let reqs =
        List.init requests (fun _ ->
            let doc = fdoc (Rng.int rng ndocs) in
            let xpath =
              match Rng.int rng 3 with 0 -> Some "//patient/name" | _ -> None
            in
            Proxy.Request.make ?xpath doc)
      in
      let campaign =
        Fault.Campaign.random ~seed:(Int64.of_int seed) ~requests ~cards:3 ()
      in
      let schedule =
        Fault.Schedule.random ~seed:(Int64.of_int (seed * 17)) ~rate ()
      in
      let report =
        Chaos.run ~cards:3 ~store:(World.store w) ~subject:"u"
          ~make_card:(World.make_card ~profile:Cost.modern w)
          ~golden:(World.golden w) ~schedule ~campaign reqs
      in
      not (Chaos.diverged report))

(* A chaos kill is exactly what tail sampling exists to retain: with no
   baseline at all, the killed card's migrated request survives sampling
   because of its [fleet.migrate] child span, and that child is in both
   exports of the retained tree. *)
let test_kill_retains_migration_trace () =
  let w = Lazy.force fleet_world in
  let obs =
    Obs.create
      ~clock:(Obs.Clock.manual ())
      ~policy:(Obs.Policy.v [ Obs.Policy.span_named "fleet.migrate" ])
      ()
  in
  let hosts = fresh_hosts w 2 in
  let dead =
    Fault.Link.wrap
      ~schedule:
        (Fault.Schedule.random ~seed:1L ~rate:1.0
           ~kinds:[| Fault.Drop_command |] ())
      ~tear:(fun () -> Remote.Host.tear hosts.(0))
      (Remote.Host.process hosts.(0))
  in
  let fleet =
    Fleet.create ~obs ~routing:Fleet.Least_loaded ~store:(World.store w)
      ~subject:"u"
      [| Fault.Link.transport dead; Remote.Host.process hosts.(1) |]
  in
  (match Fleet.serve fleet [ Proxy.Request.make (fdoc 0) ] with
  | [ { Fleet.result = Ok _; _ } ] -> ()
  | [ { Fleet.result = Error e; _ } ] ->
      Alcotest.failf "killed-card request failed: %a" Proxy.pp_error e
  | _ -> Alcotest.fail "one request, one outcome");
  Alcotest.(check int) "death declared" 1 (Fleet.stats fleet).Fleet.deaths;
  let tr = obs.Obs.tracer in
  Alcotest.(check int) "only the migrated tree was retained" 1
    (Obs.Tracer.kept_trees tr);
  let events =
    String.split_on_char '\n' (Obs.Tracer.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Json.parse l with
           | Ok j -> j
           | Error e -> Alcotest.failf "bad export line %S: %s" l e)
  in
  let field k j = Json.member k j in
  let root =
    match
      List.find_opt
        (fun j ->
          field "type" j = Some (Json.String "span")
          && field "parent" j = Some (Json.Int 0))
        events
    with
    | Some r -> r
    | None -> Alcotest.fail "no retained root span in the export"
  in
  (* The tree is retained either by the migration rule or because its
     latency observation installed a bucket exemplar first (pins outrank
     rules); both keep the whole tree, which is the property that
     matters here. *)
  (match
     Option.bind (field "args" root) (fun a ->
         Option.bind (field "sampled.reason" a) Json.to_string_opt)
   with
  | Some ("span:fleet.migrate" | "exemplar") -> ()
  | r ->
      Alcotest.failf "unexpected retention reason %s"
        (Option.value ~default:"<none>" r));
  let root_id = Option.get (Option.bind (field "id" root) Json.to_int_opt) in
  Alcotest.(check bool) "fleet.migrate is a child of the retained root" true
    (List.exists
       (fun j ->
         field "name" j = Some (Json.String "fleet.migrate")
         && field "parent" j = Some (Json.Int root_id))
       events);
  (* The same tree, migration included, is in the Chrome export. *)
  let chrome = Obs.Tracer.to_chrome tr in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chrome export has the migration span" true
    (contains chrome "\"name\":\"fleet.migrate\"");
  Alcotest.(check bool) "chrome export names the retention reason" true
    (contains chrome "\"sampled.reason\":\"")

(* The phased SLO run end to end: clean steady phase, a page (breach
   ticks) while the kill + frame faults are live, and a clean recovered
   phase once the fast window drains — the multi-window acceptance shape
   the CLI and CI assert, pinned here as a unit test. *)
let test_run_slo_phases () =
  let w = Lazy.force fleet_world in
  let obs = Obs.create ~clock:(Obs.Clock.manual ()) ~tracing:false () in
  (* One stream rng across the three phases and a 3-doc hot set, as the
     [sdds slo] defaults do — the concentrated mix is what makes churn
     latency separate cleanly from steady traffic. *)
  let rng = Rng.create 42L in
  let requests _phase =
    List.init 48 (fun _ ->
        let doc = fdoc (Rng.int rng 3) in
        let xpath =
          match Rng.int rng 3 with 0 -> Some "//patient/name" | _ -> None
        in
        Proxy.Request.make ?xpath doc)
  in
  (* This world's keys make the cards a touch faster than the CLI's
     default world, so only 2 fault-retried churn serves cross the
     4095 µs bucket bound; a 98% objective makes those 2-in-48 a
     page-worthy burn while steady traffic (zero bad) stays silent. *)
  match
    Chaos.run_slo ~cards:3 ~latency_target:98.0 ~obs ~store:(World.store w)
      ~subject:"u" ~make_card:(World.make_card ~profile:Cost.modern w)
      ~requests ()
  with
  | [ steady; churn; recovered ] ->
      Alcotest.(check string) "phase order" "steady" steady.Chaos.sp_phase;
      Alcotest.(check string) "phase order" "churn" churn.Chaos.sp_phase;
      Alcotest.(check string) "phase order" "recovered"
        recovered.Chaos.sp_phase;
      List.iter
        (fun p ->
          Alcotest.(check int)
            (p.Chaos.sp_phase ^ ": no typed errors")
            0 p.Chaos.sp_errors)
        [ steady; churn; recovered ];
      Alcotest.(check int) "steady phase never pages" 0
        steady.Chaos.sp_breach_ticks;
      Alcotest.(check bool) "churn pages mid-phase" true
        (churn.Chaos.sp_breach_ticks > 0);
      Alcotest.(check bool) "churn phase reports the breach" true
        (Chaos.breached churn);
      Alcotest.(check int) "recovered phase never pages" 0
        recovered.Chaos.sp_breach_ticks;
      Alcotest.(check bool) "recovered phase-end verdicts are clean" true
        (List.for_all
           (fun v -> not v.Obs.Slo.breach)
           recovered.Chaos.sp_verdicts);
      Alcotest.(check bool) "simulated clock advances" true
        (Int64.compare recovered.Chaos.sp_now_ns churn.Chaos.sp_now_ns > 0)
  | ps -> Alcotest.failf "expected three phases, got %d" (List.length ps)

let suite =
  [
    Alcotest.test_case "single-frame duplicate final is re-acked" `Quick
      test_chain_single_frame_duplicate;
    Alcotest.test_case "wraparound duplicate final is re-acked" `Quick
      test_chain_wraparound_duplicate;
    Alcotest.test_case "forget clears the completion marker" `Quick
      test_chain_forget_clears_marker;
    QCheck_alcotest.to_alcotest qcheck_chain_exactly_once;
    Alcotest.test_case "single-frame upload survives duplication" `Quick
      test_single_frame_upload_duplicate_end_to_end;
    Alcotest.test_case "257-frame upload survives final duplication" `Quick
      test_wraparound_upload_duplicate_end_to_end;
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    QCheck_alcotest.to_alcotest qcheck_ring_resize_stability;
    Alcotest.test_case "fleet serves a batch exactly" `Quick
      test_fleet_serves_batch_exactly;
    Alcotest.test_case "admission control refuses overload" `Quick
      test_fleet_admission_control;
    Alcotest.test_case "fleet declares a dead card and migrates off it"
      `Quick test_fleet_reroutes_off_a_dead_card;
    Alcotest.test_case "a malformed query raises at admission" `Quick
      test_fleet_malformed_query_raises_at_start;
    QCheck_alcotest.to_alcotest qcheck_fleet_differential;
    Alcotest.test_case "tear cannot cross-serve a stale channel" `Quick
      test_tear_stale_channel_regression;
    Alcotest.test_case "drain with in-flight work migrates exactly once"
      `Quick test_drain_with_inflight_migrates_exactly_once;
    Alcotest.test_case "card joins under load and takes traffic" `Quick
      test_join_under_load;
    Alcotest.test_case "hot-key standby fails over warm" `Quick
      test_hot_key_standby_failover;
    Alcotest.test_case "stats reconcile with the metrics registry" `Quick
      test_fleet_registry_reconciliation;
    QCheck_alcotest.to_alcotest qcheck_chaos_campaign;
    Alcotest.test_case "a chaos kill's migration trace is retained" `Quick
      test_kill_retains_migration_trace;
    Alcotest.test_case "phased slo run: steady clean, churn pages, recovers"
      `Quick test_run_slo_phases;
  ]
