(* Fault injection and recovery: the headline soundness property (any
   fault schedule yields the exact fault-free view or a typed error),
   bounded-fault convergence, deterministic replay, the pool's tear
   recovery, grant refresh after revocation, and the crash-safe store. *)

module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Remote = Sdds_soe.Remote_card
module Proxy = Sdds_proxy.Proxy
module World = Sdds_proxy.World
module Fault = Sdds_fault.Fault
module Store_io = Sdds_dsp.Store_io
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

(* One world: a published ward document, rules and a grant for subject
   "u" in a DSP store. Cards and hosts are created per run — they carry
   the volatile state the faults attack. *)
let doc_id = "ward"

let rules =
  [ Rule.allow ~subject:"u" "//patient"; Rule.deny ~subject:"u" "//ssn" ]

let make_world ?(seed = "fault-world") () =
  let drbg = Drbg.create ~seed in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  World.create drbg ~publisher ~user
    [ (doc_id, Generator.hospital (Rng.create 77L) ~patients:5, rules) ]

let world = lazy (make_world ())
let fresh_host w = World.host ~profile:Cost.modern w

let stored_rules w =
  Option.get (Store.get_rules (World.store w) ~doc_id ~subject:"u")

let stored_grant w =
  Option.get (Store.get_grant (World.store w) ~doc_id ~subject:"u")

let requests =
  [ Proxy.Request.make doc_id; Proxy.Request.make ~xpath:"//patient/name" doc_id ]

(* Serve [reqs] (default [requests]) over a transport: each request's
   view, or its typed error. *)
let pool_views ?(reqs = requests) w transport =
  let pool =
    Proxy.Pool.create ~store:(World.store w) ~transport ~subject:"u" ()
  in
  List.map
    (fun r -> Result.map (fun s -> s.Proxy.Pool.xml) r)
    (Proxy.Pool.serve pool reqs)

(* The fault-free reference views, computed once. *)
let golden =
  lazy
    (let w = Lazy.force world in
     let host = fresh_host w in
     List.map
       (function
         | Ok xml -> xml
         | Error e -> Alcotest.failf "golden run failed: %a" Proxy.pp_error e)
       (pool_views w (Remote.Host.process host)))

let faulty_pool_run ?reqs w schedule =
  let host = fresh_host w in
  let link =
    Fault.Link.wrap ~schedule
      ~tear:(fun () -> Remote.Host.tear host)
      (Remote.Host.process host)
  in
  (pool_views ?reqs w (Fault.Link.transport link), link)

(* One request on a fresh pool: it runs alone on the basic channel, so
   frames 0 and 1 are SELECT and GRANT and the rules upload starts at
   frame 2. *)
let lone_request_view ?xpath w schedule =
  match
    fst (faulty_pool_run ~reqs:[ Proxy.Request.make ?xpath doc_id ] w schedule)
  with
  | [ view ] -> view
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Headline properties                                                  *)
(* ------------------------------------------------------------------ *)

(* Soundness: under ANY schedule, each request ends in either the exact
   fault-free view (bit-for-bit) or a typed error — never a truncated or
   stitched view. *)
let qcheck_soundness =
  QCheck2.Test.make ~name:"any fault schedule: exact view or typed error"
    ~count:60
    QCheck2.Gen.(
      pair (int_bound 1_000_000) (map (fun r -> 0.3 *. r) (float_range 0.0 1.0)))
    (fun (seed, rate) ->
      let w = Lazy.force world in
      let schedule =
        Fault.Schedule.random ~seed:(Int64.of_int seed) ~rate ()
      in
      let views, _ = faulty_pool_run w schedule in
      List.for_all2
        (fun got want ->
          match got with
          | Ok xml -> xml = want  (* the exact authorized view *)
          | Error
              ( Proxy.Link_failure _ | Proxy.Card_error _ | Proxy.Protocol _
              | Proxy.Unknown_document _ | Proxy.No_grant | Proxy.No_rules
              | Proxy.Overloaded ) ->
              true)
        views (Lazy.force golden))

(* Convergence: with the fault count under the retry budget, recovery is
   not just sound but *successful* — the pool returns the fault-free
   view. Each injected fault costs at most two budget units (a tear is a
   lost frame plus a session replay), so 7 events fit the budget of 16
   with room to spare. *)
let qcheck_convergence =
  let event_gen =
    QCheck2.Gen.(
      pair (int_bound 120)
        (int_bound (Array.length Fault.all_kinds - 1))
      |> map (fun (frame, k) -> { Fault.frame; kind = Fault.all_kinds.(k) }))
  in
  QCheck2.Test.make
    ~name:"faults under the retry budget: retried run = fault-free view"
    ~count:60
    QCheck2.Gen.(list_size (int_bound 7) event_gen)
    (fun events ->
      let w = Lazy.force world in
      let run schedule =
        match lone_request_view ~xpath:"//patient/name" w schedule with
        | Ok xml -> xml
        | Error e -> QCheck2.Test.fail_reportf "%a" Proxy.pp_error e
      in
      run (Fault.Schedule.of_events events) = run Fault.Schedule.none)

(* Determinism: the same seed produces the same injected trace and the
   same outcomes, and replaying the recorded trace as an explicit event
   schedule reproduces the run exactly. *)
let qcheck_deterministic_replay =
  QCheck2.Test.make ~name:"a failing schedule replays from its seed"
    ~count:30
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let w = Lazy.force world in
      let schedule =
        Fault.Schedule.random ~seed:(Int64.of_int seed) ~rate:0.15 ()
      in
      let views1, link1 = faulty_pool_run w schedule in
      let views2, link2 = faulty_pool_run w schedule in
      let replayed, link3 =
        faulty_pool_run w (Fault.Schedule.of_events (Fault.Link.trace link1))
      in
      views1 = views2
      && Fault.Link.trace link1 = Fault.Link.trace link2
      && views1 = replayed
      && Fault.Link.trace link1 = Fault.Link.trace link3)

(* ------------------------------------------------------------------ *)
(* Directed recovery tests                                              *)
(* ------------------------------------------------------------------ *)

(* Satellite: a card tear mid-exchange closes logical channels; the pool
   must reopen and replay, not fail the whole batch. Frame 9 lands well
   inside the interleaved setup of two streams (one of them on a
   logical channel > 0). *)
let test_pool_recovers_from_tear () =
  let w = Lazy.force world in
  let views, link =
    faulty_pool_run w
      (Fault.Schedule.of_events [ { Fault.frame = 9; kind = Fault.Tear } ])
  in
  Alcotest.(check int) "the tear was injected" 1 (Fault.Link.injected link);
  List.iter2
    (fun got want ->
      match got with
      | Ok xml -> Alcotest.(check (option string)) "exact view" want xml
      | Error e -> Alcotest.failf "request failed: %a" Proxy.pp_error e)
    views (Lazy.force golden)

let test_pool_budget_exhaustion_is_typed () =
  let w = Lazy.force world in
  let views, _ =
    faulty_pool_run w
      (Fault.Schedule.random ~seed:3L ~rate:1.0
         ~kinds:[| Fault.Drop_command |] ())
  in
  List.iter
    (function
      | Error (Proxy.Link_failure { attempts }) ->
          Alcotest.(check int) "reports the budget" Proxy.Pool.retry_budget
            attempts
      | Error e -> Alcotest.failf "wrong error: %a" Proxy.pp_error e
      | Ok _ -> Alcotest.fail "no frame ever arrives, yet the request won")
    views

(* Satellite: after the publisher rotates the document key (revocation),
   a proxy whose card cached the old key must re-fetch the fresh wrapped
   grant from the DSP and succeed — not fail with [Stale_key] forever. *)
let rotate_in_store w =
  let store = World.store w and drbg = World.drbg w in
  let publisher = World.publisher w in
  let published = Option.get (Store.get_document store doc_id) in
  let rotated, new_key =
    Publish.rotate drbg ~publisher ~old_key:(World.doc_key w doc_id) published
  in
  Store.put_document store rotated;
  Store.put_rules store ~doc_id ~subject:"u"
    (Publish.encrypt_rules_for drbg ~publisher ~doc_key:new_key ~doc_id
       ~subject:"u" rules);
  Store.put_grant store ~doc_id ~subject:"u"
    (Publish.grant drbg ~doc_key:new_key ~doc_id
       ~recipient:(World.user w).Rsa.public)

let test_run_refreshes_grant_after_rotation () =
  let w = make_world ~seed:"rotation-run" () in
  let card = Card.create ~profile:Cost.modern ~subject:"u" (World.user w) in
  let proxy = Proxy.create ~store:(World.store w) ~card in
  let before =
    match Proxy.run proxy (Proxy.Request.make doc_id) with
    | Ok o -> Lazy.force o.Proxy.view
    | Error e -> Alcotest.failf "pre-rotation query failed: %a" Proxy.pp_error e
  in
  rotate_in_store w;
  match Proxy.run proxy (Proxy.Request.make doc_id) with
  | Ok o ->
      Alcotest.(check bool) "same authorized view across rotation" true
        (Option.equal Dom.equal before (Lazy.force o.Proxy.view))
  | Error e -> Alcotest.failf "post-rotation query failed: %a" Proxy.pp_error e

let test_pool_refreshes_grant_after_rotation () =
  let w = make_world ~seed:"rotation-pool" () in
  let host = fresh_host w in
  let pool =
    Proxy.Pool.create ~store:(World.store w)
      ~transport:(Remote.Host.process host)
      ~subject:"u" ()
  in
  let first =
    match Proxy.Pool.serve pool [ Proxy.Request.make doc_id ] with
    | [ Ok s ] -> s.Proxy.Pool.xml
    | _ -> Alcotest.fail "pre-rotation serve failed"
  in
  rotate_in_store w;
  match Proxy.Pool.serve pool [ Proxy.Request.make doc_id ] with
  | [ Ok s ] ->
      Alcotest.(check (option string))
        "same authorized view across rotation" first s.Proxy.Pool.xml
  | [ Error e ] -> Alcotest.failf "post-rotation serve failed: %a" Proxy.pp_error e
  | _ -> Alcotest.fail "one request, one result"

(* ------------------------------------------------------------------ *)
(* Host protocol: the idempotency the recovery relies on                *)
(* ------------------------------------------------------------------ *)

let send host ?(channel = 0) ins ?(p1 = 0) ?(p2 = 0) data =
  Remote.Host.process host
    { Apdu.cla = Apdu.cla_of_channel channel; ins; p1; p2; data }

let check_sw name want (resp : Apdu.response) =
  Alcotest.(check bool) name true ((resp.Apdu.sw1, resp.Apdu.sw2) = want)

let test_virgin_drain_is_bad_state () =
  let w = Lazy.force world in
  let host = fresh_host w in
  check_sw "select" Remote.Sw.ok (send host Remote.Ins.select doc_id);
  (* No EVALUATE ran on this session: draining must be a state error,
     never an empty success a terminal could mistake for a view. *)
  check_sw "virgin drain" Remote.Sw.bad_state
    (send host Remote.Ins.get_response "")

let test_block_retransmission_is_identical () =
  let w = Lazy.force world in
  let host = fresh_host w in
  check_sw "select" Remote.Sw.ok (send host Remote.Ins.select doc_id);
  check_sw "grant" Remote.Sw.ok (send host Remote.Ins.grant (stored_grant w));
  List.iter
    (fun f -> check_sw "rules" Remote.Sw.ok (Remote.Host.process host f))
    (Apdu.segment ~cla:Apdu.base_cla ~ins:Remote.Ins.rules (stored_rules w));
  let first = send host Remote.Ins.evaluate "" in
  Alcotest.(check bool) "a multi-block response" true
    (first.Apdu.sw1 = fst Remote.Sw.more_data);
  (* EVALUATE served block 0; re-asking for block 0 (our answer was
     "lost") must retransmit it byte-identically, not skip ahead. *)
  let again = send host Remote.Ins.get_response ~p2:0 "" in
  Alcotest.(check string) "identical payload" first.Apdu.payload
    again.Apdu.payload;
  Alcotest.(check bool) "identical status" true
    ((first.Apdu.sw1, first.Apdu.sw2) = (again.Apdu.sw1, again.Apdu.sw2));
  (* Jumping two blocks ahead is a protocol violation, not a skip. *)
  check_sw "block gap refused" Remote.Sw.bad_state
    (send host Remote.Ins.get_response ~p2:2 "");
  (* Forward progress still works. *)
  let next = send host Remote.Ins.get_response ~p2:1 "" in
  Alcotest.(check bool) "next block served" true
    (next.Apdu.sw1 = fst Remote.Sw.more_data
    || (next.Apdu.sw1, next.Apdu.sw2) = Remote.Sw.ok)

let test_chain_duplicate_is_acked_once () =
  let w = Lazy.force world in
  (* Upload the rules twice over a lossy line that duplicates one chain
     frame; the view must equal the clean run (no doubled bytes). *)
  let run schedule =
    match lone_request_view w schedule with
    | Ok xml -> xml
    | Error e -> Alcotest.failf "request failed: %a" Proxy.pp_error e
  in
  let clean = run Fault.Schedule.none in
  (* Frames 0–1 are SELECT and GRANT; frame 2 is the first rules frame. *)
  let dup =
    run
      (Fault.Schedule.of_events
         [ { Fault.frame = 3; kind = Fault.Duplicate_command } ])
  in
  Alcotest.(check bool) "duplicate frame does not double payload" true
    (clean = dup)

let test_tear_closes_channels_but_keeps_stable_state () =
  let w = Lazy.force world in
  let host = fresh_host w in
  let channel =
    let resp = send host Remote.Ins.manage_channel "" in
    check_sw "channel opened" Remote.Sw.ok resp;
    Char.code resp.Apdu.payload.[0]
  in
  check_sw "select on logical channel" Remote.Sw.ok
    (send host ~channel Remote.Ins.select doc_id);
  check_sw "grant installs" Remote.Sw.ok
    (send host ~channel Remote.Ins.grant (stored_grant w));
  Remote.Host.tear host;
  Alcotest.(check int) "only the basic channel survives" 1
    (Remote.Host.open_channels host);
  check_sw "old channel is dead" Remote.Sw.channel_closed
    (send host ~channel Remote.Ins.select doc_id);
  (* The basic channel restarted fresh: its old session is gone... *)
  check_sw "fresh session has no document" Remote.Sw.bad_state
    (send host Remote.Ins.evaluate "");
  (* ...but the key store survived the tear: no grant needed now. *)
  check_sw "re-select" Remote.Sw.ok (send host Remote.Ins.select doc_id);
  List.iter
    (fun f -> check_sw "rules" Remote.Sw.ok (Remote.Host.process host f))
    (Apdu.segment ~cla:Apdu.base_cla ~ins:Remote.Ins.rules (stored_rules w));
  let resp = send host Remote.Ins.evaluate "" in
  Alcotest.(check bool) "evaluate succeeds without re-granting" true
    ((resp.Apdu.sw1, resp.Apdu.sw2) = Remote.Sw.ok
    || resp.Apdu.sw1 = fst Remote.Sw.more_data)

(* ------------------------------------------------------------------ *)
(* Error surface                                                        *)
(* ------------------------------------------------------------------ *)

let test_transient_words_are_not_card_errors () =
  Alcotest.(check bool) "transport is protocol-level" true
    (Remote.of_sw Remote.Sw.transport = None);
  Alcotest.(check bool) "internal is protocol-level" true
    (Remote.of_sw Remote.Sw.internal = None);
  let classify sw =
    Remote.classify { Apdu.sw1 = fst sw; sw2 = snd sw; payload = "" }
  in
  Alcotest.(check bool) "transport is transient" true
    (classify Remote.Sw.transport = Remote.Transient);
  Alcotest.(check bool) "internal is transient" true
    (classify Remote.Sw.internal = Remote.Transient);
  Alcotest.(check bool) "bad_state loses the session" true
    (classify Remote.Sw.bad_state = Remote.Session_lost);
  Alcotest.(check bool) "channel_closed loses the session" true
    (classify Remote.Sw.channel_closed = Remote.Session_lost);
  Alcotest.(check bool) "ok is done" true (classify Remote.Sw.ok = Remote.Done);
  (match classify Remote.Sw.stale_key with
  | Remote.Fatal (Card.Stale_key _) -> ()
  | _ -> Alcotest.fail "stale_key must be fatal");
  match classify (0x7F, 0x42) with
  | Remote.Unknown (0x7F, 0x42) -> ()
  | _ -> Alcotest.fail "out-of-protocol words must be Unknown"

let test_undecodable_stream_is_protocol_error () =
  (* A peer that answers OK with garbage payload on every frame: the
     pool must fail with a typed [Protocol] error, not raise or return a
     mangled view. *)
  let garbage _ = { Apdu.sw1 = 0x90; sw2 = 0x00; payload = "\xff\xff\xff" } in
  match
    pool_views ~reqs:[ Proxy.Request.make doc_id ] (Lazy.force world) garbage
  with
  | [ Error (Proxy.Protocol msg) ] ->
      Alcotest.(check bool) "names the decode failure" true
        (String.length msg >= 19
        && String.sub msg 0 19 = "bad response stream")
  | [ Error e ] -> Alcotest.failf "wrong error: %a" Proxy.pp_error e
  | [ Ok _ ] -> Alcotest.fail "garbage decoded as a view"
  | _ -> assert false

let test_refused_stream_is_protocol_error () =
  (* Streams that decode but that the view builder refuses: an element
     never closed, text before any open, and a second root. Each must
     end the request in a typed [Protocol] error, like an undecodable
     stream, and never escape the pool as an exception. *)
  List.iter
    (fun (label, payload, refusal) ->
      let peer _ = { Apdu.sw1 = 0x90; sw2 = 0x00; payload } in
      match
        pool_views ~reqs:[ Proxy.Request.make doc_id ] (Lazy.force world) peer
      with
      | [ Error (Proxy.Protocol msg) ] ->
          Alcotest.(check string) label ("bad response stream: " ^ refusal) msg
      | [ Error e ] -> Alcotest.failf "%s: wrong error: %a" label Proxy.pp_error e
      | [ Ok _ ] -> Alcotest.failf "%s: served as a view" label
      | _ -> assert false
      | exception e ->
          Alcotest.failf "%s: escaped the pool: %s" label (Printexc.to_string e))
    [ ( "unclosed element", "\x1f\x01a",
        "Stream_view.finish: elements still open" );
      ("text before any open", "\x00\x01t", "Stream_view: text outside elements");
      ( "second root", "\x1f\x01a\x01\x04\x00\x01",
        "Stream_view: several roots" ) ]

let fail_parse e = Alcotest.fail (Fault.Schedule.string_of_parse_error e)

let test_fault_spec_parsing () =
  (match Fault.Schedule.of_spec "none" with
  | Ok s -> Alcotest.(check string) "none" "none" (Fault.Schedule.to_spec s)
  | Error e -> fail_parse e);
  (match Fault.Schedule.of_spec "@3:tear,@10:drop-response" with
  | Ok s ->
      Alcotest.(check (option string)) "event fires" (Some "tear")
        (Option.map Fault.kind_to_string (Fault.Schedule.decide s 3));
      Alcotest.(check (option string)) "silent frame" None
        (Option.map Fault.kind_to_string (Fault.Schedule.decide s 4));
      Alcotest.(check string) "round-trips" "@3:tear,@10:drop-response"
        (Fault.Schedule.to_spec s)
  | Error e -> fail_parse e);
  (match Fault.Schedule.of_spec "seed=42,rate=0.25,kinds=tear+drop-command" with
  | Ok s ->
      let described = Fault.Schedule.to_spec s in
      (match Fault.Schedule.of_spec described with
      | Ok s' ->
          Alcotest.(check bool) "to_spec round-trips through of_spec" true
            (List.for_all
               (fun n -> Fault.Schedule.decide s n = Fault.Schedule.decide s' n)
               (List.init 200 Fun.id))
      | Error e -> fail_parse e)
  | Error e -> fail_parse e);
  List.iter
    (fun bad ->
      match Fault.Schedule.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad)
    [ "seed=42"; "rate=0.5"; "seed=x,rate=0.5"; "seed=1,rate=2.0";
      "@x:tear"; "@3:melt"; "seed=1,rate=0.1,kinds=melt" ]

(* [parse spec] must fail at byte [pos] with a message mentioning
   [frag]. *)
let expect_parse_error parse spec pos frag =
  let mentions needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  match parse spec with
  | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
  | Error e ->
      Alcotest.(check int) (Printf.sprintf "pos of error in %S" spec) pos
        e.Fault.Schedule.pos;
      if not (mentions frag (Fault.Schedule.string_of_parse_error e)) then
        Alcotest.failf "error for %S says %S, expected it to mention %S" spec
          (Fault.Schedule.string_of_parse_error e)
          frag

(* A malformed spec fails with a *position*: the offset of the offending
   token in the string as given, leading whitespace included. *)
let test_fault_spec_errors_positioned () =
  let expect = expect_parse_error Fault.Schedule.of_spec in
  expect "@3:tear,@x:tear" 9 "bad frame number";
  expect "@3:melt" 3 "unknown fault kind";
  expect "  @-1:tear" 3 "negative frame";
  expect "@3tear" 0 "missing ':'";
  expect "seed=1,rate=oops" 12 "bad rate";
  expect "seed=zz,rate=0.1" 5 "bad seed";
  expect "seed=1,rate=0.1,kinds=melt" 22 "unknown fault kind";
  expect "seed=1,rate=0.1,color=red" 16 "unknown fault field";
  expect "rate=0.5" 0 "needs both";
  expect "seed=1,rate=0.5,ramp=0.1" 16 "unknown fault field";
  expect "#5:none;none" 0 "expected KEY=VALUE"

(* Campaign actions match their whole word, and error positions count
   the whitespace between events. *)
let test_campaign_spec_errors_positioned () =
  let expect = expect_parse_error Fault.Campaign.of_spec in
  expect "@1:killer:3" 3 "unknown campaign action";
  expect "@1:tearing:0" 3 "unknown campaign action";
  expect "@1:remove-all:2" 3 "unknown campaign action";
  expect "@1:add, @2:bogus" 11 "unknown campaign action";
  expect "@1:add,  @2:kill:x" 17 "bad card index";
  expect "@1:add, @2:kill" 11 "needs a card index"

(* Campaign specs replay: of_spec ∘ to_spec = id on the event list, and
   the seeded random campaign is coherent (kills are distinct cards in
   the middle of the stream, revives strictly follow their kill). *)
let test_campaign_spec_round_trip () =
  let spec = "@10:kill:1,@20:revive:1,@30:add,@40:remove:0,@50:tear:2" in
  (match Fault.Campaign.of_spec spec with
  | Error e -> fail_parse e
  | Ok c ->
      Alcotest.(check string) "round-trips" spec (Fault.Campaign.to_spec c));
  (match Fault.Campaign.of_spec "none" with
  | Error e -> fail_parse e
  | Ok c -> Alcotest.(check string) "none" "none" (Fault.Campaign.to_spec c));
  List.iter
    (fun bad ->
      match Fault.Campaign.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad campaign spec %S" bad)
    [ "@10:kill"; "@10:explode:1"; "@x:kill:1"; "@10:add:3"; "kill:1" ];
  let requests = 200 and cards = 3 in
  let c =
    Fault.Campaign.random ~seed:99L ~requests ~cards ~kills:2 ~revives:1
      ~resizes:1 ()
  in
  (match Fault.Campaign.of_spec (Fault.Campaign.to_spec c) with
  | Error e -> fail_parse e
  | Ok c' ->
      Alcotest.(check string) "random campaign round-trips"
        (Fault.Campaign.to_spec c) (Fault.Campaign.to_spec c'));
  let events = Fault.Campaign.events c in
  let kills =
    List.filter_map
      (function
        | { Fault.Campaign.at; action = Fault.Campaign.Kill i } -> Some (at, i)
        | _ -> None)
      events
  in
  Alcotest.(check int) "two kills" 2 (List.length kills);
  Alcotest.(check bool) "kills hit distinct cards" true
    (List.length (List.sort_uniq compare (List.map snd kills)) = 2);
  Alcotest.(check bool) "kills land mid-stream" true
    (List.for_all
       (fun (at, _) -> at >= requests / 10 && at <= requests * 9 / 10)
       kills);
  List.iter
    (function
      | { Fault.Campaign.at; action = Fault.Campaign.Revive i } ->
          Alcotest.(check bool) "revive strictly follows its kill" true
            (List.exists (fun (k_at, k_i) -> k_i = i && k_at < at) kills)
      | _ -> ())
    events

(* of_spec ∘ to_spec = id (up to per-frame decisions), over both spec
   families: explicit event lists and seeded random schedules. *)
let qcheck_spec_round_trip =
  let kind_gen =
    QCheck2.Gen.map
      (fun i -> Fault.all_kinds.(i mod Array.length Fault.all_kinds))
      QCheck2.Gen.(int_bound (Array.length Fault.all_kinds - 1))
  in
  let schedule_gen =
    QCheck2.Gen.(
      bind bool (fun random ->
          if random then
            map3
              (fun seed rate_pct kept ->
                let kinds =
                  match kept with [] -> None | ks -> Some (Array.of_list ks)
                in
                Fault.Schedule.random ~seed:(Int64.of_int seed)
                  ~rate:(float_of_int rate_pct /. 100.)
                  ?kinds ())
              (int_bound 1_000_000) (int_bound 100)
              (list_size (int_bound 4) kind_gen)
          else
            map
              (fun events ->
                Fault.Schedule.of_events
                  (List.map (fun (f, k) -> { Fault.frame = f; kind = k }) events))
              (list_size (int_bound 6) (pair (int_bound 40) kind_gen))))
  in
  QCheck2.Test.make ~name:"of_spec (to_spec s) decides like s" ~count:200
    schedule_gen (fun s ->
      match Fault.Schedule.of_spec (Fault.Schedule.to_spec s) with
      | Error e ->
          QCheck2.Test.fail_report
            (Printf.sprintf "to_spec %S does not re-parse: %s"
               (Fault.Schedule.to_spec s)
               (Fault.Schedule.string_of_parse_error e))
      | Ok s' ->
          Fault.Schedule.to_spec s' = Fault.Schedule.to_spec s
          && List.for_all
               (fun n -> Fault.Schedule.decide s n = Fault.Schedule.decide s' n)
               (List.init 300 Fun.id))

(* ------------------------------------------------------------------ *)
(* Crash-safe store                                                     *)
(* ------------------------------------------------------------------ *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdds-fault-%d" (Hashtbl.hash (Sys.time ())))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Store_io.clear_fault_hook ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_torn_write_never_corrupts_store () =
  let w = make_world ~seed:"torn-store" () in
  with_tmpdir (fun dir ->
      (* A clean save first: this is the state on disk before the crash. *)
      (match Store_io.save (World.store w) ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Store_io.string_of_error e));
      (* Now every write tears mid-file. The re-save fails with a typed
         error... *)
      let disk = Fault.Disk.arm ~seed:11L ~torn_rate:1.0 () in
      (match Store_io.save (World.store w) ~dir with
      | Ok () -> Alcotest.fail "torn save reported success"
      | Error e ->
          Alcotest.(check bool) "write failed" true (e.Store_io.op = `Write));
      Alcotest.(check bool) "faults were injected" true
        (Fault.Disk.injected disk > 0);
      Fault.Disk.disarm ();
      (* ...and the store on disk is still the complete pre-crash one:
         the torn temp files are skipped by the loaders. *)
      match Store_io.load ~dir with
      | Error e -> Alcotest.fail (Store_io.string_of_error e)
      | Ok loaded ->
          Alcotest.(check (list string)) "documents intact" [ doc_id ]
            (Store.list_documents loaded);
          Alcotest.(check bool) "grant intact" true
            (Store.get_grant loaded ~doc_id ~subject:"u"
            = Store.get_grant (World.store w) ~doc_id ~subject:"u");
          Alcotest.(check bool) "rules intact" true
            (Store.get_rules loaded ~doc_id ~subject:"u"
            = Store.get_rules (World.store w) ~doc_id ~subject:"u"))

let test_rename_fault_is_typed () =
  let w = make_world ~seed:"rename-fault" () in
  with_tmpdir (fun dir ->
      Store_io.set_fault_hook (fun op _path ->
          match op with
          | `Rename -> Some (Store_io.Io_fail "injected rename fault")
          | _ -> None);
      match Store_io.save (World.store w) ~dir with
      | Ok () -> Alcotest.fail "save succeeded under rename faults"
      | Error e ->
          Alcotest.(check bool) "typed as rename" true
            (e.Store_io.op = `Rename))

let test_read_faults_are_typed () =
  let w = make_world ~seed:"read-fault" () in
  with_tmpdir (fun dir ->
      (match Store_io.save (World.store w) ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Store_io.string_of_error e));
      let _ = Fault.Disk.arm ~seed:5L ~fail_rate:1.0 () in
      (match Store_io.load ~dir with
      | Ok _ -> Alcotest.fail "load succeeded on a failing disk"
      | Error e ->
          Alcotest.(check bool) "typed as read" true (e.Store_io.op = `Read));
      Fault.Disk.disarm ())

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_soundness;
    QCheck_alcotest.to_alcotest qcheck_convergence;
    QCheck_alcotest.to_alcotest qcheck_deterministic_replay;
    Alcotest.test_case "pool recovers from a card tear" `Quick
      test_pool_recovers_from_tear;
    Alcotest.test_case "pool budget exhaustion is typed" `Quick
      test_pool_budget_exhaustion_is_typed;
    Alcotest.test_case "run refreshes the grant after rotation" `Quick
      test_run_refreshes_grant_after_rotation;
    Alcotest.test_case "pool refreshes the grant after rotation" `Quick
      test_pool_refreshes_grant_after_rotation;
    Alcotest.test_case "virgin drain is bad_state" `Quick
      test_virgin_drain_is_bad_state;
    Alcotest.test_case "block retransmission is identical" `Quick
      test_block_retransmission_is_identical;
    Alcotest.test_case "duplicated chain frame acked once" `Quick
      test_chain_duplicate_is_acked_once;
    Alcotest.test_case "tear closes channels, keeps stable state" `Quick
      test_tear_closes_channels_but_keeps_stable_state;
    Alcotest.test_case "transient words classify as transient" `Quick
      test_transient_words_are_not_card_errors;
    Alcotest.test_case "undecodable stream is a protocol error" `Quick
      test_undecodable_stream_is_protocol_error;
    Alcotest.test_case "refused stream is a protocol error" `Quick
      test_refused_stream_is_protocol_error;
    Alcotest.test_case "fault-spec parsing" `Quick test_fault_spec_parsing;
    Alcotest.test_case "fault-spec errors carry a position" `Quick
      test_fault_spec_errors_positioned;
    Alcotest.test_case "campaign specs replay" `Quick
      test_campaign_spec_round_trip;
    Alcotest.test_case "campaign spec errors: exact words, true positions"
      `Quick test_campaign_spec_errors_positioned;
    QCheck_alcotest.to_alcotest qcheck_spec_round_trip;
    Alcotest.test_case "torn write never corrupts the store" `Quick
      test_torn_write_never_corrupts_store;
    Alcotest.test_case "rename fault is typed" `Quick
      test_rename_fault_is_typed;
    Alcotest.test_case "read faults are typed" `Quick
      test_read_faults_are_typed;
  ]
