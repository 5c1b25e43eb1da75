(* Multi-client serving: logical-channel sessions, the prepared-evaluation
   cache, the pool's frame interleaving, and the unified status-word
   mapping. *)

module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Remote = Sdds_soe.Remote_card
module Proxy = Sdds_proxy.Proxy
module World = Sdds_proxy.World
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

(* One world: two published ward documents, rules and grants for subject
   "u" in a DSP store. Cards and hosts are created per test — they carry
   the mutable state under scrutiny. *)
let doc_ids = [ "ward-1"; "ward-2" ]

let world =
  lazy
    (let drbg = Drbg.create ~seed:"session-world" in
     let publisher = Rsa.generate drbg ~bits:512 in
     let user = Rsa.generate drbg ~bits:512 in
     World.create drbg ~publisher ~user
       (List.mapi
          (fun i doc_id ->
            ( doc_id,
              Generator.hospital (Rng.create (Int64.of_int (50 + i)))
                ~patients:(4 + i),
              if i = 0 then
                [ Rule.allow ~subject:"u" "//patient";
                  Rule.deny ~subject:"u" "//ssn" ]
              else [ Rule.allow ~subject:"u" "//patient/name" ] ))
          doc_ids))

let fresh_card w = Card.create ~profile:Cost.modern ~subject:"u" (World.user w)

let fresh_transport w =
  let card = fresh_card w in
  ( card,
    Remote.Host.process
      (Remote.Host.create ~card ~resolve:(World.resolve w) ()) )

let stored_rules w doc_id =
  Option.get (Store.get_rules (World.store w) ~doc_id ~subject:"u")

let stored_grant w doc_id =
  Option.get (Store.get_grant (World.store w) ~doc_id ~subject:"u")

let xpaths = [| None; Some "//patient"; Some "//patient/name" |]

let random_request rng =
  let doc_id = List.nth doc_ids (Rng.int rng (List.length doc_ids)) in
  Proxy.Request.make ?xpath:xpaths.(Rng.int rng (Array.length xpaths)) doc_id

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

(* K clients multiplexed over one transport (frames interleaved round-
   robin across logical channels, one shared card with a shared cache)
   must produce views byte-identical to serving each request alone on a
   fresh local card, with no APDU in between ({!World.golden}). *)
let qcheck_interleaved_equals_sequential =
  QCheck2.Test.make ~name:"pool interleaving = sequential serving"
    ~count:25 seed_gen (fun seed ->
      let w = Lazy.force world in
      let rng = Rng.create (Int64.of_int seed) in
      let k = 2 + Rng.int rng 5 in
      let reqs = List.init k (fun _ -> random_request rng) in
      let _, transport = fresh_transport w in
      let pool =
        Proxy.Pool.create ~store:(World.store w) ~transport ~subject:"u" ()
      in
      let served = Proxy.Pool.serve pool reqs in
      List.for_all2
        (fun req result ->
          match result with
          | Error e ->
              Alcotest.failf "pool request failed: %a" Proxy.pp_error e
          | Ok s -> s.Proxy.Pool.xml = World.golden w req)
        reqs served)

let test_pool_warm_reuse () =
  let w = Lazy.force world in
  let card, transport = fresh_transport w in
  let pool =
    Proxy.Pool.create ~store:(World.store w) ~transport ~subject:"u" ()
  in
  let req = Proxy.Request.make ~xpath:"//patient" "ward-1" in
  let first =
    match Proxy.Pool.serve pool [ req ] with
    | [ Ok s ] -> s
    | _ -> Alcotest.fail "first serve failed"
  in
  Alcotest.(check bool) "first serve is a cold setup" false
    first.Proxy.Pool.warm_setup;
  let second =
    match Proxy.Pool.serve pool [ req ] with
    | [ Ok s ] -> s
    | _ -> Alcotest.fail "second serve failed"
  in
  (* Channel state matches: no select/grant/rules/query re-upload. *)
  Alcotest.(check bool) "second serve reuses the primed channel" true
    second.Proxy.Pool.warm_setup;
  Alcotest.(check bool) "warm serve ships far fewer frames" true
    (second.Proxy.Pool.command_frames < first.Proxy.Pool.command_frames);
  Alcotest.(check (option string)) "same view" first.Proxy.Pool.xml
    second.Proxy.Pool.xml;
  (* And on the card side the prepared-evaluation cache fired. *)
  let stats = Card.cache_stats card in
  Alcotest.(check bool) "card cache hit" true (stats.Card.hits >= 1)

let test_pool_rejects_protect () =
  let w = Lazy.force world in
  let _, transport = fresh_transport w in
  let pool =
    Proxy.Pool.create ~store:(World.store w) ~transport ~subject:"u" ()
  in
  match Proxy.Pool.serve pool [ Proxy.Request.make ~protect:true "ward-1" ] with
  | [ Error (Proxy.Protocol _) ] -> ()
  | _ -> Alcotest.fail "expected a Protocol error for protect over APDU"

let test_run_equals_query () =
  let w = Lazy.force world in
  let proxy = Proxy.create ~store:(World.store w) ~card:(fresh_card w) in
  let via_run = Proxy.run proxy (Proxy.Request.make ~xpath:"//patient" "ward-1") in
  let via_query = Proxy.run proxy (Proxy.Request.make ~xpath:"//patient" "ward-1") in
  match (via_run, via_query) with
  | Ok a, Ok b ->
      Alcotest.(check (option string)) "wrapper = Request path" a.Proxy.xml
        b.Proxy.xml
  | _ -> Alcotest.fail "run/query disagree on success"

(* --- logical channels ------------------------------------------------- *)

let send transport ?(channel = 0) ins ?(p1 = 0) ?(p2 = 0) data =
  transport { Apdu.cla = Apdu.cla_of_channel channel; ins; p1; p2; data }

let sw (resp : Apdu.response) = (resp.Apdu.sw1, resp.Apdu.sw2)

let check_sw name expected resp =
  Alcotest.(check bool) name true (sw resp = expected)

(* MANAGE CHANNEL on the basic channel: open answers the assigned
   channel number, close names its target in p2. *)
let open_channel transport =
  let resp = send transport Remote.Ins.manage_channel "" in
  if sw resp = Remote.Sw.ok && String.length resp.Apdu.payload = 1 then
    Some (Char.code resp.Apdu.payload.[0])
  else None

let close_channel transport channel =
  sw (send transport Remote.Ins.manage_channel ~p1:0x80 ~p2:channel "")
  = Remote.Sw.ok

(* The cross-channel regression: a chained RULES upload in flight on one
   channel must be invisible to every other channel, and any RULES/QUERY
   frame on a channel with no document selected — first frame, final
   frame or stale continuation — is bad_state. *)
let test_cross_channel_chain_isolation () =
  let w = Lazy.force world in
  let _, transport = fresh_transport w in
  check_sw "select on basic channel" Remote.Sw.ok
    (send transport Remote.Ins.select "ward-1");
  check_sw "grant on basic channel" Remote.Sw.ok
    (send transport Remote.Ins.grant (stored_grant w "ward-1"));
  (* Start (and leave dangling) a rules chain on channel 0. *)
  check_sw "chain opened on channel 0" Remote.Sw.ok
    (send transport Remote.Ins.rules ~p1:1 ~p2:0 "first half ");
  (* Open a second channel; it has no selected document. *)
  let channel =
    match open_channel transport with
    | Some ch -> ch
    | None -> Alcotest.fail "open channel failed"
  in
  Alcotest.(check bool) "a fresh channel was assigned" true (channel > 0);
  (* Every shape of RULES frame on the never-SELECTed channel: bad_state —
     in particular the continuation must NOT splice into channel 0's
     chain. *)
  check_sw "continuation on fresh channel" Remote.Sw.bad_state
    (send transport ~channel Remote.Ins.rules ~p1:0 ~p2:1 "poison");
  check_sw "first frame on fresh channel" Remote.Sw.bad_state
    (send transport ~channel Remote.Ins.rules ~p1:1 ~p2:0 "poison");
  check_sw "query frame on fresh channel" Remote.Sw.bad_state
    (send transport ~channel Remote.Ins.query ~p1:0 ~p2:0 "//x");
  (* Channel 0's chain is unharmed: finish it and evaluate. *)
  let blob = stored_rules w "ward-1" in
  check_sw "select restarts channel 0 cleanly" Remote.Sw.ok
    (send transport Remote.Ins.select "ward-1");
  List.iter
    (fun (f : Apdu.command) ->
      check_sw "upload frame" Remote.Sw.ok (transport f))
    (Apdu.segment ~cla:Apdu.base_cla ~ins:Remote.Ins.rules blob);
  let resp = send transport Remote.Ins.evaluate "" in
  Alcotest.(check bool) "evaluate on channel 0 succeeds" true
    (sw resp = Remote.Sw.ok || resp.Apdu.sw1 = fst Remote.Sw.more_data);
  (* The fresh channel still works once it SELECTs for itself. *)
  check_sw "select on fresh channel" Remote.Sw.ok
    (send transport ~channel Remote.Ins.select "ward-2")

let test_channel_lifecycle () =
  let w = Lazy.force world in
  let _, transport = fresh_transport w in
  (* Exhaust the channel table. *)
  let opened =
    List.init (Apdu.max_channels - 1) (fun _ ->
        match open_channel transport with
        | Some ch -> ch
        | None -> Alcotest.fail "open channel failed")
  in
  Alcotest.(check (list int)) "channels assigned lowest-first" [ 1; 2; 3 ]
    opened;
  (match open_channel transport with
  | None -> ()
  | Some ch -> Alcotest.failf "fifth channel %d on a 4-slot table" ch);
  (* Frames to a closed channel bounce. *)
  Alcotest.(check bool) "close channel 2" true (close_channel transport 2);
  check_sw "frame on a closed channel" Remote.Sw.channel_closed
    (send transport ~channel:2 Remote.Ins.select "ward-1");
  (* The basic channel cannot be closed. *)
  Alcotest.(check bool) "basic channel stays open" false
    (close_channel transport 0);
  (* The freed slot is reusable. *)
  match open_channel transport with
  | Some 2 -> ()
  | Some ch -> Alcotest.failf "expected slot 2 back, got %d" ch
  | None -> Alcotest.fail "open channel failed"

(* --- prepared-evaluation cache ---------------------------------------- *)

let eval card source ~encrypted_rules ?query () =
  match Card.evaluate card source ~encrypted_rules ?query () with
  | Ok (outputs, report) -> (outputs, report)
  | Error e -> Alcotest.failf "evaluate failed: %a" Card.pp_error e

let parse q = Sdds_xpath.Parser.parse q

let test_cache_hit_skips_setup_costs () =
  let w = Lazy.force world in
  let card = fresh_card w in
  (match
     Card.install_wrapped_key card ~doc_id:"ward-1"
       ~wrapped:(stored_grant w "ward-1")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grant failed: %a" Card.pp_error e);
  let source = Option.get (World.resolve w "ward-1") in
  let encrypted_rules = stored_rules w "ward-1" in
  let o1, r1 = eval card source ~encrypted_rules () in
  let o2, r2 = eval card source ~encrypted_rules () in
  Alcotest.(check bool) "cold run" false r1.Card.prepared_hit;
  Alcotest.(check bool) "warm run" true r2.Card.prepared_hit;
  Alcotest.(check string) "byte-identical output stream"
    (Sdds_core.Output_codec.encode_list o1)
    (Sdds_core.Output_codec.encode_list o2);
  (* The warm run is charged neither the rule-blob transfer nor the
     automaton compilation nor the root RSA. *)
  Alcotest.(check bool) "warm run moves fewer bytes" true
    (r2.Card.breakdown.Cost.bytes_transferred
    < r1.Card.breakdown.Cost.bytes_transferred);
  Alcotest.(check (float 1e-9)) "no compile charge when warm" 0.0
    r2.Card.breakdown.Cost.compile_ms;
  Alcotest.(check bool) "cold run paid compilation" true
    (r1.Card.breakdown.Cost.compile_ms > 0.0);
  Alcotest.(check bool) "warm run skips the RSA verify" true
    (r2.Card.breakdown.Cost.rsa_ms < r1.Card.breakdown.Cost.rsa_ms)

let test_lru_eviction_stays_fresh () =
  let w = Lazy.force world in
  let source = Option.get (World.resolve w "ward-1") in
  let encrypted_rules = stored_rules w "ward-1" in
  (* One prepared entry per distinct query: more entries than the modern
     card's cache, a quarter of its RAM, can hold. *)
  let queries =
    Array.init 64 (fun i ->
        parse (Printf.sprintf "//patient[age>\"%d\"]/name" i))
  in
  let n = Array.length queries in
  let install card =
    match
      Card.install_wrapped_key card ~doc_id:"ward-1"
        ~wrapped:(stored_grant w "ward-1")
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "grant failed: %a" Card.pp_error e
  in
  (* Record every view on a fleet card, whose cache holds all the
     entries, then replay on the modern card, whose cache does not. *)
  let probe = Card.create ~profile:Cost.fleet ~subject:"u" (World.user w) in
  install probe;
  let reference =
    Array.map
      (fun q ->
        let o, _ = eval probe source ~encrypted_rules ~query:q () in
        Sdds_core.Output_codec.encode_list o)
      queries
  in
  let full = (Card.cache_stats probe).Card.resident_bytes in
  Alcotest.(check int) "every entry resident on the fleet card" n
    (Card.cache_stats probe).Card.entries;
  let card = fresh_card w in
  install card;
  Alcotest.(check bool) "the entries overflow the modern card's cache" true
    (full > (Card.cache_stats card).Card.cache_budget_bytes);
  let run i =
    let o, _ = eval card source ~encrypted_rules ~query:queries.(i) () in
    Alcotest.(check string)
      (Printf.sprintf "query %d view is never stale" i)
      reference.(i)
      (Sdds_core.Output_codec.encode_list o)
  in
  for i = 0 to n - 1 do
    run i
  done;
  (* Admitting the later entries displaced the least-recently-used ones. *)
  let s = Card.cache_stats card in
  Alcotest.(check bool) "LRU displacement happened" true
    (s.Card.evictions >= 1);
  Alcotest.(check bool) "cache stayed within budget" true
    (s.Card.resident_bytes <= s.Card.cache_budget_bytes);
  let misses_before = (Card.cache_stats card).Card.misses in
  (* The evicted (oldest) entry must re-prepare, and still be correct. *)
  run 0;
  Alcotest.(check bool) "evicted entry re-prepares as a miss" true
    ((Card.cache_stats card).Card.misses > misses_before)

(* A cache hit never costs a verdict. On the e-gate, the whole of a
   200-tag document is served at 868 of 1,024 B, and two narrow queries
   then leave their prepared entries resident. The entry in use is the
   evaluator's own state, and the card evicts other entries before it
   refuses, so each request is served with the view a fresh card
   gives. *)
let test_cache_never_costs_a_verdict () =
  let drbg = Drbg.create ~seed:"session-wide" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let doc =
    Dom.element "root"
      (List.init 200 (fun i ->
           Dom.element (Printf.sprintf "t%d" i) [ Dom.text "x" ]))
  in
  let w =
    World.create drbg ~publisher ~user
      [ ("wide", doc, [ Rule.allow ~subject:"u" "//root" ]) ]
  in
  let card = Card.create ~profile:Cost.egate ~subject:"u" user in
  let proxy = Proxy.create ~store:(World.store w) ~card in
  let serve xpath =
    let name = Option.value ~default:"no query" xpath in
    let r = Proxy.Request.make ?xpath "wide" in
    match Proxy.run proxy r with
    | Ok o ->
        Alcotest.(check (option string)) name (World.golden w r) o.Proxy.xml
    | Error e -> Alcotest.failf "%s: %a" name Proxy.pp_error e
  in
  List.iter serve [ None; Some "//t0"; Some "//t1"; Some "//t2"; None ];
  (* Three entries are resident. [//root/*] is charged 892 B, more than
     the RAM less its two companions leaves: admitting its entry evicts
     one, and the evaluation evicts one more. *)
  let before = Card.cache_stats card in
  serve (Some "//root/*");
  let after = Card.cache_stats card in
  Alcotest.(check int) "admission and evaluation each evict one"
    (before.Card.evictions + 2) after.Card.evictions;
  Alcotest.(check int) "one companion stays" 2 after.Card.entries

let test_cache_respects_rollback () =
  let w = Lazy.force world in
  let card = fresh_card w in
  (match
     Card.install_wrapped_key card ~doc_id:"ward-1"
       ~wrapped:(stored_grant w "ward-1")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grant failed: %a" Card.pp_error e);
  let source = Option.get (World.resolve w "ward-1") in
  let v0 = stored_rules w "ward-1" in
  let drbg = Drbg.create ~seed:"rollback-blobs" in
  let v1 =
    Publish.encrypt_rules_for drbg ~publisher:(World.publisher w)
      ~doc_key:(World.doc_key w "ward-1")
      ~doc_id:"ward-1" ~subject:"u" ~version:1
      [ Rule.allow ~subject:"u" "//patient/name" ]
  in
  let _ = eval card source ~encrypted_rules:v0 () in
  let _, r = eval card source ~encrypted_rules:v0 () in
  Alcotest.(check bool) "v0 is cached" true r.Card.prepared_hit;
  let _ = eval card source ~encrypted_rules:v1 () in
  (* v0's prepared entry is still resident — but serving it now would
     undo the version bump. The hit path must drop it and refuse. *)
  (match Card.evaluate card source ~encrypted_rules:v0 () with
  | Error (Card.Replayed_rules { seen = 1; offered = 0 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Card.pp_error e
  | Ok _ -> Alcotest.fail "cached stale policy was served after a bump");
  (* The cache survives the incident and still serves the new version. *)
  let _, r1 = eval card source ~encrypted_rules:v1 () in
  Alcotest.(check bool) "v1 still warm after the replay attempt" true
    r1.Card.prepared_hit

(* --- status-word mapping ---------------------------------------------- *)

let constructor_name = function
  | Card.No_key _ -> "No_key"
  | Card.Stale_key _ -> "Stale_key"
  | Card.Bad_grant -> "Bad_grant"
  | Card.Bad_signature -> "Bad_signature"
  | Card.Integrity_failure _ -> "Integrity_failure"
  | Card.Memory_exceeded _ -> "Memory_exceeded"
  | Card.Bad_rules _ -> "Bad_rules"
  | Card.Replayed_rules _ -> "Replayed_rules"

let error_gen =
  QCheck2.Gen.(
    oneof
      [
        return (Card.No_key "doc");
        return (Card.Stale_key "doc");
        return Card.Bad_grant;
        return Card.Bad_signature;
        map (fun chunk -> Card.Integrity_failure { chunk }) (int_bound 1000);
        map2
          (fun need_bytes budget_bytes ->
            Card.Memory_exceeded { need_bytes; budget_bytes })
          (int_bound 10_000) (int_bound 10_000);
        map (fun s -> Card.Bad_rules s) (string_size (int_bound 8));
        map2
          (fun seen offered -> Card.Replayed_rules { seen; offered })
          (int_bound 100) (int_bound 100);
      ])

let qcheck_sw_roundtrip =
  QCheck2.Test.make ~name:"status words round-trip every card error"
    ~count:200 error_gen (fun e ->
      let sw = Remote.to_sw e in
      match Remote.of_sw ~doc_id:"doc" sw with
      | None -> false
      | Some e' ->
          (* The constructor always survives; the word re-encodes
             identically; and when the payload is representable on the
             wire (chunk < 256, ids supplied from context) the value
             itself round-trips. *)
          String.equal (constructor_name e) (constructor_name e')
          && Remote.to_sw e' = sw
          &&
          match e with
          | Card.No_key _ | Card.Stale_key _ | Card.Bad_grant
          | Card.Bad_signature ->
              e = e'
          | Card.Integrity_failure { chunk } when chunk < 256 -> e = e'
          | _ -> true)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_interleaved_equals_sequential;
    Alcotest.test_case "pool warm reuse" `Quick test_pool_warm_reuse;
    Alcotest.test_case "pool rejects protect" `Quick test_pool_rejects_protect;
    Alcotest.test_case "run = query wrapper" `Quick test_run_equals_query;
    Alcotest.test_case "cross-channel chain isolation" `Quick
      test_cross_channel_chain_isolation;
    Alcotest.test_case "channel lifecycle" `Quick test_channel_lifecycle;
    Alcotest.test_case "cache hit skips setup costs" `Quick
      test_cache_hit_skips_setup_costs;
    Alcotest.test_case "LRU eviction stays fresh" `Quick
      test_lru_eviction_stays_fresh;
    Alcotest.test_case "a cache hit never costs a verdict" `Quick
      test_cache_never_costs_a_verdict;
    Alcotest.test_case "cache respects rollback" `Quick
      test_cache_respects_rollback;
    QCheck_alcotest.to_alcotest qcheck_sw_roundtrip;
  ]
