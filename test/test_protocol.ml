(* The protocol model checker: the production configuration must verify
   clean, the preserved pre-fix fixture must yield the PR 6 wraparound
   hole as a minimized replayable counterexample, and every emitted
   counterexample must survive two replays — deterministically on the
   model, and as a fault schedule on the real (fixed) stack, where
   soundness demands the exact golden view or a typed error. *)

module Model = Sdds_protocol.Model
module Explore = Sdds_protocol.Explore
module Invariant = Sdds_protocol.Invariant
module Cex = Sdds_protocol.Cex
module Protocol = Sdds_soe.Protocol
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Remote = Sdds_soe.Remote_card
module Fault = Sdds_fault.Fault
module Proxy = Sdds_proxy.Proxy
module World = Sdds_proxy.World
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

(* ------------------------------------------------------------------ *)
(* Model-level checking                                                 *)
(* ------------------------------------------------------------------ *)

let test_current_protocol_clean () =
  let r = Explore.run ~depth:12 Model.current in
  (match r.Explore.cex with
  | None -> ()
  | Some c ->
      Alcotest.failf "unexpected violation: %a" Invariant.pp_violation
        c.Cex.violation);
  Alcotest.(check bool) "explored a real space" true (r.Explore.stats.Explore.expanded > 50);
  Alcotest.(check bool) "reached clean terminals" true
    (r.Explore.stats.Explore.terminal_ok > 0);
  Alcotest.(check bool) "not truncated" false r.Explore.stats.Explore.truncated

let test_rollback_refused_without_violation () =
  (* Two exchanges, version 2 then version 1: the card must refuse the
     rollback as a typed failure — which is NOT an invariant violation,
     while actually enforcing version 1 would be. *)
  let config = { Model.current with Model.versions = [ 2; 1 ] } in
  let r = Explore.run ~depth:16 config in
  (match r.Explore.cex with
  | None -> ()
  | Some c ->
      Alcotest.failf "unexpected violation: %a" Invariant.pp_violation
        c.Cex.violation);
  Alcotest.(check bool) "rollback surfaced as typed failure" true
    (r.Explore.stats.Explore.terminal_failed > 0)

(* Reconstruct the per-frame adversary choices a counterexample encodes,
   so it can be pushed back through the deterministic model replay. *)
let choices_of_cex (c : Cex.t) =
  List.init c.Cex.steps (fun i ->
      Option.map
        (fun e -> e.Fault.kind)
        (List.find_opt (fun e -> e.Fault.frame = i) c.Cex.events))

let check_cex_well_formed config (c : Cex.t) =
  (* The spec must re-parse: it is the contract with --fault-spec. *)
  (match Fault.Schedule.of_spec c.Cex.spec with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "cex spec %S does not re-parse: %s" c.Cex.spec
        (Fault.Schedule.string_of_parse_error e));
  (* And the schedule must deterministically reproduce a violation. *)
  match Explore.replay config (choices_of_cex c) with
  | Some _ -> ()
  | None -> Alcotest.failf "cex %S does not replay to a violation" c.Cex.spec

let test_prefix_wrap_hole_found () =
  let r = Explore.run ~depth:12 Model.pre_fix in
  match r.Explore.cex with
  | None -> Alcotest.fail "checker missed the pre-fix wraparound hole"
  | Some c ->
      Alcotest.(check bool) "exactly-once violated" true
        (c.Cex.violation.Invariant.which = Invariant.Exactly_once);
      Alcotest.(check bool) "a duplicated frame is the trigger" true
        (List.exists
           (fun e -> e.Fault.kind = Fault.Duplicate_command)
           c.Cex.events);
      Alcotest.(check bool) "minimized to a single fault" true
        (List.length c.Cex.events = 1);
      Alcotest.(check int) "trace narrates every frame" c.Cex.steps
        (List.length c.Cex.trace);
      check_cex_well_formed Model.pre_fix c

let test_prefix_single_frame_hole_found () =
  (* The same marker flaw at its smallest shape: a one-frame chain whose
     final (only) frame carries sequence 0, so the completion marker is
     never recognized and a duplicate re-executes the upload. *)
  let config = { Model.pre_fix with Model.rules_frames = 1 } in
  let r = Explore.run ~depth:8 config in
  match r.Explore.cex with
  | None -> Alcotest.fail "checker missed the single-frame duplicate hole"
  | Some c ->
      Alcotest.(check bool) "exactly-once violated" true
        (c.Cex.violation.Invariant.which = Invariant.Exactly_once);
      check_cex_well_formed config c

(* ------------------------------------------------------------------ *)
(* Real-stack replay                                                    *)
(* ------------------------------------------------------------------ *)

(* One world: a published ward document with rules bulky enough that a
   1-byte-per-frame upload spans the full 256-frame sequence window. *)
let doc_id = "ward"

let world =
  lazy
    (let drbg = Drbg.create ~seed:"protocol-check" in
     let publisher = Rsa.generate drbg ~bits:512 in
     let user = Rsa.generate drbg ~bits:512 in
     World.create drbg ~publisher ~user
       [ ( doc_id,
           Generator.hospital (Rng.create 23L) ~patients:5,
           [
             Rule.allow ~subject:"u" "//patient";
             Rule.deny ~subject:"u" "//ssn";
             Rule.deny ~subject:"u" "//patient/billing";
             Rule.allow ~subject:"u" "//patient/treatment";
             Rule.allow ~subject:"u" "//patient/treatment/medication";
             Rule.allow ~subject:"u" "//patient/treatment/procedure";
             Rule.deny ~subject:"u" "//patient/billing/insurance";
             Rule.deny ~subject:"u" "//patient/billing/account";
           ] ) ])

let fresh_host ?semantics w =
  let card = Card.create ~profile:Cost.modern ~subject:"u" (World.user w) in
  Remote.Host.create ?semantics ~card ~resolve:(World.resolve w) ()

let stored_rules w =
  Option.get (Store.get_rules (World.store w) ~doc_id ~subject:"u")

let stored_grant w =
  Option.get (Store.get_grant (World.store w) ~doc_id ~subject:"u")

(* One request on a fresh pool: it runs alone on the basic channel, so
   the frames a fault schedule counts are SELECT, GRANT, RULES…,
   EVALUATE and GET RESPONSE…. *)
let lone_request w transport =
  let pool =
    Proxy.Pool.create ~store:(World.store w) ~transport ~subject:"u" ()
  in
  match Proxy.Pool.serve pool [ Proxy.Request.make doc_id ] with
  | [ r ] -> Result.map (fun s -> s.Proxy.Pool.xml) r
  | _ -> assert false

(* Upload [blob] as exactly 257 chained frames — 256 single-byte frames
   and a final frame with the remainder — so the final frame's sequence
   number wraps to 0 mod 256: the shape where the pre-fix completion
   marker and a wrapped final frame collide. Returns the final frame. *)
let wrap_upload send blob =
  let frames = 257 in
  let final =
    ref { Apdu.cla = 0x80; ins = Remote.Ins.rules; p1 = 0; p2 = 0; data = "" }
  in
  for i = 0 to frames - 1 do
    let last = i = frames - 1 in
    let cmd =
      {
        Apdu.cla = 0x80;
        ins = Remote.Ins.rules;
        p1 = (if last then 0 else 1);
        p2 = i mod 256;
        data =
          (if last then String.sub blob i (String.length blob - i)
           else String.make 1 blob.[i]);
      }
    in
    final := cmd;
    let resp = send cmd in
    if (resp.Apdu.sw1, resp.Apdu.sw2) <> Remote.Sw.ok then
      Alcotest.failf "upload frame %d refused: sw %02X%02X" i resp.Apdu.sw1
        resp.Apdu.sw2
  done;
  !final

let test_real_host_wrap_discrimination () =
  (* The model's wraparound counterexample, replayed frame-for-frame on
     the real host under both marker semantics: under the production
     Identity_marker a duplicated wrapped final frame is acknowledged
     idempotently; under the preserved P2_marker semantics the duplicate
     opens a fresh chain and re-executes the upload on the stray final
     fragment, clobbering the pending rules — the exactly-once violation
     made observable when the card then fails to evaluate them. *)
  let w = Lazy.force world in
  let blob = stored_rules w in
  Alcotest.(check bool) "rules blob spans the sequence window" true
    (String.length blob > 256);
  let run semantics =
    let host = fresh_host ~semantics w in
    let send = Remote.Host.process host in
    let ok (r : Apdu.response) = (r.Apdu.sw1, r.Apdu.sw2) = Remote.Sw.ok in
    let sel =
      send { Apdu.cla = 0x80; ins = Remote.Ins.select; p1 = 0; p2 = 0; data = doc_id }
    in
    Alcotest.(check bool) "select ok" true (ok sel);
    let grant =
      send
        { Apdu.cla = 0x80; ins = Remote.Ins.grant; p1 = 0; p2 = 0;
          data = stored_grant w }
    in
    Alcotest.(check bool) "grant ok" true (ok grant);
    let final = wrap_upload send blob in
    Alcotest.(check int) "final frame wrapped to sequence 0" 0 final.Apdu.p2;
    (* The adversary's move: duplicate the wrapped final frame, then ask
       the card to evaluate what it holds. *)
    let dup = send final in
    Alcotest.(check bool) "duplicate acked" true (ok dup);
    let ev =
      send
        { Apdu.cla = 0x80; ins = Remote.Ins.evaluate; p1 = 0; p2 = 0; data = "" }
    in
    ok ev || ev.Apdu.sw1 = fst Remote.Sw.more_data
  in
  Alcotest.(check bool) "fixed host: duplicate is idempotent, view intact"
    true
    (run Protocol.Identity_marker);
  Alcotest.(check bool)
    "pre-fix host: duplicate re-executed the stray fragment as a fresh \
     upload, clobbering the rules"
    false
    (run Protocol.P2_marker)

(* Every checker-emitted counterexample, pushed through the real FIXED
   stack as a --fault-spec schedule, must leave soundness intact: the
   pool ends with the exact fault-free view or a typed error, never a
   stitched or truncated one. Configurations are drawn around the
   pre-fix fixture so the checker actually emits counterexamples. *)
let qcheck_cex_replays_sound_on_fixed_stack =
  QCheck2.Test.make
    ~name:"checker counterexamples replay soundly on the fixed stack"
    ~count:15
    QCheck2.Gen.(
      let* frames = 1 -- 6 in
      let* budget = 1 -- 2 in
      let* with_query = bool in
      return (frames, budget, with_query))
    (fun (frames, budget, with_query) ->
      let config =
        {
          Model.pre_fix with
          Model.rules_frames = frames;
          fault_budget = budget;
          with_query;
        }
      in
      match (Explore.run ~max_states:50_000 ~depth:14 config).Explore.cex with
      | None -> true (* not every shape wraps; nothing to replay *)
      | Some c -> (
          (match Fault.Schedule.of_spec c.Cex.spec with
          | Ok _ -> ()
          | Error e ->
              QCheck2.Test.fail_reportf "spec %S does not re-parse: %s"
                c.Cex.spec
                (Fault.Schedule.string_of_parse_error e));
          let w = Lazy.force world in
          let golden =
            match lone_request w (Remote.Host.process (fresh_host w)) with
            | Ok xml -> xml
            | Error e -> QCheck2.Test.fail_reportf "%a" Proxy.pp_error e
          in
          let host = fresh_host w in
          let link =
            Fault.Link.wrap
              ~schedule:(Fault.Schedule.of_events c.Cex.events)
              ~tear:(fun () -> Remote.Host.tear host)
              (Remote.Host.process host)
          in
          match lone_request w (Fault.Link.transport link) with
          | Error _ -> true (* a typed error is a sound outcome *)
          | Ok xml -> xml = golden))

let suite =
  [
    Alcotest.test_case "current protocol checks clean" `Quick
      test_current_protocol_clean;
    Alcotest.test_case "rollback refused without violation" `Quick
      test_rollback_refused_without_violation;
    Alcotest.test_case "pre-fix wrap hole found" `Quick
      test_prefix_wrap_hole_found;
    Alcotest.test_case "pre-fix single-frame hole found" `Quick
      test_prefix_single_frame_hole_found;
    Alcotest.test_case "real host wrap discrimination" `Quick
      test_real_host_wrap_discrimination;
    QCheck_alcotest.to_alcotest qcheck_cex_replays_sound_on_fixed_stack;
  ]
