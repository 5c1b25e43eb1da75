(* The chaos soak harness behind [sdds chaos]: a seeded, replayable
   campaign of card kills, revives, resizes and tears interleaved with
   frame-level faults against a steady request stream, continuously
   checked against the fault-free golden view. See chaos.mli. *)

module Apdu = Sdds_soe.Apdu
module Fault = Sdds_fault.Fault
module Obs = Sdds_obs.Obs

type card_stack = {
  cutout : Fault.Cutout.t;
  link : Fault.Link.t;
  tear : unit -> unit;
}

type divergence = {
  index : int;
  doc_id : string;
  xpath : string option;
  got : string option;
  expected : string option;
}

type report = {
  requests : int;
  ok : int;
  rejected : int;
  errors : (int * string * Proxy.error) list;
  divergences : divergence list;
  convergence_failures : divergence list;
  injected : int;
  kills : int;
  stats : Fleet.stats;
}

let xml_of (served : Proxy.Pool.served) = served.Proxy.Pool.xml

(* A fleet of [cards] cards, each behind the same fault stack, outside
   in: [Cutout] (a killed card answers the transport word regardless of
   the frame schedule) over [Fault.Link] (seeded frame faults, salted
   per card) over the raw host transport. [faults_on] switches the
   frame-fault layer only, never the cutout: dead is dead. A request may
   be re-routed twice. Returns the fleet, the stacks by card index, and a
   hook that grows the fleet by one stacked card. *)
let fault_fleet ?obs ?queue_limit ~standby_k ~faults_on ~schedule ~make_card
    ~cards ~store ~subject () =
  let stacks = ref [] in
  let make_stack i =
    let raw, tear = make_card () in
    let link =
      Fault.Link.wrap ?obs ~schedule:(Fault.Schedule.for_card schedule i)
        ~tear raw
    in
    let cutout = Fault.Cutout.create () in
    stacks := (i, { cutout; link; tear }) :: !stacks;
    let faulty = Fault.Link.transport link in
    fun cmd ->
      Fault.Cutout.wrap cutout (if !faults_on then faulty else raw) cmd
  in
  let fleet =
    Fleet.create ?obs ?queue_limit ~max_reroutes:2 ~standby_k ~store ~subject
      (Array.init cards make_stack)
  in
  let add_card () =
    ignore (Fleet.add_card fleet (make_stack (Fleet.card_count fleet)))
  in
  (fleet, stacks, add_card)

(* One deterministic soak. The gate drops the frame-fault layer — never
   the cutout — for the convergence phase. *)
let run ?obs ?(cards = 3) ?(standby_k = 2) ~store ~subject ~make_card
    ~golden ~schedule ~campaign requests =
  let faults_on = ref true in
  let fleet, stacks, add_card =
    fault_fleet ?obs ~standby_k ~faults_on ~schedule ~make_card ~cards ~store
      ~subject ()
  in
  let apply = function
    | Fault.Campaign.Kill c -> (
        match List.assoc_opt c !stacks with
        | Some s ->
            (* Power loss: volatile sessions die with the link. *)
            s.tear ();
            Fault.Cutout.kill s.cutout
        | None -> ())
    | Fault.Campaign.Revive c -> (
        match List.assoc_opt c !stacks with
        | Some s ->
            Fault.Cutout.revive s.cutout;
            if c < Fleet.card_count fleet && Fleet.state fleet c = Fleet.Dead
            then Fleet.revive_card fleet c
        | None -> ())
    | Fault.Campaign.Add_card -> add_card ()
    | Fault.Campaign.Remove_card c ->
        if c < Fleet.card_count fleet then Fleet.remove_card fleet c
    | Fault.Campaign.Tear c -> (
        match List.assoc_opt c !stacks with Some s -> s.tear () | None -> ())
  in
  (* Admission loop: one request and one scheduler turn per tick — a
     steady stream with real concurrency, so campaign events land while
     earlier requests are genuinely in flight. Events at position [i]
     fire just before request [i] is admitted. *)
  let pending = ref (Fault.Campaign.events campaign) in
  let fire_until i =
    let rec go () =
      match !pending with
      | { Fault.Campaign.at; action } :: rest when at <= i ->
          pending := rest;
          apply action;
          go ()
      | _ -> ()
    in
    go ()
  in
  let streams =
    List.mapi
      (fun i req ->
        fire_until i;
        let st = Fleet.start fleet req in
        Fleet.turn fleet;
        (i, req, st))
      requests
  in
  fire_until max_int;
  while
    List.exists (fun (_, _, st) -> Fleet.result st = None) streams
  do
    Fleet.turn fleet
  done;
  (* Differential: every completed request is the golden view or a
     typed error — never a wrong view, never a hang. *)
  let ok = ref 0 and rejected = ref 0 in
  let errors = ref [] and divergences = ref [] in
  List.iter
    (fun (i, (req : Proxy.Request.t), st) ->
      match (Option.get (Fleet.result st)).Fleet.result with
      | Ok served ->
          incr ok;
          let expected = golden req in
          let got = xml_of served in
          if got <> expected then
            divergences :=
              {
                index = i;
                doc_id = req.Proxy.Request.doc_id;
                xpath = req.Proxy.Request.xpath;
                got;
                expected;
              }
              :: !divergences
      | Error Proxy.Overloaded -> incr rejected
      | Error e -> errors := (i, req.Proxy.Request.doc_id, e) :: !errors)
    streams;
  (* Convergence: with frame faults off (cutouts stay — dead is dead),
     one clean pass over the distinct requests must reproduce the golden
     views exactly, provided a live card remains. *)
  faults_on := false;
  let convergence_failures = ref [] in
  let any_live =
    Array.exists
      (function Fleet.Up | Fleet.Joining -> true | _ -> false)
      (Fleet.stats fleet).Fleet.states
  in
  if any_live then begin
    let distinct =
      List.sort_uniq compare
        (List.map
           (fun (r : Proxy.Request.t) ->
             (r.Proxy.Request.doc_id, r.Proxy.Request.xpath))
           requests)
    in
    List.iteri
      (fun i (doc_id, xpath) ->
        let req = Proxy.Request.make ?xpath doc_id in
        match Fleet.serve fleet [ req ] with
        | [ { Fleet.result = Ok served; _ } ]
          when xml_of served = golden req ->
            ()
        | [ { Fleet.result; _ } ] ->
            convergence_failures :=
              {
                index = i;
                doc_id;
                xpath;
                got =
                  (match result with
                  | Ok served -> xml_of served
                  | Error _ -> None);
                expected = golden req;
              }
              :: !convergence_failures
        | _ -> assert false)
      distinct
  end;
  let injected =
    List.fold_left (fun n (_, s) -> n + Fault.Link.injected s.link) 0 !stacks
  in
  let kills =
    List.fold_left (fun n (_, s) -> n + Fault.Cutout.kills s.cutout) 0 !stacks
  in
  {
    requests = List.length requests;
    ok = !ok;
    rejected = !rejected;
    errors = List.rev !errors;
    divergences = List.rev !divergences;
    convergence_failures = List.rev !convergence_failures;
    injected;
    kills;
    stats = Fleet.stats fleet;
  }

let diverged r = r.divergences <> [] || r.convergence_failures <> []

(* ------------------------------------------------------------------ *)
(* Phased SLO run: the same fleet-under-faults shape as [run], but the
   deliverable is burn-rate verdicts per phase rather than a
   differential. steady — clean traffic; churn — the busiest card is
   killed at phase start; recovered — every cutout is revived. The SLO
   engine ticks on fleet-simulated time (max per-card link seconds), so
   windows are milliseconds of simulated time and the whole run is
   deterministic.                                                      *)
(* ------------------------------------------------------------------ *)

type slo_phase = {
  sp_phase : string;
  sp_requests : int;
  sp_ok : int;
  sp_rejected : int;
  sp_errors : int;
  sp_ticks : int;
  sp_breach_ticks : int;  (* ticks during the phase with any objective in breach *)
  sp_peak_fast_burn : (string * float) list;  (* per objective, over the phase *)
  sp_verdicts : Obs.Slo.verdict list;  (* at phase end *)
  sp_now_ns : int64;  (* simulated time at phase end *)
}

let breached p = p.sp_breach_ticks > 0

let slo_phase_json p =
  let verdicts = List.map Obs.Slo.verdict_json p.sp_verdicts in
  let peaks =
    List.map
      (fun (n, b) -> Printf.sprintf "{\"name\":%s,\"peak_fast_burn\":%.3f}"
          (Obs.json_string n) b)
      p.sp_peak_fast_burn
  in
  Printf.sprintf
    "{\"phase\":%s,\"requests\":%d,\"ok\":%d,\"rejected\":%d,\"errors\":%d,\"ticks\":%d,\"breach_ticks\":%d,\"breached\":%b,\"now_ns\":%Ld,\"peak_burns\":[%s],\"verdicts\":[%s]}"
    (Obs.json_string p.sp_phase) p.sp_requests p.sp_ok p.sp_rejected
    p.sp_errors p.sp_ticks p.sp_breach_ticks (breached p) p.sp_now_ns
    (String.concat "," peaks)
    (String.concat "," verdicts)

let run_slo ?(cards = 3) ?(batch = 3)
    ?(churn_fault_seed = 1042L) ?(churn_fault_rate = 0.12)
    ?(availability_target = 99.0) ?(latency_target = 95.0)
    ?(latency_threshold_us = 4095) ?(fast_window_ns = 2_000_000L)
    ?(slow_window_ns = 12_000_000L) ?(burn_threshold = 1.0) ~obs ~store
    ~subject ~make_card ~requests () =
  (* Frame faults are the churn phase's signature: the schedule is armed
     only while the killed card's load is being redistributed, so the
     availability burn is attributable to the incident. *)
  let schedule =
    Fault.Schedule.random ~seed:churn_fault_seed ~rate:churn_fault_rate ()
  in
  let faults_on = ref false in
  let fleet, stacks, _ =
    fault_fleet ~obs ~queue_limit:16 ~standby_k:2 ~faults_on ~schedule
      ~make_card ~cards ~store ~subject ()
  in
  let slo = Obs.Slo.create obs.Obs.metrics in
  Obs.Slo.register slo ~name:"availability" ~target_pct:availability_target
    ~fast_ns:fast_window_ns ~slow_ns:slow_window_ns ~burn_threshold
    (Obs.Slo.Availability { good = "fleet.ok"; total = "fleet.requests" });
  Obs.Slo.register slo ~name:"latency" ~target_pct:latency_target
    ~fast_ns:fast_window_ns ~slow_ns:slow_window_ns ~burn_threshold
    (Obs.Slo.Latency
       { histogram = "fleet.latency_us"; threshold = latency_threshold_us });
  (* Simulated now: the fleet's furthest-ahead card clock, in ns. Max is
     monotone, so SLO windows see time that only moves forward. *)
  let now_ns () =
    let m = ref 0.0 in
    for c = 0 to Fleet.card_count fleet - 1 do
      m := Float.max !m (Fleet.clock fleet c)
    done;
    Int64.of_float (!m *. 1e9)
  in
  let kill_busiest () =
    let stats = Fleet.stats fleet in
    let best = ref (-1) and best_n = ref (-1) in
    Array.iteri
      (fun c n ->
        if
          c < Array.length stats.Fleet.states
          && stats.Fleet.states.(c) = Fleet.Up
          && n > !best_n
        then begin
          best := c;
          best_n := n
        end)
      stats.Fleet.served_by;
    match List.assoc_opt !best !stacks with
    | Some s ->
        s.tear ();
        Fault.Cutout.kill s.cutout;
        !best
    | None -> -1
  in
  let revive_all () =
    List.iter
      (fun (c, s) ->
        Fault.Cutout.revive s.cutout;
        if c < Fleet.card_count fleet && Fleet.state fleet c = Fleet.Dead then
          Fleet.revive_card fleet c)
      !stacks
  in
  let run_phase name reqs =
    faults_on := name = "churn";
    (match name with
    | "churn" -> ignore (kill_busiest ())
    | "recovered" -> revive_all ()
    | _ -> ());
    let ticks = ref 0 and breach_ticks = ref 0 in
    let peaks = Hashtbl.create 4 in
    let outcomes = ref [] in
    let rec batches = function
      | [] -> ()
      | rs ->
          let now, rest =
            let rec take k acc = function
              | r :: tl when k > 0 -> take (k - 1) (r :: acc) tl
              | tl -> (List.rev acc, tl)
            in
            take (max 1 batch) [] rs
          in
          let sts = List.map (Fleet.start fleet) now in
          while List.exists (fun st -> Fleet.result st = None) sts do
            Fleet.turn fleet
          done;
          outcomes :=
            List.rev_append (List.map (fun st -> Option.get (Fleet.result st)) sts)
              !outcomes;
          let at = now_ns () in
          Obs.Slo.tick ~now:at slo;
          let verdicts = Obs.Slo.evaluate ~now:at slo in
          incr ticks;
          if List.exists (fun v -> v.Obs.Slo.breach) verdicts then
            incr breach_ticks;
          List.iter
            (fun v ->
              let prev =
                Option.value ~default:0.0
                  (Hashtbl.find_opt peaks v.Obs.Slo.name)
              in
              Hashtbl.replace peaks v.Obs.Slo.name
                (Float.max prev v.Obs.Slo.fast_burn))
            verdicts;
          batches rest
    in
    batches reqs;
    let ok, rejected, errors =
      List.fold_left
        (fun (ok, rej, err) (o : Fleet.outcome) ->
          match o.Fleet.result with
          | Ok _ -> (ok + 1, rej, err)
          | Error Proxy.Overloaded -> (ok, rej + 1, err)
          | Error _ -> (ok, rej, err + 1))
        (0, 0, 0) !outcomes
    in
    let verdicts = Obs.Slo.evaluate ~now:(now_ns ()) slo in
    {
      sp_phase = name;
      sp_requests = List.length reqs;
      sp_ok = ok;
      sp_rejected = rejected;
      sp_errors = errors;
      sp_ticks = !ticks;
      sp_breach_ticks = !breach_ticks;
      sp_peak_fast_burn =
        List.map
          (fun v ->
            ( v.Obs.Slo.name,
              Option.value ~default:0.0
                (Hashtbl.find_opt peaks v.Obs.Slo.name) ))
          verdicts;
      sp_verdicts = verdicts;
      sp_now_ns = now_ns ();
    }
  in
  List.map
    (fun phase -> run_phase phase (requests phase))
    [ "steady"; "churn"; "recovered" ]

(* Greedy minimization: drop campaign events one at a time while the
   failure reproduces, then shorten the request stream from the back.
   [rerun] rebuilds the whole world (fresh cards, fresh fleet) for every
   candidate — determinism is what makes this sound, and what makes the
   minimized (campaign, request-count) pair replayable as a spec. *)
let minimize ~rerun campaign ~requests =
  let still_fails c n = diverged (rerun c n) in
  let events = ref (Fault.Campaign.events campaign) in
  let n = ref requests in
  let shrunk = ref true in
  while !shrunk do
    shrunk := false;
    (* one pass of single-event removal *)
    let rec pass kept = function
      | [] -> ()
      | ev :: rest ->
          let candidate =
            Fault.Campaign.of_events (List.rev_append kept rest)
          in
          if still_fails candidate !n then begin
            events := Fault.Campaign.events candidate;
            shrunk := true;
            pass kept rest
          end
          else pass (ev :: kept) rest
    in
    pass [] !events;
    (* halve the stream while the failure survives *)
    let rec cut () =
      let half = !n / 2 in
      if half >= 10 && still_fails (Fault.Campaign.of_events !events) half
      then begin
        n := half;
        shrunk := true;
        cut ()
      end
    in
    cut ()
  done;
  (Fault.Campaign.of_events !events, !n)
