(** The chaos soak harness: fleet survivability under a seeded,
    replayable campaign.

    One {!run} drives a steady request stream through a {!Fleet} while a
    {!Sdds_fault.Fault.Campaign} kills, revives, adds, drains and tears
    cards at pinned request indices and a
    {!Sdds_fault.Fault.Schedule} faults individual frames — then holds
    every completed request to the fault-free golden view. The
    differential invariant is the fleet one, extended across churn:
    every request ends in the {e exact} authorized view or one typed
    {!Proxy.error}; a wrong view is a divergence, full stop. After the
    stream drains, a convergence pass with frame faults disabled (dead
    cards stay dead) must reproduce every distinct golden view — the
    fleet is not merely failing safe, it has recovered.

    Everything is deterministic in the (campaign, schedule, request
    stream) triple, which is what makes {!minimize} sound: a divergence
    shrinks, by re-running fresh worlds, to a minimal replayable
    campaign and stream length — the [--campaign]/[--fault-spec] pair
    [sdds chaos --replay] accepts. *)

(** One wrong view: request [index] of the stream produced [got] where
    the fault-free single-card run produces [expected]. *)
type divergence = {
  index : int;
  doc_id : string;
  xpath : string option;
  got : string option;
  expected : string option;
}

type report = {
  requests : int;
  ok : int;  (** completed with the golden view or a correct variant *)
  rejected : int;  (** typed [Overloaded] refusals (admission control) *)
  errors : (int * string * Proxy.error) list;
      (** non-[Overloaded] typed errors: (stream index, doc_id, error) *)
  divergences : divergence list;  (** wrong views — must be empty *)
  convergence_failures : divergence list;
      (** clean-pass requests that still failed or mismatched *)
  injected : int;  (** frame faults injected across all links *)
  kills : int;  (** cutout down-edges across all cards *)
  stats : Fleet.stats;
}

val run :
  ?obs:Sdds_obs.Obs.t ->
  ?cards:int ->
  ?standby_k:int ->
  store:Sdds_dsp.Store.t ->
  subject:string ->
  make_card:(unit -> Sdds_soe.Remote_card.transport * (unit -> unit)) ->
  golden:(Proxy.Request.t -> string option) ->
  schedule:Sdds_fault.Fault.Schedule.t ->
  campaign:Sdds_fault.Fault.Campaign.t ->
  Proxy.Request.t list ->
  report
(** [make_card ()] returns a fresh card's raw transport and its tear
    hook (host + card, provisioned for [subject]) — called once per
    initial card ([cards], default 3) and once per [Add_card]. Each card
    gets the stack cutout-over-fault-link-over-raw, the link's schedule
    salted per card ({!Sdds_fault.Fault.Schedule.for_card}). [golden]
    is the fault-free reference view, typically the single-card
    [Proxy.run] memoized. [standby_k] defaults to 2. The fleet queues up
    to 64 requests per card and re-routes a request at most twice.
    The admission loop interleaves one {!Fleet.start} and one
    {!Fleet.turn} per request, so campaign events land while earlier
    requests are in flight. *)

val diverged : report -> bool
(** Divergences or convergence failures present. *)

(** {2 Phased SLO runs}

    The same fleet-under-faults world, but the deliverable is SLO
    verdicts: three phases — [steady] (clean traffic), [churn] (the
    busiest card is killed at phase start), [recovered] (every cutout
    revived) — with an {!Sdds_obs.Obs.Slo} engine ticking on fleet
    simulated time after each admitted batch. The acceptance shape:
    churn {!breached}, steady and recovered clean. *)

type slo_phase = {
  sp_phase : string;
  sp_requests : int;
  sp_ok : int;
  sp_rejected : int;
  sp_errors : int;
  sp_ticks : int;  (** SLO samples taken during the phase (one per batch) *)
  sp_breach_ticks : int;
      (** ticks at which some objective was in breach — burn-rate pages
          fire mid-phase and clear after settlement, so the phase-end
          verdict alone would miss them *)
  sp_peak_fast_burn : (string * float) list;
      (** per objective, the worst fast-window burn seen in the phase *)
  sp_verdicts : Sdds_obs.Obs.Slo.verdict list;  (** at phase end *)
  sp_now_ns : int64;  (** simulated (fleet link-time) clock at phase end *)
}

val breached : slo_phase -> bool

val slo_phase_json : slo_phase -> string

val run_slo :
  ?cards:int ->
  ?batch:int ->
  ?churn_fault_seed:int64 ->
  ?churn_fault_rate:float ->
  ?availability_target:float ->
  ?latency_target:float ->
  ?latency_threshold_us:int ->
  ?fast_window_ns:int64 ->
  ?slow_window_ns:int64 ->
  ?burn_threshold:float ->
  obs:Sdds_obs.Obs.t ->
  store:Sdds_dsp.Store.t ->
  subject:string ->
  make_card:(unit -> Sdds_soe.Remote_card.transport * (unit -> unit)) ->
  requests:(string -> Proxy.Request.t list) ->
  unit ->
  slo_phase list
(** [requests phase] supplies each phase's stream. Two objectives are
    registered: [availability] ([fleet.ok] / [fleet.requests], target
    99%) and [latency] ([fleet.latency_us] ≤ [latency_threshold_us],
    which snaps to a log₂ bucket bound; default 4095 µs, target 95%).
    The fleet's retry machinery absorbs frame faults entirely — no
    typed errors surface — so the churn signature is {e latency}:
    fault-retried serves land in the 8191 µs bucket that steady
    traffic (all ≤ 4095 µs) never touches. A seeded frame-fault
    schedule ([churn_fault_seed]/[churn_fault_rate], default rate 0.12)
    is armed {e only during churn}, alongside the kill, so the burn is
    attributable to the incident. Windows default to 2 ms fast / 12 ms
    slow of {e simulated} link time with burn threshold 1.0 —
    scaled-down 5m/1h analogues sized to the harness's
    millisecond-scale phases; the multi-window rule means the page
    fires mid-churn ([sp_breach_ticks] > 0) and clears once the fast
    window drains, so recovery shows as a clean [recovered] phase.
    Requests are admitted in batches of [batch] (default 3) with a
    tick and an evaluation after each batch. The fleet queues up to 16
    requests per card, re-routes a request at most twice and keeps the
    two hottest keys warm on a standby. Returns the three phases in
    order. *)

val minimize :
  rerun:(Sdds_fault.Fault.Campaign.t -> int -> report) ->
  Sdds_fault.Fault.Campaign.t ->
  requests:int ->
  Sdds_fault.Fault.Campaign.t * int
(** [minimize ~rerun campaign ~requests] greedily shrinks a failing run:
    drop campaign events one at a time, then halve the stream length (not
    below 10), keeping every shrink for which [rerun candidate n] still
    {!diverged} — [rerun] must rebuild the world from scratch so each
    candidate replays deterministically. Returns the minimal
    still-failing (campaign, stream length). *)
