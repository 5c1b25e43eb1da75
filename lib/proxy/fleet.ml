(* Fleet-scale sharded serving: N simulated cards, each behind its own
   [Remote_card.Host] transport and [Proxy.Pool], under one cooperative
   scheduler that survives churn — cards die, drain, join and revive
   mid-run. See fleet.mli for the contract. *)

module Store = Sdds_dsp.Store
module Apdu = Sdds_soe.Apdu
module Cost = Sdds_soe.Cost
module Remote = Sdds_soe.Remote_card
module Rng = Sdds_util.Rng
module Fnv = Sdds_util.Fnv
module Obs = Sdds_obs.Obs

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring                                                 *)
(* ------------------------------------------------------------------ *)

module Ring = struct
  (* [points_per_member] virtual points per member, FNV-1a-hashed onto an
     unsigned 64-bit circle. Immutable: [add]/[remove] rebuild from the
     member list, and because every member's points stay where they are,
     a resize only moves the keys whose successor point changed — the
     property test pins it. *)
  type t = { members : int list; points : (int64 * int) array }

  let points_per_member = 64

  let create members =
    let members = List.sort_uniq compare members in
    let points =
      Array.of_list
        (List.concat_map
           (fun m ->
             List.init points_per_member (fun r ->
                 (Fnv.fnv1a64 (Printf.sprintf "card-%d/%d" m r), m)))
           members)
    in
    Array.sort
      (fun (a, ma) (b, mb) ->
        match Int64.unsigned_compare a b with 0 -> compare ma mb | c -> c)
      points;
    { members; points }

  let members t = t.members
  let add t m = create (m :: t.members)
  let remove t m = create (List.filter (( <> ) m) t.members)

  (* Successor point of the key's hash, wrapping past the top of the
     circle back to the first point. *)
  let lookup t key =
    let n = Array.length t.points in
    if n = 0 then invalid_arg "Ring.lookup: empty ring";
    let h = Fnv.fnv1a64 key in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then
          search (mid + 1) hi
        else search lo mid
    in
    if Int64.unsigned_compare (fst t.points.(n - 1)) h < 0 then
      snd t.points.(0)
    else snd t.points.(search 0 (n - 1))
end

(* ------------------------------------------------------------------ *)
(* Fleet                                                                *)
(* ------------------------------------------------------------------ *)

type lifecycle = Up | Draining | Dead | Joining

(* The gauge encoding of a card's state (documented in the mli). *)
let lifecycle_index = function Up -> 0 | Draining -> 1 | Dead -> 2 | Joining -> 3

type routing = Affinity | Least_loaded | Random of int64

type outcome = {
  result : (Proxy.Pool.served, Proxy.error) result;
  card : int;
  affinity : bool;
  reroutes : int;
  migrations : int;
  latency_s : float;
}

(* One request in flight. [tk] is its ticket, taken at admission: every
   card the request is planned on, after a re-route or a migration too,
   starts it from this ticket, so a store rollback mid-flight can never
   downgrade the policy a re-planned session uploads. [floor] carries
   simulated time already spent on a card that failed the request away
   (re-route or migration), so the reported latency never goes
   backwards when the request restarts on a less-loaded card. [key] is
   the affinity key, computed once at admission so migration re-plans
   onto the same ring successor the routing would pick. *)
type job = {
  tk : Proxy.ticket;
  key : string option;  (* [Affinity] routing only *)
  mutable j_affinity : bool;
  mutable j_reroutes : int;
  mutable j_migrations : int;
  mutable floor : float;
  span : Obs.Tracer.span;
}

(* A request admitted through the incremental API. [starts] snapshots
   every card's clock at admission: latency is measured against the
   serving card's clock then, so clocks carried over from earlier work
   do not inflate it. *)
type flight = {
  s_job : job;
  starts : float array;
  mutable outcome : outcome option;
}

(* A request its ticket refuses finishes at admission, on no card. *)
type stream = Refused of outcome | Admitted of flight

(* An event count kept in the scope's cell of its name, so fleets sharing
   a scope share their counts, as hosts do; without a scope the cell is
   the fleet's own. The cell is taken at the name's first event, so a
   scope's export names only the events that happened. *)
type count = { name : string; cell : Obs.Metrics.Counter.t Lazy.t }

let count obs name = { name; cell = lazy (Obs.counter obs name) }
let bump c = Obs.Metrics.Counter.inc (Lazy.force c.cell)

let read obs c =
  match obs with
  | Some o -> Obs.Metrics.counter_value o.Obs.metrics c.name
  | None -> Obs.Metrics.Counter.value (Lazy.force c.cell)

type slot = {
  id : int;
  mutable pool : Proxy.Pool.t;  (* replaced on revive (fresh epochs) *)
  transport : Remote.transport;  (* clock-wrapped; probes use it too *)
  queue : flight Queue.t;  (* admitted, waiting for a pool slot *)
  mutable active : (flight * Proxy.Pool.stream) list;
  mutable state : lifecycle;
  clock : float ref;  (* simulated seconds of link time *)
  mutable served : int;
  g_depth : Obs.Metrics.Gauge.t;
  g_state : Obs.Metrics.Gauge.t;
}

type t = {
  mutable slots : slot array;  (* grows under [add_card]; ids are stable *)
  mutable ring : Ring.t;  (* holds exactly the routable (live) cards *)
  routing : routing;
  rng : Rng.t option;  (* [Random] routing only *)
  store : Store.t;
  subject : string;
  queue_limit : int;
  max_reroutes : int;
  standby_k : int;
  heat : (string, int) Hashtbl.t;  (* affinity-key request counts *)
  obs : Obs.t option;
  requests : count;
  affinity_hits : count;
  fallbacks : count;
  reroutes : count;
  rejected : count;
  migrations : count;
  deaths : count;
  revives : count;
  drains : count;
  added : count;
  probes : count;
  standby_hits : count;
  mutable q_peak : int;
}

type stats = {
  requests : int;
  affinity_hits : int;
  fallbacks : int;
  reroutes : int;
  rejected : int;
  served_by : int array;
  queue_peak : int;
  migrations : int;
  deaths : int;
  revives : int;
  drains : int;
  added : int;
  probes : int;
  standby_hits : int;
  states : lifecycle array;
}

let card_count t = Array.length t.slots
let clock t card = !(t.slots.(card).clock)
let state t card = t.slots.(card).state
let live s = match s.state with Up | Joining -> true | Draining | Dead -> false

let set_state slot st =
  slot.state <- st;
  Obs.Metrics.Gauge.set slot.g_state (lifecycle_index st)

let make_slot ?obs ~store ~subject ~state id raw =
  let g_depth = Obs.gauge obs (Printf.sprintf "fleet.card%d.queue_depth" id) in
  let g_state = Obs.gauge obs (Printf.sprintf "fleet.card%d.state" id) in
  Obs.Metrics.Gauge.set g_state (lifecycle_index state);
  let clock = ref 0.0 in
  (* Every frame exchanged with this card — requests and health probes
     alike — advances its simulated clock by its wire time: queueing
     delay shows up as tail latency without any wall clock involved. *)
  let transport cmd =
    let resp = raw cmd in
    clock :=
      !clock
      +. float_of_int (Apdu.command_bytes cmd + Apdu.response_bytes resp)
         /. Cost.fleet.Cost.link_bytes_per_s;
    resp
  in
  {
    id;
    pool = Proxy.Pool.create ?obs ~store ~transport ~subject ();
    transport;
    queue = Queue.create ();
    active = [];
    state;
    clock;
    served = 0;
    g_depth;
    g_state;
  }

let create ?obs ?(routing = Affinity) ?(queue_limit = 64) ?(max_reroutes = 1)
    ?(standby_k = 0) ~store ~subject transports =
  let n = Array.length transports in
  if n < 1 then invalid_arg "Fleet.create: no cards";
  if queue_limit < 1 then invalid_arg "Fleet.create: queue_limit < 1";
  if standby_k < 0 then invalid_arg "Fleet.create: standby_k < 0";
  let slots =
    Array.init n (fun i ->
        make_slot ?obs ~store ~subject ~state:Up i transports.(i))
  in
  {
    slots;
    ring = Ring.create (List.init n Fun.id);
    routing;
    rng =
      (match routing with Random seed -> Some (Rng.create seed) | _ -> None);
    store;
    subject;
    queue_limit;
    max_reroutes;
    standby_k;
    heat = Hashtbl.create 64;
    obs;
    requests = count obs "fleet.requests";
    affinity_hits = count obs "fleet.affinity_hits";
    fallbacks = count obs "fleet.fallbacks";
    reroutes = count obs "fleet.reroutes";
    rejected = count obs "fleet.rejected";
    migrations = count obs "fleet.migrations";
    deaths = count obs "fleet.deaths";
    revives = count obs "fleet.revives";
    drains = count obs "fleet.drains";
    added = count obs "fleet.cards_added";
    probes = count obs "fleet.probes";
    standby_hits = count obs "fleet.standby_hits";
    q_peak = 0;
  }

let load s = Queue.length s.queue + List.length s.active
let room t s = load s < t.queue_limit

let set_depth s = Obs.Metrics.Gauge.set s.g_depth (load s)

let note_depth t s =
  t.q_peak <- max t.q_peak (load s);
  set_depth s

(* A stream admitted before [add_card] has no clock snapshot for the new
   card; the new card's clock started at 0, which is exactly the right
   baseline for it. *)
let start_of st (slot : slot) =
  if slot.id < Array.length st.starts then st.starts.(slot.id) else 0.0

(* The affinity key: the document and the digest of the ticket's rule
   blob — exactly what keys the card's prepared-evaluation cache, so
   repeat requests for a (document, subject) pair land on the card whose
   cache is already warm for them. *)
let affinity_key (tk : Proxy.ticket) =
  tk.Proxy.request.Proxy.Request.doc_id ^ "\x00"
  ^ Printf.sprintf "%Lx" (Fnv.fnv1a64 tk.Proxy.rules)

let least_loaded ?excluding t =
  let best = ref None in
  Array.iter
    (fun s ->
      if Some s.id <> excluding && live s && room t s then
        match !best with
        | Some b when load b <= load s -> ()
        | _ -> best := Some s)
    t.slots;
  !best

(* ------------------------------------------------------------------ *)
(* Hot-key standby                                                      *)
(* ------------------------------------------------------------------ *)

let bump_heat (t : t) key =
  let h = 1 + Option.value ~default:0 (Hashtbl.find_opt t.heat key) in
  Hashtbl.replace t.heat key h;
  h

(* A key is hot when it has real traffic and fewer than [standby_k] keys
   are hotter — the zipf head. The scan is over distinct affinity keys
   (documents × subjects), which is small compared to request volume. *)
let is_hot t key heat =
  t.standby_k > 0 && heat >= 4
  && Hashtbl.fold
       (fun k h n -> if k <> key && h > heat then n + 1 else n)
       t.heat 0
     < t.standby_k

(* The standby for a key is the ring's answer once the primary is gone —
   the card that *will* inherit the key on the primary's death. Keeping
   it warm (a fraction of the hot key's traffic routes there) turns the
   primary's death into a warm failover instead of a cold cache miss. *)
let standby_of t key ~primary =
  match Ring.members t.ring with
  | [] | [ _ ] -> None
  | _ -> (
      let r' = Ring.remove t.ring primary in
      match Ring.members r' with [] -> None | _ -> Some (Ring.lookup r' key))

(* ------------------------------------------------------------------ *)
(* Routing                                                              *)
(* ------------------------------------------------------------------ *)

(* Pick the serving card, or refuse: [None] means no live card has queue
   room — admission control in action. Affinity consults the hash ring
   (which holds exactly the live cards) and falls back to the
   least-loaded live card when the ring's choice has no room; a hot
   key's standby takes every 4th request to stay warm. All decisions are
   counted so the routing mix is observable. *)
let route (t : t) (job : job) =
  match t.routing with
  | Least_loaded -> (
      match least_loaded t with
      | Some s -> Some (s, false)
      | None -> None)
  | Random _ -> (
      let rng = Option.get t.rng in
      let s = t.slots.(Rng.int rng (Array.length t.slots)) in
      if live s && room t s then Some (s, false)
      else
        match least_loaded t with
        | Some s -> Some (s, false)
        | None -> None)
  | Affinity -> (
      let fallback () =
        match least_loaded t with
        | Some s ->
            bump t.fallbacks;
            Some (s, false)
        | None -> None
      in
      match (Ring.members t.ring, job.key) with
      | [], _ | _, None -> fallback ()
      | _ :: _, Some key -> (
          let heat = bump_heat t key in
          let primary = Ring.lookup t.ring key in
          let choice, is_standby =
            match
              if is_hot t key heat then standby_of t key ~primary else None
            with
            | Some sb when heat mod 4 = 0 -> (sb, true)
            | _ -> (primary, false)
          in
          let s = t.slots.(choice) in
          if room t s then
            if is_standby then begin
              bump t.standby_hits;
              Some (s, false)
            end
            else begin
              bump t.affinity_hits;
              Some (s, true)
            end
          else fallback ()))

(* A request's end: the SLO feed, before the root span stops, so the
   latency exemplar can still resolve (and pin) the owning trace. *)
let close (t : t) span (o : outcome) outcome_tag =
  if outcome_tag = "ok" then Obs.inc t.obs "fleet.ok" 1;
  Obs.observe ~span t.obs "fleet.latency_us"
    (int_of_float (o.latency_s *. 1e6));
  Obs.Tracer.stop (Obs.tracer t.obs)
    ~args:
      [ ("outcome", outcome_tag);
        ("card", string_of_int o.card);
        ("reroutes", string_of_int o.reroutes);
        ("migrations", string_of_int o.migrations) ]
    span

let finish (t : t) st card latency result outcome_tag =
  let job = st.s_job in
  let o =
    {
      result;
      card;
      affinity = job.j_affinity;
      reroutes = job.j_reroutes;
      migrations = job.j_migrations;
      latency_s = latency;
    }
  in
  st.outcome <- Some o;
  close t job.span o outcome_tag

(* A budget-exhausted request (its card kept tearing or its link kept
   faulting past the pool's per-card epoch recovery) is re-routed to
   another card rather than failed, while the allowance lasts. *)
let reroute (t : t) st failed =
  let job = st.s_job in
  if job.j_reroutes >= t.max_reroutes then false
  else
    match least_loaded ~excluding:failed t with
    | Some s ->
        job.j_reroutes <- job.j_reroutes + 1;
        job.j_affinity <- false;
        bump t.reroutes;
        Queue.add st s.queue;
        note_depth t s;
        true
    | None -> false

(* ------------------------------------------------------------------ *)
(* Lifecycle: probing, migration, resize                                *)
(* ------------------------------------------------------------------ *)

(* Liveness probe: an instruction no card implements, on the basic
   channel. A live card answers the [bad_ins] word — proof of life that
   touches no session state; only a dead link (or a frame fault) yields
   the transient transport word. The budget bounds what a dead card can
   cost: [probe_attempts] tiny frames once, instead of every subsequent
   request's full retry budget. *)
let probe_attempts = 3

let probe_frame =
  { Apdu.cla = Apdu.base_cla; ins = 0xEE; p1 = 0; p2 = 0; data = "" }

let probe_alive (t : t) slot =
  let rec go left =
    if left <= 0 then false
    else begin
      bump t.probes;
      let resp = slot.transport probe_frame in
      let sw = (resp.Apdu.sw1, resp.Apdu.sw2) in
      if sw = Remote.Sw.transport || sw = Remote.Sw.internal then go (left - 1)
      else true
    end
  in
  go probe_attempts

(* Re-plan one stream away from [from] (dying or draining): the ring —
   which no longer contains [from] — names the successor that inherits
   the request's affinity key, so a migrated hot key lands exactly on
   its (pre-warmed) standby. The move is a migration, not a re-route: it
   does not spend the job's re-route allowance, and the re-planned
   stream starts from the ticket taken at admission. *)
let migrate_stream (t : t) st ~(from : slot) ~reason =
  let job = st.s_job in
  job.floor <- max job.floor (!(from.clock) -. start_of st from);
  let target =
    match job.key with
    | Some key when Ring.members t.ring <> [] -> (
        let s = t.slots.(Ring.lookup t.ring key) in
        if room t s then Some s else least_loaded ~excluding:from.id t)
    | _ -> least_loaded ~excluding:from.id t
  in
  match target with
  | None ->
      (* Nowhere to go: every surviving queue is full (or no card
         survives). The refusal is typed, never a hang. *)
      bump t.rejected;
      finish t st from.id job.floor (Error Proxy.Overloaded) "migration-refused"
  | Some target ->
      job.j_migrations <- job.j_migrations + 1;
      bump t.migrations;
      let tr = Obs.tracer t.obs in
      Obs.Tracer.with_parent tr job.span (fun () ->
          Obs.Tracer.with_span tr
            ~args:
              [ ("from", string_of_int from.id);
                ("to", string_of_int target.id);
                ("reason", reason) ]
            "fleet.migrate"
            (fun () -> ()));
      Queue.add st target.queue;
      note_depth t target

(* Evacuate a card: queued streams re-plan in FIFO order; in-flight pool
   streams are aborted (their channel state dies with the card anyway)
   and re-plan after them. Warm re-establishment happens on the target:
   re-SELECT, rules re-upload — of the admission ticket's policy — and
   the card-side prepared cache make the replay cheap when the target is
   the key's pre-warmed standby. *)
let migrate_all t slot ~reason =
  let queued = List.rev (Queue.fold (fun acc st -> st :: acc) [] slot.queue) in
  Queue.clear slot.queue;
  let actives = slot.active in
  slot.active <- [];
  List.iter (fun (_, ps) -> Proxy.Pool.abort slot.pool ps) actives;
  List.iter
    (fun st -> migrate_stream t st ~from:slot ~reason)
    (queued @ List.map fst actives);
  set_depth slot

let mark_dead (t : t) slot =
  set_state slot Dead;
  t.ring <- Ring.remove t.ring slot.id;
  bump t.deaths

let add_card (t : t) raw =
  let id = Array.length t.slots in
  let slot =
    make_slot ?obs:t.obs ~store:t.store ~subject:t.subject ~state:Joining id
      raw
  in
  t.slots <- Array.append t.slots [| slot |];
  t.ring <- Ring.add t.ring id;
  bump t.added;
  id

let remove_card (t : t) i =
  if i < 0 || i >= Array.length t.slots then
    invalid_arg "Fleet.remove_card: no such card";
  let slot = t.slots.(i) in
  if live slot then begin
    set_state slot Draining;
    t.ring <- Ring.remove t.ring i;
    bump t.drains;
    migrate_all t slot ~reason:"drain"
  end

let revive_card (t : t) i =
  if i < 0 || i >= Array.length t.slots then
    invalid_arg "Fleet.revive_card: no such card";
  let slot = t.slots.(i) in
  if not (live slot) then begin
    (* The card's non-volatile state (keys, watermarks, prepared cache)
       survived; its volatile channel table did not. A fresh pool starts
       from a clean epoch — the first requests re-establish sessions and
       hit the surviving prepared cache warm. *)
    slot.pool <-
      Proxy.Pool.create ?obs:t.obs ~store:t.store ~transport:slot.transport
        ~subject:t.subject ();
    set_state slot Joining;
    t.ring <- Ring.add t.ring i;
    bump t.revives
  end

(* ------------------------------------------------------------------ *)
(* Scheduling                                                           *)
(* ------------------------------------------------------------------ *)

(* Admission: take the request's ticket first — a malformed query
   raises here, the application's bug reported synchronously, before the
   fleet counts anything — then route the request now (it "arrives" at
   the current simulated time). A request its ticket refuses finishes at
   once on no card; one no live card has queue room for is refused
   immediately with a typed error — the bounded per-card queues are the
   admission control. *)
let start (t : t) req =
  let tk = Proxy.ticket t.store ~subject:t.subject req in
  bump t.requests;
  let span =
    Obs.Tracer.start (Obs.tracer t.obs) ~parent:Obs.Tracer.none
      ~args:
        [ ("doc_id", req.Proxy.Request.doc_id);
          ( "subject",
            Option.value ~default:t.subject req.Proxy.Request.subject ) ]
      "fleet.request"
  in
  match tk with
  | Error e ->
      let o =
        {
          result = Error e;
          card = -1;
          affinity = false;
          reroutes = 0;
          migrations = 0;
          latency_s = 0.0;
        }
      in
      close t span o "error";
      Refused o
  | Ok tk ->
      let key =
        match t.routing with
        | Affinity -> Some (affinity_key tk)
        | Least_loaded | Random _ -> None
      in
      let job =
        {
          tk;
          key;
          j_affinity = false;
          j_reroutes = 0;
          j_migrations = 0;
          floor = 0.0;
          span;
        }
      in
      let st =
        {
          s_job = job;
          starts = Array.map (fun s -> !(s.clock)) t.slots;
          outcome = None;
        }
      in
      (match route t job with
      | None ->
          bump t.rejected;
          finish t st (-1) 0.0 (Error Proxy.Overloaded) "rejected"
      | Some (slot, aff) ->
          job.j_affinity <- aff;
          Queue.add st slot.queue;
          note_depth t slot);
      Admitted st

(* One scheduler turn: round-robin over the live cards; each feeds its
   pool up to [Apdu.max_channels] concurrent streams from its FIFO queue and
   advances every active stream by one frame — the same frame
   interleaving N independent terminals would produce, except across N
   cards at once. A request finishing in [Link_failure] triggers the
   probe cycle: a card that fails every probe is declared dead once and
   evacuated, instead of burning every later request's retry budget. *)
let turn t =
  Array.iter
    (fun slot ->
      if live slot then begin
        while
          List.length slot.active < Apdu.max_channels
          && not (Queue.is_empty slot.queue)
        do
          let st = Queue.take slot.queue in
          slot.active <-
            slot.active @ [ (st, Proxy.Pool.start slot.pool st.s_job.tk) ]
        done;
        set_depth slot;
        List.iter
          (fun (_, stream) -> Proxy.Pool.step slot.pool stream)
          slot.active;
        let died = ref false in
        let still_active =
          List.filter
            (fun (st, stream) ->
              match Proxy.Pool.result stream with
              | None -> true
              | Some result ->
                  let job = st.s_job in
                  let latency =
                    max job.floor (!(slot.clock) -. start_of st slot)
                  in
                  (match result with
                  | Error (Proxy.Link_failure _ as e) ->
                      job.floor <- latency;
                      let alive = (not !died) && probe_alive t slot in
                      if not alive then begin
                        (* Mark the death immediately so this victim's
                           migration (and its ring lookup) already
                           excludes the dead card; the remaining streams
                           evacuate after the scan. *)
                        if not !died then begin
                          died := true;
                          mark_dead t slot
                        end;
                        migrate_stream t st ~from:slot ~reason:"death"
                      end
                      else if not (reroute t st slot.id) then
                        finish t st slot.id latency (Error e) "error"
                  | Ok served ->
                      slot.served <- slot.served + 1;
                      if slot.state = Joining then set_state slot Up;
                      finish t st slot.id latency (Ok served) "ok"
                  | Error e -> finish t st slot.id latency (Error e) "error");
                  false)
            slot.active
        in
        slot.active <- still_active;
        if !died then migrate_all t slot ~reason:"death";
        set_depth slot
      end)
    t.slots

let result = function Refused o -> Some o | Admitted st -> st.outcome

let serve t reqs =
  let streams = List.map (start t) reqs in
  while List.exists (fun st -> result st = None) streams do
    turn t
  done;
  List.map (fun st -> Option.get (result st)) streams

let stats (t : t) =
  let read = read t.obs in
  {
    requests = read t.requests;
    affinity_hits = read t.affinity_hits;
    fallbacks = read t.fallbacks;
    reroutes = read t.reroutes;
    rejected = read t.rejected;
    served_by = Array.map (fun s -> s.served) t.slots;
    queue_peak = t.q_peak;
    migrations = read t.migrations;
    deaths = read t.deaths;
    revives = read t.revives;
    drains = read t.drains;
    added = read t.added;
    probes = read t.probes;
    standby_hits = read t.standby_hits;
    states = Array.map (fun s -> s.state) t.slots;
  }
