(** Fleet-scale sharded serving: one DSP front-end over N simulated
    cards, surviving churn.

    One card multiplexes at most {!Sdds_soe.Apdu.max_channels} logical
    channels, which caps a single {!Proxy.Pool} at four concurrent
    streams — nowhere near the subject population a DSP is meant to
    serve. The fleet decouples stream multiplexing from the single card:
    it fronts N cards (each with its own {!Sdds_soe.Remote_card.Host}
    transport and its own [Pool], hence its own channel pool, epoch-based
    tear recovery and warm-setup memos) behind one cooperative scheduler
    that admits, routes, interleaves and — when a card keeps failing —
    re-routes requests.

    {b Admission and queues.} Each card has a bounded FIFO queue
    ([queue_limit] covers queued plus in-flight streams). A request no
    card has room for is refused {e at admission} with
    {!Proxy.error.Overloaded} — load shedding happens before any frame is
    spent, never by silently dropping an accepted request.

    {b Affinity routing.} The default routing hashes (doc_id, digest of
    the subject's rule blob) — exactly what keys the card's
    prepared-evaluation cache — onto a consistent-hash {!Ring} of cards,
    so repeat requests for a (document, subject) pair land where the
    cache is warm; when the ring's choice is full the request falls back
    to the least-loaded card. The ring's virtual points make affinity
    survive a fleet resize: adding or removing a card only remaps the
    keys whose successor point changed. [Least_loaded] and seeded
    [Random] routing exist as baselines (the E19 bench compares their
    warm-hit rates against affinity's).

    {b Re-routing.} Transient faults and card tears are absorbed {e per
    card} by the pool's own retry budget and epoch machinery; only when
    a card exhausts a request's budget ({!Proxy.error.Link_failure})
    does the fleet move the request to another card, up to
    [max_reroutes] times, counting every move.

    {b Card lifecycle.} Every card is in one {!lifecycle} state. A
    request ending in [Link_failure] triggers a health probe cycle: an
    unimplemented instruction on the basic channel, answered by any live
    card with the [bad_ins] status word and by a dead link with the
    transient transport word. A card failing three consecutive probes is
    declared [Dead] {e once} — three tiny frames, instead of every
    subsequent request burning its full retry budget — leaves the ring,
    and is evacuated. {!remove_card} drains a card gracefully
    ([Draining]); {!add_card} and {!revive_card} bring capacity in as
    [Joining], promoted to [Up] on the first successful serve.

    {b Session migration.} Evacuating a card (death or drain) re-plans
    its queued streams in FIFO order and aborts its in-flight pool
    streams ({!Proxy.Pool.abort} — their channel state dies with the
    card anyway), re-planning them after. The target is the ring's
    successor for the request's affinity key — the ring no longer
    contains the evacuated card, so a migrated hot key lands exactly on
    its pre-warmed standby. Re-establishment on the target is the normal
    warm path (re-SELECT, rules re-upload, prepared-cache hit), and the
    re-planned stream starts from the request's {!Proxy.ticket}, taken
    at admission: it re-uploads the policy the request was admitted
    with, so a store rollback mid-flight can never downgrade a migrated
    session. Migration does not spend the request's re-route allowance;
    a stream with nowhere to go (every surviving queue full, or no
    survivor) is refused with the typed [Overloaded], never hung.

    {b Hot-key standby.} With [standby_k] > 0, the [standby_k] hottest
    affinity keys (by request count — the zipf head) are replicated: the
    key's {e standby} is [Ring.lookup (Ring.remove ring primary) key],
    i.e. precisely the card that will inherit the key if the primary
    dies, and every 4th request for a hot key routes there to keep its
    session cache warm. The primary's death then fails over warm — no
    client-visible [Link_failure], no cold re-upload storm.

    {b Simulated time.} Each card advances its own clock by the wire
    time of every frame it exchanges at {!Sdds_soe.Cost.fleet}'s link
    throughput — health probes included; a request's [latency_s] is its
    serving card's clock at completion (never less than the time already
    burned on cards it was re-routed or migrated away from), so queueing
    delay surfaces as tail latency deterministically, with no wall clock
    involved.

    [obs] wiring: [fleet.request] root spans (outcome, card, re-route
    and migration counts as args) with [fleet.migrate] child spans
    (from/to/reason) per migration; per-card [fleet.cardN.queue_depth]
    and [fleet.cardN.state] gauges (0 = up, 1 = draining, 2 = dead,
    3 = joining); and counters [fleet.requests], [fleet.affinity_hits],
    [fleet.fallbacks], [fleet.reroutes], [fleet.rejected],
    [fleet.migrations], [fleet.deaths], [fleet.revives], [fleet.drains],
    [fleet.cards_added], [fleet.probes], [fleet.standby_hits]. The
    registry is the source of truth: the fleet counts each event once,
    in the scope's cell of its name, and {!stats} reads those cells
    (without a scope, the fleet's own). So fleets sharing a scope share
    those counts, as hosts do; [served_by] and [queue_peak] have no cell
    and stay the fleet's own. *)

(** The consistent-hash ring affinity routing uses, exposed for direct
    testing (resize stability) and reuse. Members are card indices. *)
module Ring : sig
  type t

  val create : int list -> t
  (** 64 virtual points per member; duplicates in the member list are
      dropped. *)

  val members : t -> int list
  (** Sorted, unique. *)

  val add : t -> int -> t
  val remove : t -> int -> t

  val lookup : t -> string -> int
  (** The member owning the key: successor point of the key's
      {!Sdds_util.Fnv.fnv1a64} hash on the circle. Raises
      [Invalid_argument] on an empty ring. *)
end

type t

(** How requests are assigned to cards. *)
type routing =
  | Affinity  (** hash ring on (doc_id, rules digest); least-loaded fallback *)
  | Least_loaded
  | Random of int64  (** uniform, seeded — the warm-cache baseline *)

(** A card's position in the fleet. [Up] and [Joining] cards are
    routable (in the ring); [Draining] and [Dead] cards are not and hold
    no streams — evacuation is immediate, not lazy. *)
type lifecycle =
  | Up
  | Draining  (** {!remove_card}: evacuated gracefully, never declared dead *)
  | Dead  (** failed a full probe budget; revivable *)
  | Joining  (** fresh or revived; [Up] after its first successful serve *)

val create :
  ?obs:Sdds_obs.Obs.t ->
  ?routing:routing ->
  ?queue_limit:int ->
  ?max_reroutes:int ->
  ?standby_k:int ->
  store:Sdds_dsp.Store.t ->
  subject:string ->
  Sdds_soe.Remote_card.transport array ->
  t
(** [create ~store ~subject transports] fronts one card per transport
    (the caller owns the hosts and may interpose per-card fault links —
    see {!Sdds_fault.Fault.Schedule.for_card} — and power cutouts,
    {!Sdds_fault.Fault.Cutout}). Defaults: [Affinity] routing,
    [queue_limit] 64 per card, [max_reroutes] 1 and [standby_k] 0
    (hot-key replication off). Each card serves up to
    {!Sdds_soe.Apdu.max_channels} streams at once through its own
    {!Proxy.Pool}. [subject] is the default subject of a request's
    {!Proxy.ticket}; per-request overrides ride in
    {!Proxy.Request.t.subject}. *)

type outcome = {
  result : (Proxy.Pool.served, Proxy.error) result;
  card : int;  (** card that completed (or last tried); -1 if rejected *)
  affinity : bool;  (** served by the ring's choice, no fallback/re-route *)
  reroutes : int;
  migrations : int;  (** times this request was evacuated off a card *)
  latency_s : float;  (** simulated seconds, queueing included *)
}

val serve : t -> Proxy.Request.t list -> outcome list
(** Serve a batch (all arriving at simulated t = 0), results in request
    order. Every request ends in the exact authorized view or one typed
    {!Proxy.error} — the fleet differential property in
    [test/test_fleet.ml] holds it to the single-card golden run under
    arbitrary seeded per-card fault schedules, and the chaos harness
    ([sdds chaos]) extends the same check across kills, revives and
    resizes. State (queues drained, channels, memos, clocks, lifecycle)
    persists across calls, so a later batch finds warm caches. *)

(** {2 Live resize and recovery}

    All three are safe mid-run, between {!turn}s of the scheduler —
    that is the point. *)

val add_card : t -> Sdds_soe.Remote_card.transport -> int
(** Grow the fleet by one fresh card ([Joining], immediately routable);
    returns its index. Card indices are stable: a card never changes or
    reuses an index. *)

val remove_card : t -> int -> unit
(** Drain card [i]: it leaves the ring, its queued and in-flight streams
    migrate to the survivors, and it accepts nothing more ([Draining]).
    A no-op on a card already out of service. Raises [Invalid_argument]
    on an out-of-range index. *)

val revive_card : t -> int -> unit
(** Return a [Dead] (or [Draining]) card to service as [Joining], with a
    fresh pool (clean epoch — the card's volatile channel table died
    with it; its non-volatile state, including the prepared cache and
    anti-rollback watermarks, survived). A no-op on a live card. Raises
    [Invalid_argument] on an out-of-range index. *)

val state : t -> int -> lifecycle

(** {2 Incremental serving}

    [start] admits and routes one request (a refusal surfaces as an
    already-finished stream), {!turn} runs one turn of
    the fleet's cooperative scheduler — the fleet is a shared scheduler,
    so {e every} active stream advances — and [result] is [Some] once the
    request finished. [serve] is admission of the whole batch followed
    by turns until done; the interleaving is identical. *)

type stream

val start : t -> Proxy.Request.t -> stream
(** Admit one request. Its {!Proxy.ticket} (the fleet's [subject] the
    default) is taken first, before anything is counted: a malformed
    query raises [Sdds_xpath.Parser.Error] and leaves no trace in the
    fleet. The request is then counted and opens its [fleet.request]
    span. One its ticket refuses finishes at once on card -1, and is not
    counted in [rejected]; one no live card has queue room for finishes
    with [Overloaded]; any other is routed, and every card it is planned
    on starts it from that ticket. *)

val result : stream -> outcome option

val turn : t -> unit
(** One scheduler turn. Chaos harnesses alternate [start]s and [turn]s to
    keep a steady stream in flight while killing and resizing between
    turns. *)

type stats = {
  requests : int;
  affinity_hits : int;
  fallbacks : int;  (** ring choice was full; went least-loaded *)
  reroutes : int;
  rejected : int;  (** refused at admission or mid-migration ([Overloaded]) *)
  served_by : int array;  (** successful completions per card *)
  queue_peak : int;  (** deepest any card's queue ever got *)
  migrations : int;  (** streams evacuated off a draining/dead card *)
  deaths : int;  (** cards declared dead after a failed probe budget *)
  revives : int;
  drains : int;  (** graceful {!remove_card} evacuations *)
  added : int;  (** cards added by {!add_card} *)
  probes : int;  (** health-probe frames sent *)
  standby_hits : int;  (** hot-key requests routed to the warm standby *)
  states : lifecycle array;  (** current lifecycle, per card *)
}

val stats : t -> stats
val card_count : t -> int

val clock : t -> int -> float
(** A card's simulated clock (seconds of link time it has served). *)
