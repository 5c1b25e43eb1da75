(** End-to-end observability: a span tracer and a metrics registry shared
    by every layer of the SOE pipeline.

    The paper's argument is quantitative — a ~1 KB-RAM card over a 2 KB/s
    link only works because evaluation streams and the skip index prunes —
    so the pipeline needs one place that can answer "where did this
    request's bytes and milliseconds go" across host, link and card. This
    module provides it without coupling the layers to each other:

    - {!Tracer} records parent/child {e spans} (and point {e instants})
      into a bounded ring buffer, with an injected clock so traces are
      deterministic under test, and exports both JSONL and the Chrome
      [trace_event] format (opens directly in [about:tracing] / Perfetto).
      It records every span tree, or samples by {e tail}: whole trees are
      buffered until the root finishes and a {!Policy} decides keep/drop
      — so the slow, faulted and migrated requests that matter are
      retained even under a tight storage budget;
    - {!Metrics} is a registry of named counters, gauges and log-bucketed
      histograms with a Prometheus-style text exporter and a JSON
      snapshot. Histogram buckets optionally carry {e exemplars} — the
      (trace id, span id, value) of the max observation per bucket — so a
      p99 bucket links straight to the retained trace that produced it.
      The registry holds exactly one cell per name and kind, so its size
      and a snapshot's cost follow the names, never the traffic. A
      component that lives as long as its scope (a card's host, a
      fleet) increments the scope's cell for its name directly — a
      single store on the hot path. A request-scoped component (an
      engine evaluation, a pool stream) keeps its own counts, which its
      stats record reads ([Engine.stats], [Pool.served]), and adds them
      to the scope's cells once, when the request ends: counters add,
      and a gauge contributes its peak. A card keeps its own cache
      counts for [Card.cache_stats] and adds each one to the scope's
      cell as it happens;
    - {!Slo} computes windowed availability / latency objectives and
      multi-window burn rates over registry cells, at the times the
      caller passes.

    Everything takes an [Obs.t option]: [None] is the zero-overhead path —
    no registry, a disabled tracer, and observable behaviour byte-identical
    to an uninstrumented run (the qcheck tests enforce this). *)

(** Injected time source, in nanoseconds. *)
module Clock : sig
  type t = unit -> int64

  val system : t
  (** Wall clock ([Unix.gettimeofday]), in nanoseconds. *)

  val manual : unit -> t
  (** A deterministic clock for tests: the first call returns 0 and
      every call advances by 1000. Fixed clock + fixed seeds ⇒
      byte-identical trace exports. *)
end

(** Named counters, gauges and log₂-bucketed histograms. *)
module Metrics : sig
  (** A monotonic event count. The cell is what instrumented code holds
      and increments directly, so the hot path never touches a hash
      table. *)
  module Counter : sig
    type t

    val create : unit -> t
    val inc : t -> unit
    val add : t -> int -> unit
    val value : t -> int
  end

  (** A sampled level (live tokens, stack depth, resident bytes): tracks
      the current value and the peak ever set. *)
  module Gauge : sig
    type t

    val create : unit -> t
    val set : t -> int -> unit
    val value : t -> int
    val peak : t -> int
  end

  (** A distribution over non-negative integers in log₂ buckets: bucket
      [i] counts observations [v] with [v < 2{^i}] (and not in a lower
      bucket), so 63 buckets cover the whole [int] range — latencies and
      byte sizes at any scale, in constant memory. *)
  module Histogram : sig
    type t

    type exemplar = { ex_value : int; ex_trace : int; ex_span : int }
    (** The max-value observation a bucket has seen, tagged with the
        trace (root span id) and span that produced it. *)

    val create : unit -> t
    val observe : t -> int -> unit
    (** Negative values are clamped to 0. *)

    val observe_exemplar : t -> trace:int -> span:int -> int -> bool
    (** Like {!observe}, but also installs (trace, span, value) as the
        bucket's exemplar when the value is the largest the bucket has
        seen. Returns [true] exactly when the exemplar was installed, so
        the caller can pin the owning trace against tail sampling.
        Exemplar storage is allocated lazily — histograms that never see
        one pay nothing. *)

    val count : t -> int
    val sum : t -> int

    val buckets : t -> (int * int) list
    (** Non-cumulative [(upper_bound, count)] pairs up to the highest
        non-empty bucket; bucket [i] reports upper bound [2{^i} - 1]. *)

    val exemplars : t -> (int * exemplar) list
    (** [(upper_bound, exemplar)] for every bucket holding one. *)
  end

  type t
  (** A registry: a mutable map from metric names (dotted lowercase, e.g.
      ["engine.token_visits"]) to cells, exactly one counter, gauge or
      histogram per name. Nothing is kept per request: a request-scoped
      component adds its counts to these cells when the request ends, so
      the registry costs the same after 10 requests as after 10,000. *)

  val create : unit -> t

  val counter : t -> string -> Counter.t
  (** Get or create the cell for this name. *)

  val gauge : t -> string -> Gauge.t
  val histogram : t -> string -> Histogram.t

  type value =
    | Counter_v of int
    | Gauge_v of { value : int; peak : int }
    | Histogram_v of {
        count : int;
        sum : int;
        buckets : (int * int) list;
        exemplars : (int * Histogram.exemplar) list;
      }

  type histogram_snapshot = {
    h_count : int;
    h_sum : int;
    h_buckets : (int * int) list;
    h_exemplars : (int * Histogram.exemplar) list;
  }
  (** One histogram's count, sum, buckets and per-bucket max-value
      exemplars. *)

  val snapshot : t -> (string * value) list
  (** Every name's value, sorted by name. *)

  val counter_value : t -> string -> int
  (** The count for one name; 0 when absent. *)

  val gauge_value : t -> string -> int * int
  (** (value, peak) for one name; (0, 0) when absent. A gauge a
      long-lived component sets (e.g. the fleet's per-card state) reads
      its current level. A request gauge ([engine.*]) is set once per
      request, to that request's peak, when the request ends: its value
      is the peak of the request that ended last, and its peak the
      largest over every request that ended. Like {!counter_value}, this
      is the registry-as-source-of-truth read path: components need not
      expose their own accessors. *)

  val histogram_snapshot : t -> string -> histogram_snapshot
  (** Typed single-name histogram reader, completing the
      {!counter_value}/{!gauge_value} family (the SLO engine reads
      latency objectives through it). Empty snapshot when absent. *)

  val to_prometheus : t -> string
  (** Prometheus text exposition: names are mangled ([.] → [_], prefixed
      [sdds_]), gauges additionally export a [_peak] series, histograms
      export cumulative [_bucket{le="..."}] series plus [_sum] and
      [_count]. Buckets holding an exemplar append the OpenMetrics form
      [# {trace_id="...",span_id="..."} value]. *)

  val to_json : t -> string
  (** One JSON object:
      [{"counters":{...},"gauges":{...},"histograms":{...}}]. Histograms
      with exemplars carry ["exemplars": [[le, value, trace, span], ...]]. *)
end

(** Tail-sampling retention policies: which finished span trees are worth
    keeping. Rules are checked in order; the first match names the
    retention reason recorded on the root span ([sampled.reason]). *)
module Policy : sig
  type view = {
    v_span : bool;  (** span, as opposed to instant *)
    v_name : string;
    v_dur_ns : int64;  (** 0 for instants *)
    v_args : (string * string) list;
  }
  (** What a rule sees of a finished event — a read-only projection, so
      policies cannot perturb the ring. *)

  type rule

  val rule : name:string -> (root:view -> view list -> bool) -> rule
  (** Custom rule: receives the finished root and every buffered
      descendant event of the tree. [name] becomes the retention
      reason. *)

  val name : rule -> string
  val matches : rule -> root:view -> view list -> bool

  val error_outcome : rule
  (** Keeps trees whose root (or any span in the tree) finished with an
      [outcome] arg other than ["ok"]. Reason ["error"]. *)

  val fault_instant : rule
  (** Keeps trees containing a fault-injection instant (the [Fault.Link]
      correlation events). Reason ["fault"]. *)

  val span_named : string -> rule
  (** Keeps trees containing a span with this name (e.g.
      ["fleet.migrate"] for churn forensics). Reason ["span:<name>"]. *)

  type t

  val v : ?baseline_1_in:int -> rule list -> t
  (** A policy: ordered rules plus a deterministic 1-in-N baseline over
      trees no rule matched (0, the default, keeps interesting trees
      only). *)

  val default : ?baseline_1_in:int -> ?latency_ns:int64 -> unit -> t
  (** [error_outcome]; when [latency_ns] is given, a rule keeping trees
      whose root duration is ≥ it (ns on the injected clock, reason
      ["latency"]); [fault_instant]; [span_named "fleet.migrate"];
      baseline 1-in-8. *)
end

(** Spans and instants in a bounded ring buffer. *)
module Tracer : sig
  type span = int
  (** A span id, from 1 up. [0] ({!none}) means "no span": it is accepted
      everywhere and recorded nowhere, so instrumentation never branches
      on whether tracing is on. *)

  val none : span

  type t

  val disabled : t
  (** The no-op tracer: every operation returns immediately, {!now} is 0.
      [Obs.tracer None] returns it, making [None] the zero-overhead
      path. *)

  val create :
    ?clock:Clock.t ->
    ?capacity:int ->
    ?policy:Policy.t ->
    ?on_keep:(string -> unit) ->
    ?on_drop:(unit -> unit) ->
    ?on_evict:(unit -> unit) ->
    unit ->
    t
  (** [capacity] (default 65536) bounds the ring buffer: once full, the
      oldest events are overwritten and counted in {!evicted}.

      Without [policy] every span tree is recorded. With one, the tracer
      {e tail}-samples: every tree records into a per-root buffer and the
      policy decides keep/drop when the root finishes, so retention can
      depend on outcome, latency, faults or tree shape, and exports hold
      only complete request trees. Retained roots carry a
      [sampled.reason] arg naming the rule (or ["baseline"] /
      ["exemplar"]).

      [on_keep]/[on_drop]/[on_evict] fire on tree retention, tree drop
      and ring overwrite respectively — [Obs.create] bridges them to the
      [trace.retained] / [trace.dropped] / [trace.evicted] counters. *)

  val enabled : t -> bool
  val now : t -> int64

  val start : t -> ?parent:span -> ?args:(string * string) list -> string -> span
  (** Open a span. [parent] defaults to the {!current} span; pass
      [~parent:none] to force a root (the per-request root spans of the
      pool, whose streams interleave and cannot use the implicit stack).
      Returns {!none} when disabled. *)

  val stop : t -> ?args:(string * string) list -> span -> unit
  (** Close a span and commit it ([args] are appended to the start args).
      Under a policy, closing a root runs the policy over the buffered
      tree and either commits it whole or drops it whole. No-op on
      {!none}. *)

  val with_span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [start] + push on the implicit stack + run + pop + [stop],
      exception-safe. Synchronous code gets parent/child nesting for
      free. *)

  val with_parent : t -> span -> (unit -> 'a) -> 'a
  (** Run with the implicit stack re-rooted at an explicit span: the
      pool's frame-interleaved streams wrap each transport exchange so
      card spans and fault instants attach to the right request. *)

  val current : t -> span
  (** Innermost span of the implicit stack ({!none} when empty). *)

  val instant : t -> ?args:(string * string) list -> string -> unit
  (** A point event attached to the current span (fault injections,
      prune decisions). *)

  val root_of : t -> span -> span
  (** Root ancestor of an {e open} span (itself for roots); {!none} for
      closed or unknown ids. Exemplars use it as the trace id. *)

  val pin : t -> span -> unit
  (** Under a policy: force the (open) tree containing this span to be
      retained regardless of the rules, with reason ["exemplar"]. No-op
      without a policy or after the root closed. *)

  val recorded : t -> int
  (** Events currently resident in the ring. *)

  val evicted : t -> int
  (** Events overwritten after the ring filled (surfaced as
      [trace.evicted] and in both exporters' metadata). *)

  val dropped_trees : t -> int
  (** Whole trees the policy discarded. *)

  val kept_trees : t -> int
  (** Trees the policy retained; 0 without a policy. *)

  val root_spans : t -> int
  (** Completed spans with no parent currently in the ring. *)

  val to_jsonl : t -> string
  (** One JSON object per line, oldest first; spans commit on [stop], so
      children precede their parent. Span lines carry
      [type/id/parent/name/ts_ns/dur_ns/args], instants the same minus
      [dur_ns]. Under a policy, or once anything was evicted, the first
      line is [{"type":"meta",...}] with
      [recorded]/[evicted]/[kept_trees]/[dropped_trees]; a tracer that
      records everything and evicted nothing writes none. *)

  val to_chrome : t -> string
  (** Chrome [trace_event] JSON ([{"traceEvents":[...]}]): spans as
      complete ([ph:"X"]) events with microsecond [ts]/[dur], instants as
      [ph:"i"]. The same accounting appears, in the same cases, as a
      top-level ["metadata"] object. Load the file in [about:tracing] or
      {{:https://ui.perfetto.dev}Perfetto}. *)
end

(** Windowed service-level objectives with multi-window burn-rate alerts,
    computed over registry cells at the times the caller passes
    (simulated nanoseconds — windows scale to simulated time, so tests
    and the chaos harness get 5m/1h-style pairs in milliseconds). *)
module Slo : sig
  type objective =
    | Availability of { good : string; total : string }
        (** Two counter names: fraction good/total must meet the target
            (e.g. [fleet.ok] / [fleet.requests]). *)
    | Latency of { histogram : string; threshold : int }
        (** A histogram name: observations in buckets with upper bound ≤
            [threshold] are good. The threshold effectively snaps to a
            log₂ bucket boundary (2{^i} - 1). *)

  type verdict = {
    name : string;
    target_pct : float;
    burn_threshold : float;
    good : int;  (** cumulative good events *)
    total : int;  (** cumulative total events *)
    current_pct : float;  (** compliance over the slow window *)
    fast_burn : float;  (** error-budget burn rate over the fast window *)
    slow_burn : float;
    breach : bool;  (** both burns ≥ [burn_threshold] *)
  }

  type t

  val create : Metrics.t -> t
  (** An engine reading objectives from this registry. *)

  val register :
    t ->
    name:string ->
    target_pct:float ->
    fast_ns:int64 ->
    slow_ns:int64 ->
    burn_threshold:float ->
    objective ->
    unit
  (** Track an objective: its target, its fast and slow windows (in the
      nanoseconds {!tick} and {!evaluate} are given — scaled-down windows
      under a simulated clock) and its burn threshold. Burn rate is
      bad-fraction / error-budget over a window; a breach requires
      {e both} windows to burn ≥ the threshold, so a long-settled
      incident stops alerting as soon as the fast window recovers. *)

  val tick : now:int64 -> t -> unit
  (** Record a cumulative sample per objective at [now]. Call at
      request/batch granularity; samples are pruned to the slow window. *)

  val evaluate : now:int64 -> t -> verdict list
  (** Verdicts at [now], in registration order, against live registry
      values. Windows reaching before the first sample treat the start of
      history as zero. *)

  val verdict_json : verdict -> string
end

val json_string : string -> string
(** Escape + quote one JSON string — shared by the hand-rolled JSON
    writers sitting above this library. *)

type t = { tracer : Tracer.t; metrics : Metrics.t }
(** One observability scope — typically one per CLI invocation or test,
    threaded as [?obs] through card, engine, proxy and fault layers so
    all of them share a trace and a registry. *)

val create :
  ?clock:Clock.t ->
  ?tracing:bool ->
  ?capacity:int ->
  ?policy:Policy.t ->
  unit ->
  t
(** Fresh scope. [tracing:false] pairs a {e disabled} tracer with a live
    registry — metrics without trace overhead. Without [policy] the
    tracer records every tree; with one it tail-samples
    ({!Tracer.create}). Retained and dropped trees count in
    [trace.retained] / [trace.dropped], ring overwrites in
    [trace.evicted]. *)

(** {2 [Obs.t option] conveniences}

    Instrumented code holds an [t option] and calls these. On [None]
    the updates are no-ops and the cell getters return a fresh cell. *)

val tracer : t option -> Tracer.t
val inc : t option -> string -> int -> unit
val set_gauge : t option -> string -> int -> unit

val observe : ?span:Tracer.span -> t option -> string -> int -> unit
(** Observe into the name's histogram. When the observation
    happens under an open span ([span] overrides {!Tracer.current}), it
    is recorded with an exemplar pointing at the span's root trace, and a
    new bucket max {!Tracer.pin}s that trace so the exemplar always
    resolves to a retained trace. *)

val counter : t option -> string -> Metrics.Counter.t
(** The scope's cell for this name, for a component that lives as long
    as its scope to increment directly; on [None], a fresh cell no
    registry reads. *)

val gauge : t option -> string -> Metrics.Gauge.t
val histogram : t option -> string -> Metrics.Histogram.t
