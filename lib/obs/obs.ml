module Clock = struct
  type t = unit -> int64

  let system () = Int64.of_float (Unix.gettimeofday () *. 1e9)

  let manual () =
    let t = ref 0L in
    fun () ->
      let v = !t in
      t := Int64.add !t 1000L;
      v
end

(* ------------------------------------------------------------------ *)
(* JSON helpers: the one string escaper. Obs sits below every other
   library, so the analysis writer ([Sdds_analysis.Json]) calls it.    *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let json_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) args)
  ^ "}"

module Metrics = struct
  module Counter = struct
    type t = { mutable n : int }

    let create () = { n = 0 }
    let inc c = c.n <- c.n + 1
    let add c k = c.n <- c.n + k
    let value c = c.n
  end

  module Gauge = struct
    type t = { mutable v : int; mutable p : int }

    let create () = { v = 0; p = 0 }

    let set g x =
      g.v <- x;
      if x > g.p then g.p <- x

    let value g = g.v
    let peak g = g.p
  end

  module Histogram = struct
    let max_buckets = 63

    type exemplar = { ex_value : int; ex_trace : int; ex_span : int }

    type t = {
      counts : int array;
      mutable total : int;
      mutable sum : int;
      mutable ex : exemplar option array;  (* [||] until the first exemplar *)
    }

    let create () =
      { counts = Array.make max_buckets 0; total = 0; sum = 0; ex = [||] }

    (* Smallest [i] with [v < 2^i]: 0 -> 0, 1 -> 1, 255 -> 8, ... *)
    let bucket_of v =
      let rec go i =
        if i >= max_buckets - 1 || v < 1 lsl i then i else go (i + 1)
      in
      go 0

    let observe h v =
      let v = max 0 v in
      let i = bucket_of v in
      h.counts.(i) <- h.counts.(i) + 1;
      h.total <- h.total + 1;
      h.sum <- h.sum + v

    (* Observe [v] and make (trace, span) the bucket's exemplar when it is
       the largest value the bucket has seen. Returns [true] exactly when
       the exemplar was installed or replaced, so the caller can pin the
       owning trace against tail-sampling. *)
    let observe_exemplar h ~trace ~span v =
      let v = max 0 v in
      let i = bucket_of v in
      h.counts.(i) <- h.counts.(i) + 1;
      h.total <- h.total + 1;
      h.sum <- h.sum + v;
      if Array.length h.ex = 0 then h.ex <- Array.make max_buckets None;
      match h.ex.(i) with
      | Some e when e.ex_value >= v -> false
      | _ ->
          h.ex.(i) <- Some { ex_value = v; ex_trace = trace; ex_span = span };
          true

    let count h = h.total
    let sum h = h.sum

    let last_nonempty h =
      let rec go i = if i < 0 then -1 else if h.counts.(i) > 0 then i else go (i - 1) in
      go (max_buckets - 1)

    let buckets h =
      let hi = last_nonempty h in
      List.init (hi + 1) (fun i -> ((1 lsl i) - 1, h.counts.(i)))

    let exemplars h =
      if Array.length h.ex = 0 then []
      else
        List.filter_map
          (fun i ->
            match h.ex.(i) with
            | Some e -> Some ((1 lsl i) - 1, e)
            | None -> None)
          (List.init max_buckets Fun.id)
  end

  (* One cell per name and kind. The hot path touches only the cell; the
     registry is read at snapshot time, in time and space proportional to
     its names. *)
  type t = {
    counters : (string, Counter.t) Hashtbl.t;
    gauges : (string, Gauge.t) Hashtbl.t;
    histograms : (string, Histogram.t) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 16;
    }

  let get_or_create tbl make name =
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.add tbl name c;
        c

  let counter t name = get_or_create t.counters Counter.create name
  let gauge t name = get_or_create t.gauges Gauge.create name
  let histogram t name = get_or_create t.histograms Histogram.create name

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

  let counter_value t name =
    match Hashtbl.find_opt t.counters name with
    | Some c -> Counter.value c
    | None -> 0

  let gauge_value t name =
    match Hashtbl.find_opt t.gauges name with
    | Some g -> (Gauge.value g, Gauge.peak g)
    | None -> (0, 0)

  let histogram_snapshot t name =
    match Hashtbl.find_opt t.histograms name with
    | Some h ->
        { h_count = Histogram.count h; h_sum = Histogram.sum h;
          h_buckets = Histogram.buckets h; h_exemplars = Histogram.exemplars h }
    | None -> { h_count = 0; h_sum = 0; h_buckets = []; h_exemplars = [] }

  let snapshot t =
    let values tbl f = Hashtbl.fold (fun n c acc -> (n, f c) :: acc) tbl [] in
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (values t.counters (fun c -> Counter_v (Counter.value c))
      @ values t.gauges (fun g ->
            Gauge_v { value = Gauge.value g; peak = Gauge.peak g })
      @ values t.histograms (fun h ->
            Histogram_v
              { count = Histogram.count h; sum = Histogram.sum h;
                buckets = Histogram.buckets h;
                exemplars = Histogram.exemplars h }))

  let mangle name =
    "sdds_"
    ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

  let to_prometheus t =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (name, v) ->
        let m = mangle name in
        match v with
        | Counter_v n ->
            Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" m);
            Buffer.add_string buf (Printf.sprintf "%s %d\n" m n)
        | Gauge_v { value; peak } ->
            Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" m);
            Buffer.add_string buf (Printf.sprintf "%s %d\n" m value);
            Buffer.add_string buf (Printf.sprintf "# TYPE %s_peak gauge\n" m);
            Buffer.add_string buf (Printf.sprintf "%s_peak %d\n" m peak)
        | Histogram_v { count; sum; buckets; exemplars } ->
            Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" m);
            let cum = ref 0 in
            List.iter
              (fun (le, n) ->
                cum := !cum + n;
                let ex =
                  (* OpenMetrics exemplar: jump from the bucket to the
                     retained trace that produced its max observation. *)
                  match List.assoc_opt le exemplars with
                  | Some e ->
                      Printf.sprintf
                        " # {trace_id=\"%d\",span_id=\"%d\"} %d"
                        e.Histogram.ex_trace e.Histogram.ex_span
                        e.Histogram.ex_value
                  | None -> ""
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{le=\"%d\"} %d%s\n" m le !cum ex))
              buckets;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m count);
            Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" m sum);
            Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m count))
      (snapshot t);
    Buffer.contents buf

  let to_json t =
    let snap = snapshot t in
    let pick f = List.filter_map f snap in
    let counters =
      pick (function
        | n, Counter_v v -> Some (Printf.sprintf "%s:%d" (json_string n) v)
        | _ -> None)
    in
    let gauges =
      pick (function
        | n, Gauge_v { value; peak } ->
            Some
              (Printf.sprintf "%s:{\"value\":%d,\"peak\":%d}" (json_string n)
                 value peak)
        | _ -> None)
    in
    let histograms =
      pick (function
        | n, Histogram_v { count; sum; buckets; exemplars } ->
            let bs =
              String.concat ","
                (List.map (fun (le, c) -> Printf.sprintf "[%d,%d]" le c) buckets)
            in
            let exs =
              if exemplars = [] then ""
              else
                Printf.sprintf ",\"exemplars\":[%s]"
                  (String.concat ","
                     (List.map
                        (fun (le, e) ->
                          Printf.sprintf "[%d,%d,%d,%d]" le
                            e.Histogram.ex_value e.Histogram.ex_trace
                            e.Histogram.ex_span)
                        exemplars))
            in
            Some
              (Printf.sprintf "%s:{\"count\":%d,\"sum\":%d,\"buckets\":[%s]%s}"
                 (json_string n) count sum bs exs)
        | _ -> None)
    in
    Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
      (String.concat "," counters)
      (String.concat "," gauges)
      (String.concat "," histograms)
end

(* ------------------------------------------------------------------ *)
(* Tail-sampling retention policies.                                   *)
(* ------------------------------------------------------------------ *)

module Policy = struct
  type view = {
    v_span : bool;
    v_name : string;
    v_dur_ns : int64;
    v_args : (string * string) list;
  }

  type rule = {
    rule_name : string;
    rule_matches : root:view -> view list -> bool;
  }

  let rule ~name f = { rule_name = name; rule_matches = f }
  let name r = r.rule_name
  let matches r ~root evs = r.rule_matches ~root evs

  let error_outcome =
    rule ~name:"error" (fun ~root evs ->
        let bad v =
          match List.assoc_opt "outcome" v.v_args with
          | Some s -> s <> "ok"
          | None -> false
        in
        bad root || List.exists (fun v -> v.v_span && bad v) evs)

  let latency_at_least ns =
    rule ~name:"latency" (fun ~root _ -> Int64.compare root.v_dur_ns ns >= 0)

  let fault_instant =
    rule ~name:"fault" (fun ~root:_ evs ->
        List.exists (fun v -> (not v.v_span) && v.v_name = "fault") evs)

  let span_named n =
    rule
      ~name:("span:" ^ n)
      (fun ~root evs ->
        root.v_name = n || List.exists (fun v -> v.v_span && v.v_name = n) evs)

  type t = { rules : rule list; baseline_1_in : int }

  let v ?(baseline_1_in = 0) rules =
    if baseline_1_in < 0 then invalid_arg "Policy.v: baseline_1_in < 0";
    { rules; baseline_1_in }

  let default ?(baseline_1_in = 8) ?latency_ns () =
    v ~baseline_1_in
      (error_outcome
       :: (match latency_ns with
          | Some ns -> [ latency_at_least ns ]
          | None -> [])
      @ [ fault_instant; span_named "fleet.migrate" ])
end

module Tracer = struct
  type span = int

  let none = 0

  type ev = {
    e_span : bool;
    e_id : int;
    e_parent : int;
    e_name : string;
    e_start : int64;
    e_dur : int64;
    e_args : (string * string) list;
  }

  let dummy_ev =
    { e_span = false; e_id = 0; e_parent = 0; e_name = ""; e_start = 0L;
      e_dur = 0L; e_args = [] }

  type open_span = {
    o_name : string;
    o_parent : int;
    o_root : int;  (* root ancestor; the span's own id for roots *)
    o_start : int64;
    o_args : (string * string) list;
  }

  type t = {
    on : bool;
    clock : Clock.t;
    cap : int;
    policy : Policy.t option;  (* None: every tree is recorded *)
    ring : ev array;
    mutable head : int;  (* index of the oldest event *)
    mutable len : int;
    mutable evicted : int;
    mutable next_id : int;
    mutable stack : int list;  (* implicit current-span path *)
    opens : (int, open_span) Hashtbl.t;
    (* Under a policy: finished descendants buffered per open root until
       the root finishes and the policy decides. *)
    pending : (int, ev list ref) Hashtbl.t;
    pinned : (int, unit) Hashtbl.t;  (* roots forced kept by exemplars *)
    mutable roots_done : int;  (* completed roots, for the tail baseline *)
    mutable dropped_trees : int;
    mutable kept_trees : int;
    on_keep : string -> unit;
    on_drop : unit -> unit;
    on_evict : unit -> unit;
  }

  let nop_keep (_ : string) = ()
  let nop () = ()

  let disabled =
    {
      on = false;
      clock = (fun () -> 0L);
      cap = 0;
      policy = None;
      ring = [||];
      head = 0;
      len = 0;
      evicted = 0;
      next_id = 1;
      stack = [];
      opens = Hashtbl.create 1;
      pending = Hashtbl.create 1;
      pinned = Hashtbl.create 1;
      roots_done = 0;
      dropped_trees = 0;
      kept_trees = 0;
      on_keep = nop_keep;
      on_drop = nop;
      on_evict = nop;
    }

  let create ?(clock = Clock.system) ?(capacity = 65536) ?policy
      ?(on_keep = nop_keep) ?(on_drop = nop) ?(on_evict = nop) () =
    if capacity < 1 then invalid_arg "Tracer.create: capacity < 1";
    {
      on = true;
      clock;
      cap = capacity;
      policy;
      ring = Array.make capacity dummy_ev;
      head = 0;
      len = 0;
      evicted = 0;
      next_id = 1;
      stack = [];
      opens = Hashtbl.create 64;
      pending = Hashtbl.create 16;
      pinned = Hashtbl.create 16;
      roots_done = 0;
      dropped_trees = 0;
      kept_trees = 0;
      on_keep;
      on_drop;
      on_evict;
    }

  let enabled t = t.on
  let now t = if t.on then t.clock () else 0L

  let push t ev =
    if t.len < t.cap then begin
      t.ring.((t.head + t.len) mod t.cap) <- ev;
      t.len <- t.len + 1
    end
    else begin
      t.ring.(t.head) <- ev;
      t.head <- (t.head + 1) mod t.cap;
      t.evicted <- t.evicted + 1;
      t.on_evict ()
    end

  let current t = match t.stack with s :: _ -> s | [] -> none

  (* Every span records; under a policy the keep/drop decision happens
     when the root stops. *)
  let fresh t ~parent name args =
    let id = t.next_id in
    t.next_id <- id + 1;
    let root =
      if parent = none then id
      else
        match Hashtbl.find_opt t.opens parent with
        | Some o -> o.o_root
        | None -> none
    in
    Hashtbl.replace t.opens id
      { o_name = name; o_parent = parent; o_root = root; o_start = t.clock ();
        o_args = args };
    if t.policy <> None && root = id then Hashtbl.replace t.pending id (ref []);
    id

  let start t ?parent ?(args = []) name =
    if not t.on then none
    else
      let parent = match parent with Some p -> p | None -> current t in
      fresh t ~parent name args

  let view_of ev =
    { Policy.v_span = ev.e_span; v_name = ev.e_name; v_dur_ns = ev.e_dur;
      v_args = ev.e_args }

  let finish_root t policy root_ev =
    let root = root_ev.e_id in
    let buf =
      match Hashtbl.find_opt t.pending root with
      | Some r -> List.rev !r
      | None -> []
    in
    Hashtbl.remove t.pending root;
    let was_pinned = Hashtbl.mem t.pinned root in
    Hashtbl.remove t.pinned root;
    let n = t.roots_done in
    t.roots_done <- n + 1;
    let reason =
      if was_pinned then Some "exemplar"
      else
        let root_v = view_of root_ev in
        let evs_v = List.map view_of buf in
        match
          List.find_opt
            (fun r -> Policy.matches r ~root:root_v evs_v)
            policy.Policy.rules
        with
        | Some r -> Some (Policy.name r)
        | None ->
            if
              policy.Policy.baseline_1_in > 0
              && n mod policy.Policy.baseline_1_in = 0
            then Some "baseline"
            else None
    in
    match reason with
    | Some why ->
        t.kept_trees <- t.kept_trees + 1;
        List.iter (push t) buf;
        push t
          { root_ev with e_args = root_ev.e_args @ [ ("sampled.reason", why) ] };
        t.on_keep why
    | None ->
        t.dropped_trees <- t.dropped_trees + 1;
        t.on_drop ()

  let stop t ?(args = []) span =
    if t.on && span <> none then
      match Hashtbl.find_opt t.opens span with
      | None -> ()
      | Some o -> (
          Hashtbl.remove t.opens span;
          let stop_ns = t.clock () in
          let ev =
            {
              e_span = true;
              e_id = span;
              e_parent = o.o_parent;
              e_name = o.o_name;
              e_start = o.o_start;
              e_dur = Int64.sub stop_ns o.o_start;
              e_args = o.o_args @ args;
            }
          in
          match t.policy with
          | None -> push t ev
          | Some policy ->
              if o.o_root = span then finish_root t policy ev
              else (
                match Hashtbl.find_opt t.pending o.o_root with
                | Some r -> r := ev :: !r
                | None ->
                    (* Root already flushed (or unknown): commit directly
                       rather than leak. *)
                    push t ev))

  let with_parent t span f =
    if not t.on then f ()
    else begin
      t.stack <- span :: t.stack;
      Fun.protect
        ~finally:(fun () ->
          match t.stack with _ :: rest -> t.stack <- rest | [] -> ())
        f
    end

  let with_span t ?args name f =
    if not t.on then f ()
    else begin
      let id = start t ?args name in
      t.stack <- id :: t.stack;
      Fun.protect
        ~finally:(fun () ->
          (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
          stop t id)
        f
    end

  (* Root ancestor of an open span; [none] for anything else (ids start
     at 1, so [none] is never open). *)
  let root_of t span =
    match Hashtbl.find_opt t.opens span with
    | Some o -> o.o_root
    | None -> none

  let instant t ?(args = []) name =
    if t.on then begin
      let parent = current t in
      let id = t.next_id in
      t.next_id <- id + 1;
      let ev =
        {
          e_span = false;
          e_id = id;
          e_parent = parent;
          e_name = name;
          e_start = t.clock ();
          e_dur = 0L;
          e_args = args;
        }
      in
      match Hashtbl.find_opt t.pending (root_of t parent) with
      | Some r -> r := ev :: !r
      | None -> push t ev
    end

  (* A no-op without a policy: nothing is pending. *)
  let pin t span =
    match Hashtbl.find_opt t.opens span with
    | Some o ->
        if Hashtbl.mem t.pending o.o_root then
          Hashtbl.replace t.pinned o.o_root ()
    | None -> ()

  let events t = List.init t.len (fun i -> t.ring.((t.head + i) mod t.cap))
  let recorded t = t.len
  let evicted t = t.evicted
  let dropped_trees t = t.dropped_trees
  let kept_trees t = t.kept_trees
  let tail_mode t = t.policy <> None

  let root_spans t =
    List.length (List.filter (fun e -> e.e_span && e.e_parent = none) (events t))

  (* Retention accounting belongs in the export: a reader of a sampled
     trace must be able to tell "nothing else happened" from "the rest
     was dropped". Only emitted once there is something to account for
     (a policy, or evictions) so full traces stay byte-compatible with
     pre-sampling exports. *)
  let meta_wanted t = tail_mode t || t.evicted > 0

  let meta_fields t =
    Printf.sprintf
      "\"recorded\":%d,\"evicted\":%d,\"kept_trees\":%d,\"dropped_trees\":%d"
      t.len t.evicted t.kept_trees t.dropped_trees

  let to_jsonl t =
    let buf = Buffer.create 4096 in
    if meta_wanted t then
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"meta\",%s}\n" (meta_fields t));
    List.iter
      (fun e ->
        if e.e_span then
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"span\",\"id\":%d,\"parent\":%d,\"name\":%s,\"ts_ns\":%Ld,\"dur_ns\":%Ld,\"args\":%s}\n"
               e.e_id e.e_parent (json_string e.e_name) e.e_start e.e_dur
               (json_args e.e_args))
        else
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"instant\",\"id\":%d,\"parent\":%d,\"name\":%s,\"ts_ns\":%Ld,\"args\":%s}\n"
               e.e_id e.e_parent (json_string e.e_name) e.e_start
               (json_args e.e_args)))
      (events t);
    Buffer.contents buf

  (* Deterministic µs rendering: ns / 1000 with a 3-digit fraction, no
     float formatting involved. *)
  let us ns = Printf.sprintf "%Ld.%03Ld" (Int64.div ns 1000L) (Int64.rem ns 1000L)

  let to_chrome t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",";
    if meta_wanted t then
      Buffer.add_string buf
        (Printf.sprintf "\"metadata\":{%s}," (meta_fields t));
    Buffer.add_string buf "\"traceEvents\":[";
    let first = ref true in
    List.iter
      (fun e ->
        if !first then first := false else Buffer.add_char buf ',';
        let args =
          json_args
            (e.e_args
            @ [ ("span_id", string_of_int e.e_id);
                ("parent", string_of_int e.e_parent) ])
        in
        if e.e_span then
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":%s,\"cat\":\"sdds\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":%s}"
               (json_string e.e_name) (us e.e_start) (us e.e_dur) args)
        else
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":%s,\"cat\":\"sdds\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":%s,\"args\":%s}"
               (json_string e.e_name) (us e.e_start) args))
      (events t);
    Buffer.add_string buf "]}";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* SLO engine: windowed objectives and multi-window burn rates over
   registry cells, at the times the caller passes.                     *)
(* ------------------------------------------------------------------ *)

module Slo = struct
  type objective =
    | Availability of { good : string; total : string }
    | Latency of { histogram : string; threshold : int }

  type verdict = {
    name : string;
    target_pct : float;
    burn_threshold : float;
    good : int;
    total : int;
    current_pct : float;
    fast_burn : float;
    slow_burn : float;
    breach : bool;
  }

  type tracked = {
    t_name : string;
    t_obj : objective;
    t_target : float;
    t_fast : int64;
    t_slow : int64;
    t_burn : float;
    (* (at, good, total) cumulative samples, newest first; pruned to the
       slow window plus one base sample strictly older. *)
    mutable t_samples : (int64 * int * int) list;
  }

  type t = { s_metrics : Metrics.t; mutable s_objs : tracked list }

  let create metrics = { s_metrics = metrics; s_objs = [] }

  let register t ~name ~target_pct ~fast_ns ~slow_ns ~burn_threshold obj =
    if target_pct <= 0.0 || target_pct >= 100.0 then
      invalid_arg "Slo.register: target_pct outside (0, 100)";
    if Int64.compare fast_ns slow_ns >= 0 then
      invalid_arg "Slo.register: fast_ns must be < slow_ns";
    if List.exists (fun o -> o.t_name = name) t.s_objs then
      invalid_arg ("Slo.register: duplicate objective " ^ name);
    t.s_objs <-
      t.s_objs
      @ [ { t_name = name; t_obj = obj; t_target = target_pct; t_fast = fast_ns;
            t_slow = slow_ns; t_burn = burn_threshold; t_samples = [] } ]

  let read t tr =
    match tr.t_obj with
    | Availability { good; total } ->
        ( Metrics.counter_value t.s_metrics good,
          Metrics.counter_value t.s_metrics total )
    | Latency { histogram; threshold } ->
        let s = Metrics.histogram_snapshot t.s_metrics histogram in
        let good =
          List.fold_left
            (fun a (ub, n) -> if ub <= threshold then a + n else a)
            0 s.Metrics.h_buckets
        in
        (good, s.Metrics.h_count)

  let tick ~now:at t =
    List.iter
      (fun tr ->
        let good, total = read t tr in
        let cutoff = Int64.sub at tr.t_slow in
        let rec keep = function
          | [] -> []
          | ((ts, _, _) as s) :: rest ->
              if Int64.compare ts cutoff >= 0 then s :: keep rest else [ s ]
        in
        tr.t_samples <- (at, good, total) :: keep tr.t_samples)
      t.s_objs

  (* Cumulative (good, total) at the newest sample not after [cutoff];
     (0, 0) when the window opens before the first sample. *)
  let base_at samples cutoff =
    let rec go = function
      | [] -> (0, 0)
      | (ts, g, n) :: rest ->
          if Int64.compare ts cutoff <= 0 then (g, n) else go rest
    in
    go samples

  let evaluate ~now:at t =
    List.map
      (fun tr ->
        let good, total = read t tr in
        let over w =
          let g0, n0 = base_at tr.t_samples (Int64.sub at w) in
          let dg = good - g0 and dn = total - n0 in
          if dn <= 0 then (0.0, 100.0)
          else
            let bad = float_of_int (dn - dg) /. float_of_int dn in
            let budget = (100.0 -. tr.t_target) /. 100.0 in
            (bad /. budget, 100.0 *. float_of_int dg /. float_of_int dn)
        in
        let fast_burn, _ = over tr.t_fast in
        let slow_burn, current_pct = over tr.t_slow in
        {
          name = tr.t_name;
          target_pct = tr.t_target;
          burn_threshold = tr.t_burn;
          good;
          total;
          current_pct;
          fast_burn;
          slow_burn;
          breach = fast_burn >= tr.t_burn && slow_burn >= tr.t_burn;
        })
      t.s_objs

  let verdict_json v =
    Printf.sprintf
      "{\"name\":%s,\"target_pct\":%.3f,\"current_pct\":%.3f,\"fast_burn\":%.3f,\"slow_burn\":%.3f,\"burn_threshold\":%.3f,\"good\":%d,\"total\":%d,\"breach\":%b}"
      (json_string v.name) v.target_pct v.current_pct v.fast_burn v.slow_burn
      v.burn_threshold v.good v.total v.breach
end

type t = { tracer : Tracer.t; metrics : Metrics.t }

let create ?clock ?(tracing = true) ?capacity ?policy () =
  let metrics = Metrics.create () in
  let tracer =
    if tracing then
      Tracer.create ?clock ?capacity ?policy
        ~on_keep:(fun _ ->
          Metrics.Counter.inc (Metrics.counter metrics "trace.retained"))
        ~on_drop:(fun () ->
          Metrics.Counter.inc (Metrics.counter metrics "trace.dropped"))
        ~on_evict:(fun () ->
          Metrics.Counter.inc (Metrics.counter metrics "trace.evicted"))
        ()
    else Tracer.disabled
  in
  { tracer; metrics }

let tracer = function None -> Tracer.disabled | Some o -> o.tracer

let inc o name by =
  match o with
  | None -> ()
  | Some o -> Metrics.Counter.add (Metrics.counter o.metrics name) by

let set_gauge o name v =
  match o with
  | None -> ()
  | Some o -> Metrics.Gauge.set (Metrics.gauge o.metrics name) v

let observe ?span o name v =
  match o with
  | None -> ()
  | Some o ->
      let h = Metrics.histogram o.metrics name in
      let sp =
        match span with Some s -> s | None -> Tracer.current o.tracer
      in
      let root = Tracer.root_of o.tracer sp in
      if root = Tracer.none then Metrics.Histogram.observe h v
      else if Metrics.Histogram.observe_exemplar h ~trace:root ~span:sp v then
        (* A new bucket max pins the owning trace (under a policy), so
           every exported exemplar resolves to a retained trace. *)
        Tracer.pin o.tracer root

let counter o name =
  match o with
  | None -> Metrics.Counter.create ()
  | Some o -> Metrics.counter o.metrics name

let gauge o name =
  match o with
  | None -> Metrics.Gauge.create ()
  | Some o -> Metrics.gauge o.metrics name

let histogram o name =
  match o with
  | None -> Metrics.Histogram.create ()
  | Some o -> Metrics.histogram o.metrics name
