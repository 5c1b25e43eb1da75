(* What every workload's world is built from: identities, seeded
   generators, zipf popularity, golden views, and the end-to-end metric
   set. *)

module Rng = Sdds_util.Rng
module Rsa = Sdds_crypto.Rsa
module Drbg = Sdds_crypto.Drbg
module Serializer = Sdds_xml.Serializer
module Oracle = Sdds_core.Oracle
module Rule = Sdds_core.Rule

(* Smaller than the experiments' 512 bits (PKCS#1 padding of a SHA-256
   digest needs 43 bytes): set-up is mostly RSA private-key operations,
   and it is repeated in every run. *)
let key_bits = 384

type ids = { publisher : Rsa.keypair; user : Rsa.keypair }

(* Identities are fixed per workload rather than drawn from the seed:
   prime search takes a seed-dependent number of candidates, and that
   luck would otherwise dominate the spread of [setup_s]. *)
let identities workload =
  let d = Drbg.create ~seed:("perfbench-identities/" ^ workload) in
  let publisher = Rsa.generate d ~bits:key_bits in
  let user = Rsa.generate d ~bits:key_bits in
  { publisher; user }

let drbg ~workload ~seed =
  Drbg.create ~seed:(Printf.sprintf "perfbench/%s/%d" workload seed)

(* An independent generator per (seed, purpose). *)
let rng ~seed salt =
  Rng.create
    (Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int salt))

(* Zipf(1.1) over [n] ranks: rank 0 is the hottest. *)
let zipf n =
  let w = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) 1.1) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cum =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  fun rng ->
    let u = float_of_int (Rng.int rng 1_000_000) /. 1.0e6 in
    let rec go k = if k >= n - 1 || u <= cum.(k) then k else go (k + 1) in
    go 0

(* A document from [gen] whose serialized size is within 2% of
   [target] bytes: draws until one fits, so that every seed gets
   documents of the same size class and the per-op work does not swing
   with the size luck of a seed. *)
let sized gen rng ~target =
  let rec draw k =
    let d = gen (Rng.split rng) in
    let n = String.length (Serializer.to_string d) in
    if k >= 1000 || abs (n - target) * 50 <= target then d else draw (k + 1)
  in
  draw 0

(* Current major heap, in words. Sampled between the ops of a run's
   deterministic window, its maximum depends on the seed only. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* The serialized view the oracle says a (document, rules, query) must
   produce, in the form the proxy returns it. *)
let golden ?query ~rules doc =
  Option.map
    (Serializer.to_string ~indent:true)
    (Oracle.authorized_view
       ?query:(Option.map Sdds_xpath.Parser.parse query)
       ~rules doc)

let rules_of ~subject spec =
  List.map
    (fun (sign, path) ->
      if sign = '+' then Rule.allow ~subject path else Rule.deny ~subject path)
    spec

(* One set-up on a collected heap: its seconds and the world. The heap is
   compacted afterwards, so every timed loop starts from the same state. *)
let build setup =
  Gc.full_major ();
  let s, w = Stat.timed setup in
  Gc.compact ();
  (s, w)

(* [reps] set-ups from the same inputs, each followed by a timed segment
   of [seconds /. reps] on its own world, [measure ~first w ~seconds];
   only the first segment holds the deterministic window. The host's
   speed drifts over tens of seconds, so segments spread over the whole
   run average more of that drift than one stretch at its end would.
   Returns the median set-up seconds. *)
let segments ~reps ~seconds setup measure =
  let reps = max 1 reps and times = ref [] in
  for r = 1 to reps do
    let s, w = build setup in
    times := s :: !times;
    measure ~first:(r = 1) w ~seconds:(seconds /. float_of_int reps)
  done;
  Stat.median !times

(* The untraced run's end-to-end metrics. [sims_ms], [words] and
   [heap_peak_words] cover the run's deterministic first ops only; the
   throughput covers every op. *)
let e2e ~setup_s ~ops ~busy_s ~sims_ms ~words ~det_ops ~heap_peak_words =
  let m = Report.metric in
  [ m "setup_s" "s" setup_s;
    m "throughput_ops_s" "1/s" (Stat.ratio (float_of_int ops) busy_s);
    m "sim_p50_ms" "ms" (Stat.quantile sims_ms 0.5);
    m "sim_p99_ms" "ms" (Stat.quantile sims_ms 0.99);
    m "minor_words_per_op" "words" (Stat.ratio words (float_of_int det_ops));
    m "heap_peak_mb" "MB"
      (float_of_int (heap_peak_words * (Sys.word_size / 8)) /. 1_048_576.0) ]

(* Run [f i] for i = 0, 1, ... until [seconds] have elapsed and at least
   [min_ops] calls were made; returns the number of calls. *)
let loop ~seconds ~min_ops f =
  let t_start = Stat.now () and i = ref 0 in
  while !i < min_ops || Stat.now () -. t_start < seconds do
    f !i;
    incr i
  done;
  !i

(* Prepared-cache hits, misses and evictions summed over [cards]. *)
let cache_totals cards =
  Array.fold_left
    (fun (h, m, e) c ->
      let s = Sdds_soe.Card.cache_stats c in
      (h + s.hits, m + s.misses, e + s.evictions))
    (0, 0, 0) cards

(* A small named-sum ledger for the traced run. *)
module Ledger = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let add_s t k s = add t k (1000.0 *. s)  (* seconds in, ms summed *)
  let peak t k v = Hashtbl.replace t k (Float.max (get t k) v)
end
