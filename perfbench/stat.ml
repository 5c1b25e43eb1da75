(* Clocks and summary statistics shared by the workloads. *)

let now = Unix.gettimeofday

(* Seconds spent in [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Linear interpolation between closest ranks; 0 on an empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

(* [num /. den], 0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
