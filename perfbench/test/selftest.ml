(* Self-tests of the benchmark on reduced worlds: set-up leaves no grant
   to install for the timed loop, and two runs with one seed agree
   exactly on every simulated, count and allocation figure. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let pull_scale = { Pull.docs = 2; doc_bytes = 3_000; det_ops = 12 }
let fleet_scale = { Fleet_churn.docs = 4; det_ops = 40 }

let dissem_scale =
  { Dissem_feed.items = 30; subscribers = 8; det_ops = 2 }

(* The first timed op of pull-egate (indeed every scheduled op) finds
   its document key already installed on its card, so [Proxy.run] does
   not unwrap a grant inside the timed loop. *)
let () =
  let inp = Pull.inputs ~scale:pull_scale ~seed:3 () in
  let w = Pull.setup inp in
  let first = inp.Pull.schedule.(0) in
  if
    not
      (Sdds_soe.Card.has_key w.Pull.cards.(first.Pull.pol)
         ~doc_id:inp.Pull.doc_ids.(first.Pull.doc))
  then fail "pull-egate: the first timed op would install a grant";
  if Pull.pending_grants inp w <> [] then
    fail "pull-egate: a scheduled op would install a grant"

(* Figures that depend on the host's speed, and the process-wide heap
   peak (whatever an earlier run in this process left behind shows in
   it); everything else a run reports is a function of the seed. *)
let host_timed (m : Report.metric) =
  m.unit = "s" || m.unit = "1/s" || m.unit = "MB"
  || List.mem m.name
       ([ "op.wall_ms";
          "other.ms"; "trace.overhead_ms"; "dsp.update_sign_ms";
          "engine.ns_per_event" ]
       @ Replay.host_layers)

let same name (a : Report.t) (b : Report.t) =
  if not (Report.correct a && Report.correct b) then
    fail "%s: a run was not correct" name;
  if a.attempted <> b.attempted then
    fail "%s: attempted %d vs %d" name a.attempted b.attempted;
  List.iter2
    (fun (x : Report.metric) (y : Report.metric) ->
      if (not (host_timed x)) && x.value <> y.value then
        fail "%s: %s differs: %.17g vs %.17g" name x.name x.value y.value)
    a.metrics b.metrics

let twice name run =
  same name (run ()) (run ());
  Printf.printf "%s: deterministic\n%!" name

let () =
  twice "pull-egate" (fun () ->
      Pull.e2e ~reps:1 (Pull.inputs ~scale:pull_scale ~seed:5 ()) ~seconds:0.0);
  twice "pull-egate traced" (fun () ->
      Pull.traced (Pull.inputs ~scale:pull_scale ~seed:5 ()) ~seconds:0.0);
  twice "fleet-churn" (fun () ->
      Fleet_churn.e2e ~reps:1
        (Fleet_churn.inputs ~scale:fleet_scale ~seed:5 ())
        ~seconds:0.0);
  twice "fleet-churn traced" (fun () ->
      Fleet_churn.traced (Fleet_churn.inputs ~scale:fleet_scale ~seed:5 ())
        ~seconds:0.0);
  twice "dissem-feed" (fun () ->
      Dissem_feed.e2e ~reps:1
        (Dissem_feed.inputs ~scale:dissem_scale ~seed:5 ())
        ~seconds:0.0);
  twice "dissem-feed traced" (fun () ->
      Dissem_feed.traced (Dissem_feed.inputs ~scale:dissem_scale ~seed:5 ())
        ~seconds:0.0)
