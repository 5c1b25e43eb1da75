(* perfbench: one seeded workload, untraced (end-to-end metrics) or
   traced (per-layer ledger). The last line of standard output is the
   result as one JSON object; the exit code is 0 only when every view
   matched its golden view and every self-check held.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

open Perfbench

let workloads =
  [ ("pull-egate",
     ( (fun ~seed ~seconds -> Pull.e2e (Pull.inputs ~seed ()) ~seconds),
       fun ~seed ~seconds -> Pull.traced (Pull.inputs ~seed ()) ~seconds ));
    ("fleet-churn",
     ( (fun ~seed ~seconds -> Fleet_churn.e2e (Fleet_churn.inputs ~seed ()) ~seconds),
       fun ~seed ~seconds ->
         Fleet_churn.traced (Fleet_churn.inputs ~seed ()) ~seconds ));
    ("dissem-feed",
     ( (fun ~seed ~seconds -> Dissem_feed.e2e (Dissem_feed.inputs ~seed ()) ~seconds),
       fun ~seed ~seconds ->
         Dissem_feed.traced (Dissem_feed.inputs ~seed ()) ~seconds )) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (pull-egate|fleet-churn|dissem-feed) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some (untraced, traced), Some seed, Some seconds, Some trace ->
      let r =
        if trace then traced ~seed ~seconds else untraced ~seed ~seconds
      in
      Report.print r;
      exit (if Report.correct r then 0 else 1)
  | _ -> usage ()
