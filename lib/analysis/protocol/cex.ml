module Fault = Sdds_fault.Fault

type t = {
  violation : Invariant.violation;
  steps : int;
  events : Fault.event list;
  spec : string;
  trace : string list;
}

(* Per-frame adversary choices -> the fault events, frame numbers being
   list positions. *)
let events_of_choices choices =
  List.concat
    (List.mapi
       (fun frame c ->
         match c with None -> [] | Some kind -> [ { Fault.frame; kind } ])
       choices)

let make ~violation ~choices ~trace =
  let events = events_of_choices choices in
  {
    violation;
    steps = List.length choices;
    events;
    spec = Fault.Schedule.to_spec (Fault.Schedule.of_events events);
    trace;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>violation: %a@,fault spec: %s (%d frames)@,@[<v>%a@]@]"
    Invariant.pp_violation t.violation t.spec t.steps
    (Format.pp_print_list Format.pp_print_string)
    t.trace
