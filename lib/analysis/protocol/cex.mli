(** A minimized, replayable counterexample.

    The fault [spec] is a {!Sdds_fault.Fault.Schedule} spec string
    (guaranteed to re-parse through [Schedule.of_spec]): pass it to
    [sdds query --fault-spec] to drive the {e real} stack through the
    same adversary schedule the checker used. *)

module Fault = Sdds_fault.Fault

type t = {
  violation : Invariant.violation;
  steps : int;  (** frames in the schedule, faulty and clean *)
  events : Fault.event list;  (** the injected faults, by frame *)
  spec : string;  (** [Fault.Schedule.to_spec] of [events] *)
  trace : string list;  (** one narrated line per frame *)
}

val make :
  violation:Invariant.violation ->
  choices:Fault.kind option list ->
  trace:string list ->
  t

val pp : Format.formatter -> t -> unit
