(** The finite host × card × fault product the checker explores.

    The card half is the {e production} transition function
    ({!Sdds_soe.Protocol.step}) instantiated with a synthetic
    string-handle backend — what the checker verifies is the code that
    runs. The host half is a downscaled rendition of the terminal's
    driver, [Sdds_proxy.Proxy.Pool], whose status-word triage is the real
    {!Sdds_soe.Remote_card.classify}. The adversary
    half reproduces {!Sdds_fault.Fault.Link}'s delivery semantics
    fault-kind by fault-kind, so counterexample schedules replay through
    [--fault-spec] with the same meaning.

    Downscaling: the sequence/block modulus and the response block size
    are shrunk (defaults 4 and 3) so the mod-N wraparound states — where
    the PR 6 duplicate-final-frame hole lives — are reachable within a
    handful of frames instead of 257. *)

module Protocol = Sdds_soe.Protocol
module Fault = Sdds_fault.Fault

type config = {
  semantics : Protocol.chain_semantics;
      (** chain completion-marker semantics under test *)
  modulus : int;  (** downscaled sequence/block modulus *)
  block : int;  (** downscaled response block size, bytes *)
  rules_frames : int;  (** frames per rules upload (1 byte per frame) *)
  with_query : bool;  (** upload a query chain too *)
  response_blocks : int;  (** view length in blocks *)
  versions : int list;  (** policy versions uploaded, in exchange order *)
  retry_budget : int;  (** host retries/re-establishments *)
  fault_budget : int;  (** adversary faults per explored trace *)
  alphabet : Fault.kind list;  (** fault kinds the adversary may pick *)
  bystander : bool;  (** pre-seed an innocent session on channel 1 *)
}

val current : config
(** The production protocol ({!Protocol.Identity_marker}), full fault
    alphabet, 3-frame uploads: the configuration [sdds check] must find
    clean. *)

val pre_fix : config
(** The preserved pre-fix fixture: {!Protocol.P2_marker} completion
    markers and a 5-frame upload whose final frame wraps to sequence 0
    mod 4 — the PR 6 hole's exact shape, downscaled. The checker must
    find a violation here. *)

val doc_id : string
val view : config -> version:int -> query:string option -> string

(** The model host driver: the terminal side of one (or several,
    for multi-version anti-rollback runs) select → rules → [query] →
    evaluate → drain exchanges, triaging replies with the production
    {!Sdds_soe.Remote_card.classify}. *)
type phase =
  | Select
  | Rules of int
  | Query_upload
  | Evaluate
  | Drain of int
  | Done_ok
  | Failed of string

type host = {
  phase : phase;
  exchange : int;
  budget : int;
  drained : string;
}

val command : config -> host -> Sdds_soe.Apdu.command option
(** The next frame the host sends, [None] once halted. *)

(** Monitor windows for the trace-local invariants. *)
type mon = {
  executed : ((int * string) * int) list;
  blocks : (int * (string * (int * int))) list;
}

type t = {
  host : host;
  card : string Protocol.state;
  nv : int;
  faults_left : int;
  mon : mon;
}

val start : config -> t

val halted : t -> (unit, string) result option
(** [Some (Ok ())] once the host believes every exchange completed,
    [Some (Error reason)] on a typed failure, [None] while running. *)

type transition = {
  state : t;
  reply : Sdds_soe.Apdu.response;
  violations : Invariant.violation list;
}

val apply : config -> t -> Fault.kind option -> transition option
(** One host frame under one adversary choice ([None] = fault-free
    delivery). Returns [None] iff the host has halted. Violations are
    judged on this single transition; an empty list means every
    invariant held. *)

val key : t -> string
(** Canonical encoding of everything behaviorally relevant (host, card
    sessions, stable high-water mark, fault budget, monitor windows) —
    the visited set hashes this with {!Sdds_util.Fnv}. *)
