(** Deterministic fault injection for the APDU link and the DSP disk.

    The demo platform is the hostile case for reliability: a card that
    can be torn out mid-evaluation, a 2 KB/s serial link that drops and
    corrupts frames, a commodity DSP whose disk can fail. This module
    injects exactly those faults, deterministically: a {!Schedule} maps
    frame numbers to faults — either an explicit event list or a seeded
    random process whose decision for frame [n] depends only on the seed
    and [n] — so any failing run replays bit-identically from its seed,
    and every injected fault is logged to a trace that can itself be
    turned back into a schedule ({!Schedule.of_events}).

    {b Fault model.} The modeled link layer checksums every frame, so
    corruption and truncation are {e detected}: the terminal sees the
    transient {!Sdds_soe.Remote_card.Sw.transport} word, never altered
    payload bytes (Byzantine delivery would model a broken CRC, not a
    lossy serial link). Dropped or corrupted {e commands} never reach
    the card; dropped or corrupted {e responses} mean the card processed
    a command whose answer the terminal never saw — the case the host's
    duplicate-ack and block-retransmission machinery exists for. A
    {!kind.Tear} models power loss: the card's volatile sessions vanish
    mid-exchange (via the [tear] callback, typically
    {!Sdds_soe.Remote_card.Host.tear}) and the terminal's frame is
    lost. *)

(** What can go wrong on one frame of the exchange. *)
type kind =
  | Drop_command  (** the command never reaches the card *)
  | Drop_response  (** the card processes it; the answer is lost *)
  | Corrupt_command  (** detected by the link CRC before the card *)
  | Corrupt_response  (** detected by the link CRC at the terminal *)
  | Duplicate_command
      (** the line echoes the frame twice; the card answers both *)
  | Spurious_status  (** the card answers a transient internal error *)
  | Tear  (** power loss: all volatile card sessions reset *)

val all_kinds : kind array

val kind_to_string : kind -> string
(** Kebab-case names ([drop-command], [tear], ...), stable: they appear
    in [--fault-spec] and in traces. *)

val kind_of_string : string -> kind option

type event = { frame : int; kind : kind }
(** One injected fault: [kind] hit the [frame]-th frame (0-based) sent
    over the link. *)

val deliver :
  kind option ->
  send:(unit -> Sdds_soe.Apdu.response) ->
  tear:(unit -> unit) ->
  Sdds_soe.Apdu.response
(** One frame through the lossy link under [fault], returning what the
    terminal reads. [send ()] delivers the frame to the card and returns
    its answer; [tear ()] resets the card's volatile sessions. [None]
    sends once. A dropped or corrupted command never sends; a dropped or
    corrupted response sends and reads the transient transport word; a
    duplicate sends twice and reads the second answer; a spurious status
    reads the internal-error word without sending; a tear tears and
    reads the transport word. {!Link} and the protocol model checker
    both deliver through this function. *)

(** When to inject what. *)
module Schedule : sig
  type t

  val none : t

  val of_events : event list -> t
  (** Inject exactly these events (at most one fault per frame; later
      entries for the same frame win). Turning a {!Link.trace} back into
      a schedule replays a recorded run. *)

  val random : seed:int64 -> rate:float -> ?kinds:kind array -> unit -> t
  (** Each frame independently faults with probability [rate], the kind
      drawn uniformly from [kinds] (default {!all_kinds}). Stateless in
      the frame number: replays identically regardless of how many
      frames the recovering host ends up sending. *)

  val for_card : t -> int -> t
  (** [for_card t i] is the schedule card [i] of a fleet sees behind a
      shared spec: a {!random} schedule reseeds with the card index mixed
      in, so each card suffers an independent (but still deterministic,
      replayable) fault stream; [none] and explicit {!of_events}
      schedules apply to every card as-is — they are positional, and a
      directed test wants the same event on whichever card it targets.
      [to_spec] of a derived schedule shows the mixed seed. *)

  type parse_error = { pos : int; msg : string }
  (** A malformed spec: [pos] is the byte offset of the offending token
      in the string as given (so an editor or error message can point at
      it), [msg] says what was expected. *)

  val string_of_parse_error : parse_error -> string

  val of_spec : string -> (t, parse_error) result
  (** Parse the [--fault-spec] syntax: ["none"], an explicit event list
      ["@3:tear,@10:drop-response"], or a random schedule
      ["seed=42,rate=0.05"] / ["seed=42,rate=0.1,kinds=tear+drop-command"].
      Anything else, an unknown field included, is an [Error] at the
      offending token. *)

  val to_spec : t -> string
  (** A spec string for the schedule: for any schedule built by {!none},
      {!of_events} or {!random}, [of_spec (to_spec t)] succeeds and the
      result takes the same {!decide} decision on every frame — the
      protocol checker's counterexamples rely on it to be
      copy-pasteable. *)

  val decide : t -> int -> kind option
end

(** A lossy link wrapped around any APDU transport. *)
module Link : sig
  type t

  type traced = { event : event; span : int }
  (** One injected fault plus the tracer span it landed in —
      [Sdds_obs.Obs.Tracer.none] (0) when the link was wrapped without an
      observability scope or the fault fired outside any span. Merging
      {!traced} with the tracer's export yields a single timeline of
      requests and the faults that hit them. *)

  val wrap :
    ?obs:Sdds_obs.Obs.t ->
    schedule:Schedule.t ->
    ?tear:(unit -> unit) ->
    Sdds_soe.Remote_card.transport ->
    t
  (** [wrap ~schedule ?tear inner] interposes the schedule on [inner].
      [tear] is invoked when a {!kind.Tear} fires — pass
      [fun () -> Remote_card.Host.tear host]; without it a tear degrades
      to a dropped command.

      [obs] logs every injection as a [fault] instant on the current
      request span, counts [fault.injected], and records the span id in
      {!traced}. *)

  val transport : t -> Sdds_soe.Remote_card.transport
  (** The faulty transport to hand to {!Sdds_proxy.Proxy.Pool} or
      {!Sdds_proxy.Fleet}. *)

  val frames : t -> int
  (** Frames sent so far (the injector's frame counter). *)

  val injected : t -> int
  (** Faults injected so far. *)

  val trace : t -> event list
  (** Chronological log of every injected fault — feed it to
      {!Schedule.of_events} to replay this exact run. *)

  val traced : t -> traced list
  (** The same log with the span each fault was correlated to. *)
end

(** A card's power/link switch: while down, every frame answers the
    transient transport word — what a terminal sees from an unplugged
    reader. Wrap it {e outside} a {!Link} so a killed card stays dead
    regardless of the frame-fault schedule; flip it from a
    {!Campaign}. *)
module Cutout : sig
  type t

  val create : unit -> t

  val kill : t -> unit
  (** Cut the card off (idempotent; counted once per edge). *)

  val revive : t -> unit
  (** Restore the link. The card's volatile sessions are gone if the
      kill modeled power loss — pair with a host tear at kill time. *)

  val is_down : t -> bool

  val kills : t -> int
  (** Down-edges so far. *)

  val wrap :
    t ->
    Sdds_soe.Remote_card.transport ->
    Sdds_soe.Remote_card.transport
end

(** A fleet-level chaos schedule: kills, revives, resizes and tears
    pinned to {e request indices} of a steady stream (frame-level faults
    stay with {!Schedule}). Replayable: {!to_spec}/{!of_spec} round-trip
    the event list, and {!random} is deterministic in its seed — the
    [sdds chaos] harness minimizes any divergence into one of these
    specs. *)
module Campaign : sig
  type action =
    | Kill of int  (** cut card [i]'s power (cutout down + tear) *)
    | Revive of int  (** power card [i] back up and rejoin it *)
    | Add_card  (** grow the fleet by one fresh card *)
    | Remove_card of int  (** drain card [i] gracefully *)
    | Tear of int  (** a lone tear: power blip without losing the link *)

  type event = { at : int; action : action }
  (** [action] fires when the [at]-th request (0-based) of the stream is
      admitted. *)

  type t

  val of_events : event list -> t
  (** Sorted by position; the runner applies same-position events in the
      sorted order. *)

  val events : t -> event list

  val random :
    seed:int64 ->
    requests:int ->
    cards:int ->
    ?kills:int ->
    ?revives:int ->
    ?resizes:int ->
    unit ->
    t
  (** A coherent seeded campaign: [kills] (default 2) distinct cards die
      in the middle 80% of the stream, [revives] (default 1) of them
      come back strictly later, [resizes] (default 1) alternate
      add/remove. Redundant actions (killing a dead card, removing a
      gone one) are safe: runners treat them as no-ops. *)

  val to_spec : t -> string
  (** ["@AT:kill:C,@AT:revive:C,@AT:add,@AT:remove:C,@AT:tear:C"] (or
      ["none"]); [of_spec (to_spec t)] yields the same events. *)

  val of_spec : string -> (t, Schedule.parse_error) result
end

(** Deterministic disk faults, armed on {!Sdds_dsp.Store_io}'s global
    fault hook. *)
module Disk : sig
  type t

  val arm : seed:int64 -> ?fail_rate:float -> ?torn_rate:float -> unit -> t
  (** Install the hook: each IO primitive independently fails with
      probability [fail_rate] (typed [Io_fail]) and each write suffers a
      torn write with probability [torn_rate] (a prefix reaches the temp
      file, the rename never happens). Deterministic in [seed] and the
      operation counter. Both rates default to 0. *)

  val disarm : unit -> unit
  (** Clear the hook (whatever installed it). *)

  val injected : t -> int
  val trace : t -> (Sdds_dsp.Store_io.io_op * string * Sdds_dsp.Store_io.io_fault) list
end
