module Rng = Sdds_util.Rng
module Apdu = Sdds_soe.Apdu
module Remote = Sdds_soe.Remote_card
module Store_io = Sdds_dsp.Store_io
module Obs = Sdds_obs.Obs

type kind =
  | Drop_command
  | Drop_response
  | Corrupt_command
  | Corrupt_response
  | Duplicate_command
  | Spurious_status
  | Tear

let all_kinds =
  [|
    Drop_command;
    Drop_response;
    Corrupt_command;
    Corrupt_response;
    Duplicate_command;
    Spurious_status;
    Tear;
  |]

let kind_to_string = function
  | Drop_command -> "drop-command"
  | Drop_response -> "drop-response"
  | Corrupt_command -> "corrupt-command"
  | Corrupt_response -> "corrupt-response"
  | Duplicate_command -> "duplicate-command"
  | Spurious_status -> "spurious-status"
  | Tear -> "tear"

let kind_of_string = function
  | "drop-command" -> Some Drop_command
  | "drop-response" -> Some Drop_response
  | "corrupt-command" -> Some Corrupt_command
  | "corrupt-response" -> Some Corrupt_response
  | "duplicate-command" -> Some Duplicate_command
  | "spurious-status" -> Some Spurious_status
  | "tear" -> Some Tear
  | _ -> None

type event = { frame : int; kind : kind }

let event_to_string e = Printf.sprintf "@%d:%s" e.frame (kind_to_string e.kind)

(* The modeled link layer checksums every frame, so corruption and
   truncation are *detected*, in either direction: the terminal driver
   sees a bad frame (or no frame) and reports the transient
   [Sw.transport] word. A corrupted/ dropped command therefore never
   reaches the card at all; a corrupted/dropped response means the card
   *did* process the command but the terminal cannot know — which is
   exactly why the host's duplicate-ack and block-retransmission
   machinery exists. Nothing here ever delivers altered payload bytes:
   Byzantine delivery would model a broken CRC, not a lossy serial
   link. *)
let deliver fault ~send ~tear =
  let sw (sw1, sw2) = { Apdu.sw1; sw2; payload = "" } in
  match fault with
  | None -> send ()
  | Some (Drop_command | Corrupt_command) -> sw Remote.Sw.transport
  | Some (Drop_response | Corrupt_response) ->
      ignore (send ());
      sw Remote.Sw.transport
  | Some Duplicate_command ->
      (* The line echoes the frame twice; the card answers both, the
         terminal reads the second answer. *)
      ignore (send ());
      send ()
  | Some Spurious_status -> sw Remote.Sw.internal
  | Some Tear ->
      tear ();
      sw Remote.Sw.transport

module Schedule = struct
  type t = {
    decide : int -> kind option;
    describe : string;
    (* Derive the schedule a sibling link (another card of a fleet)
       sees: random schedules mix the salt into their seed so each card
       suffers an independent fault stream; deterministic schedules
       (none, explicit events) apply to every card as-is — they are
       positional, and a directed test wants the same event everywhere. *)
    salted : int64 -> t;
  }

  let rec none =
    { decide = (fun _ -> None); describe = "none"; salted = (fun _ -> none) }

  let of_events events =
    let tbl = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace tbl e.frame e.kind) events;
    let rec t =
      {
        decide = Hashtbl.find_opt tbl;
        describe =
          (match events with
          | [] -> "none"
          | es -> String.concat "," (List.map event_to_string es));
        salted = (fun _ -> t);
      }
    in
    t

  (* Stateless per-frame randomness: the decision for frame [n] depends
     only on [seed] and [n], so a schedule replays identically however
     many frames the recovering host ends up sending, and a failing run
     is reproducible from its seed alone. *)
  let rec random ~seed ~rate ?(kinds = all_kinds) () =
    let kinds = Array.copy kinds in
    {
      decide =
        (fun frame ->
          let rng =
            Rng.create
              (Int64.logxor seed
                 (Int64.mul
                    (Int64.of_int (frame + 1))
                    0x9E3779B97F4A7C15L))
          in
          if Array.length kinds > 0 && Rng.float rng 1.0 < rate then
            Some (Rng.pick rng kinds)
          else None);
      describe =
        Printf.sprintf "seed=%Ld,rate=%g%s" seed rate
          (if kinds = all_kinds then ""
           else
             ",kinds="
             ^ String.concat "+"
                 (Array.to_list (Array.map kind_to_string kinds)));
      salted =
        (fun salt -> random ~seed:(Int64.logxor seed salt) ~rate ~kinds ());
    }

  (* Distinct odd multiplier from the per-frame one, so card i's frame
     stream is not a shifted alias of card 0's. *)
  let for_card t card =
    t.salted (Int64.mul (Int64.of_int (card + 1)) 0xBF58476D1CE4E5B9L)

  type parse_error = { pos : int; msg : string }

  let string_of_parse_error e =
    Printf.sprintf "at char %d: %s" e.pos e.msg

  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

  (* Comma-split with byte offsets into the original string, each field
     trimmed: a parse error can point at the offending token, which
     matters once specs are machine-emitted counterexamples that a human
     copy-pastes (and maybe mangles) into [--fault-spec]. *)
  let fields_of spec =
    let rec go start acc =
      match String.index_from_opt spec start ',' with
      | None ->
          List.rev ((start, String.sub spec start (String.length spec - start)) :: acc)
      | Some i -> go (i + 1) ((start, String.sub spec start (i - start)) :: acc)
    in
    List.map
      (fun (off, f) ->
        let m = String.length f in
        let a = ref 0 in
        while !a < m && is_space f.[!a] do incr a done;
        let b = ref m in
        while !b > !a && is_space f.[!b - 1] do decr b done;
        (off + !a, String.sub f !a (!b - !a)))
      (go 0 [])

  (* "none" | "@F:KIND,..." | "seed=,rate=[,kinds=]". *)
  let of_spec spec =
    let err pos msg = Error { pos; msg } in
    let n = String.length spec in
    let lead = ref 0 in
    while !lead < n && is_space spec.[!lead] do incr lead done;
    let stop = ref n in
    while !stop > !lead && is_space spec.[!stop - 1] do decr stop done;
    let body = String.sub spec !lead (!stop - !lead) in
    let base = !lead in
    if body = "" || body = "none" then Ok none
    else if body.[0] = '@' then begin
      (* "@FRAME:KIND,@FRAME:KIND,..." — an explicit event list. *)
      let rec go acc = function
        | [] -> Ok (of_events (List.rev acc))
        | (off, p) :: rest -> (
            let off = base + off in
            if p = "" then err off "empty fault event"
            else if p.[0] <> '@' then
              err off (Printf.sprintf "expected @FRAME:KIND, got %S" p)
            else
              match String.index_opt p ':' with
              | None ->
                  err off (Printf.sprintf "missing ':' in fault event %S" p)
              | Some i -> (
                  let frame_s = String.sub p 1 (i - 1) in
                  let kind_s = String.sub p (i + 1) (String.length p - i - 1) in
                  match int_of_string_opt frame_s with
                  | None ->
                      err (off + 1)
                        (Printf.sprintf "bad frame number %S" frame_s)
                  | Some frame when frame < 0 ->
                      err (off + 1)
                        (Printf.sprintf "negative frame number %d" frame)
                  | Some frame -> (
                      match kind_of_string kind_s with
                      | None ->
                          err (off + i + 1)
                            (Printf.sprintf "unknown fault kind %S" kind_s)
                      | Some kind -> go ({ frame; kind } :: acc) rest)))
      in
      go [] (fields_of body)
    end
    else begin
      (* "seed=N,rate=F[,kinds=a+b+c]" — a random schedule. *)
      let seed = ref None and rate = ref None and kinds = ref None in
      let parse_field (off, field) =
        let off = base + off in
        match String.index_opt field '=' with
        | None ->
            err off (Printf.sprintf "expected KEY=VALUE, got %S" field)
        | Some i -> (
            let k = String.trim (String.sub field 0 i) in
            let voff = off + i + 1 in
            let v =
              String.trim
                (String.sub field (i + 1) (String.length field - i - 1))
            in
            match k with
            | "seed" -> (
                match Int64.of_string_opt v with
                | Some s ->
                    seed := Some s;
                    Ok ()
                | None -> err voff (Printf.sprintf "bad seed %S" v))
            | "rate" -> (
                match float_of_string_opt v with
                | Some r when r >= 0.0 && r <= 1.0 ->
                    rate := Some r;
                    Ok ()
                | _ -> err voff (Printf.sprintf "bad rate %S (want 0..1)" v))
            | "kinds" -> (
                let names = String.split_on_char '+' v in
                let rec collect acc = function
                  | [] -> Ok (Array.of_list (List.rev acc))
                  | nm :: rest -> (
                      match kind_of_string (String.trim nm) with
                      | Some kd -> collect (kd :: acc) rest
                      | None ->
                          err voff (Printf.sprintf "unknown fault kind %S" nm))
                in
                match collect [] names with
                | Ok ks ->
                    kinds := Some ks;
                    Ok ()
                | Error e -> Error e)
            | _ -> err off (Printf.sprintf "unknown fault field %S" k))
      in
      let rec all = function
        | [] -> (
            match (!seed, !rate) with
            | Some seed, Some rate ->
                Ok (random ~seed ~rate ?kinds:!kinds ())
            | _ -> err base "fault spec needs both seed= and rate=")
        | f :: rest -> (
            match parse_field f with Ok () -> all rest | Error e -> Error e)
      in
      all (fields_of body)
    end

  let to_spec t = t.describe
  let decide t frame = t.decide frame
end

(* ------------------------------------------------------------------ *)
(* Lossy APDU link                                                      *)
(* ------------------------------------------------------------------ *)

module Link = struct
  type traced = { event : event; span : int }

  type t = {
    inner : Remote.transport;
    schedule : Schedule.t;
    on_tear : (unit -> unit) option;
    obs : Obs.t option;
    mutable frame : int;
    mutable trace : traced list;  (* newest first *)
  }

  let wrap ?obs ~schedule ?tear inner =
    { inner; schedule; on_tear = tear; obs; frame = 0; trace = [] }

  let send t cmd =
    let n = t.frame in
    t.frame <- n + 1;
    let fault = Schedule.decide t.schedule n in
    Option.iter
      (fun kind ->
        (* Record which request span the fault landed in: the pool
           re-roots the span stack at the request before every exchange,
           so [current] is the victim request (or [none] outside
           tracing). *)
        let tr = Obs.tracer t.obs in
        let span = Obs.Tracer.current tr in
        t.trace <- { event = { frame = n; kind }; span } :: t.trace;
        Obs.inc t.obs "fault.injected" 1;
        Obs.Tracer.instant tr
          ~args:
            [ ("kind", kind_to_string kind); ("frame", string_of_int n) ]
          "fault")
      fault;
    deliver fault
      ~send:(fun () -> t.inner cmd)
      ~tear:(Option.value t.on_tear ~default:ignore)

  let transport t = send t
  let frames t = t.frame
  let injected t = List.length t.trace
  let trace t = List.rev_map (fun x -> x.event) t.trace
  let traced t = List.rev t.trace
end

(* ------------------------------------------------------------------ *)
(* Cutout: a card's power/link switch                                   *)
(* ------------------------------------------------------------------ *)

module Cutout = struct
  type t = { mutable down : bool; mutable kills : int }

  let create () = { down = false; kills = 0 }

  let kill t =
    if not t.down then begin
      t.down <- true;
      t.kills <- t.kills + 1
    end

  let revive t = t.down <- false
  let is_down t = t.down
  let kills t = t.kills

  (* While down, every frame answers the transport word — exactly what a
     terminal sees from an unplugged reader: the command never reaches
     any card and no bytes come back. *)
  let wrap t (inner : Remote.transport) : Remote.transport =
   fun cmd ->
    if t.down then
      { Apdu.sw1 = fst Remote.Sw.transport;
        sw2 = snd Remote.Sw.transport;
        payload = "" }
    else inner cmd
end

(* ------------------------------------------------------------------ *)
(* Campaign: fleet-level chaos, scheduled against the request stream    *)
(* ------------------------------------------------------------------ *)

module Campaign = struct
  type action =
    | Kill of int
    | Revive of int
    | Add_card
    | Remove_card of int
    | Tear of int

  type event = { at : int; action : action }

  type t = event list

  let events = Fun.id

  let of_events evs =
    List.sort (fun a b -> compare (a.at, a.action) (b.at, b.action)) evs

  let action_to_string = function
    | Kill c -> Printf.sprintf "kill:%d" c
    | Revive c -> Printf.sprintf "revive:%d" c
    | Add_card -> "add"
    | Remove_card c -> Printf.sprintf "remove:%d" c
    | Tear c -> Printf.sprintf "tear:%d" c

  let event_to_string e = Printf.sprintf "@%d:%s" e.at (action_to_string e.action)

  let to_spec = function
    | [] -> "none"
    | evs -> String.concat "," (List.map event_to_string evs)

  (* Same surface syntax as fault-event specs ("@AT:ACTION[:CARD]"), and
     the same positioned error type and field splitter, so CLI plumbing
     and error rendering are shared. *)
  let of_spec spec =
    let err pos msg = Error { Schedule.pos; msg } in
    let body = String.trim spec in
    let rec go acc = function
      | [] -> Ok (of_events (List.rev acc))
      | (off, p) :: rest -> (
          if p = "" then err off "empty campaign event"
          else if p.[0] <> '@' then
            err off (Printf.sprintf "expected @AT:ACTION, got %S" p)
          else
            match String.index_opt p ':' with
            | None -> err off (Printf.sprintf "missing ':' in %S" p)
            | Some i -> (
                let at_s = String.sub p 1 (i - 1) in
                let act_off = off + i + 1 in
                let act = String.sub p (i + 1) (String.length p - i - 1) in
                (* The action word, and the card index after a second ':'. *)
                let word, card =
                  match String.index_opt act ':' with
                  | None -> (act, None)
                  | Some j ->
                      ( String.sub act 0 j,
                        Some
                          ( act_off + j + 1,
                            String.sub act (j + 1) (String.length act - j - 1)
                          ) )
                in
                match int_of_string_opt at_s with
                | None -> err (off + 1) (Printf.sprintf "bad position %S" at_s)
                | Some at when at < 0 ->
                    err (off + 1) (Printf.sprintf "negative position %d" at)
                | Some at -> (
                    let with_card k =
                      match card with
                      | None ->
                          err act_off
                            (Printf.sprintf "%s needs a card index" word)
                      | Some (c_off, c_s) -> (
                          match int_of_string_opt c_s with
                          | Some c when c >= 0 ->
                              go ({ at; action = k c } :: acc) rest
                          | _ ->
                              err c_off
                                (Printf.sprintf "bad card index %S" c_s))
                    in
                    match (word, card) with
                    | "add", None -> go ({ at; action = Add_card } :: acc) rest
                    | "kill", _ -> with_card (fun c -> Kill c)
                    | "revive", _ -> with_card (fun c -> Revive c)
                    | "remove", _ -> with_card (fun c -> Remove_card c)
                    | "tear", _ -> with_card (fun c -> Tear c)
                    | _ ->
                        err act_off
                          (Printf.sprintf "unknown campaign action %S" act))))
    in
    if body = "" || body = "none" then Ok []
    else go [] (Schedule.fields_of spec)

  (* A coherent random campaign: kills hit distinct cards in the middle
     80% of the stream, each revive restores a previously killed card
     strictly later, resizes alternate add/remove. Deterministic in
     [seed]; the runner treats redundant actions (killing a dead card)
     as no-ops, so any generated campaign is safe to apply. *)
  let random ~seed ~requests ~cards ?(kills = 2) ?(revives = 1)
      ?(resizes = 1) () =
    if requests < 10 then invalid_arg "Campaign.random: requests < 10";
    if cards < 1 then invalid_arg "Campaign.random: cards < 1";
    let rng = Rng.create seed in
    let pos lo hi = lo + Rng.int rng (max 1 (hi - lo)) in
    let lo = requests / 10 and hi = 9 * requests / 10 in
    let kills = min kills cards in
    let killed =
      let pool = Array.init cards Fun.id in
      Rng.shuffle rng pool;
      Array.to_list (Array.sub pool 0 kills)
    in
    let kill_evs =
      List.map (fun c -> { at = pos lo hi; action = Kill c }) killed
    in
    let revive_evs =
      List.filteri (fun i _ -> i < revives) kill_evs
      |> List.map (fun e ->
             let c = match e.action with Kill c -> c | _ -> assert false in
             { at = pos (min (e.at + 1) hi) (hi + 1); action = Revive c })
    in
    let resize_evs =
      List.init resizes (fun i ->
          if i mod 2 = 0 then { at = pos lo hi; action = Add_card }
          else { at = pos lo hi; action = Remove_card (Rng.int rng cards) })
    in
    of_events (kill_evs @ revive_evs @ resize_evs)
end

(* ------------------------------------------------------------------ *)
(* Faulty disk                                                          *)
(* ------------------------------------------------------------------ *)

module Disk = struct
  type t = {
    seed : int64;
    fail_rate : float;
    torn_rate : float;
    mutable op : int;
    mutable trace : (Store_io.io_op * string * Store_io.io_fault) list;
  }

  let arm ~seed ?(fail_rate = 0.0) ?(torn_rate = 0.0) () =
    let t = { seed; fail_rate; torn_rate; op = 0; trace = [] } in
    Store_io.set_fault_hook (fun op path ->
        let n = t.op in
        t.op <- n + 1;
        let rng =
          Rng.create
            (Int64.logxor seed
               (Int64.mul (Int64.of_int (n + 1)) 0x9E3779B97F4A7C15L))
        in
        let roll = Rng.float rng 1.0 in
        let fault =
          if op = `Write && roll < t.torn_rate then
            Some (Store_io.Torn_write { keep_bytes = Rng.int rng 4096 })
          else if roll < t.torn_rate +. t.fail_rate then
            Some (Store_io.Io_fail "injected disk fault")
          else None
        in
        (match fault with
        | Some f -> t.trace <- (op, path, f) :: t.trace
        | None -> ());
        fault);
    t

  let disarm () = Store_io.clear_fault_hook ()
  let injected t = List.length t.trace
  let trace t = List.rev t.trace
end
