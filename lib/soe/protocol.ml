(* The card-side APDU session machine as a pure transition function.
   {!Remote_card.Host} is a thin imperative driver over [step]; the
   protocol model checker ([Sdds_protocol]) explores the same function
   under a fault adversary, so what is verified is what runs. *)

module Ins = struct
  let manage_channel = 0x70
  let select = 0xA0
  let grant = 0xA2
  let rules = 0xA4
  let query = 0xA6
  let evaluate = 0xB0
  let get_response = 0xC0

  let name ins =
    if ins = manage_channel then "MANAGE_CHANNEL"
    else if ins = select then "SELECT"
    else if ins = grant then "GRANT"
    else if ins = rules then "RULES"
    else if ins = query then "QUERY"
    else if ins = evaluate then "EVALUATE"
    else if ins = get_response then "GET_RESPONSE"
    else Printf.sprintf "INS_%02X" (ins land 0xff)
end

module Sw = struct
  let ok = (0x90, 0x00)
  let more_data = (0x61, 0x00)
  let not_found = (0x6A, 0x88)
  let stale_key = (0x6A, 0x82)
  let bad_grant = (0x69, 0x84)
  let bad_signature = (0x69, 0x88)
  let security = (0x69, 0x82)
  let replayed = (0x69, 0x87)
  let memory = (0x6A, 0x84)
  let bad_query = (0x6A, 0x80)
  let integrity_sw1 = 0x66
  let bad_state = (0x69, 0x85)
  let bad_ins = (0x6D, 0x00)
  let channel_closed = (0x68, 0x81)
  let no_channel = (0x6A, 0x81)
  let transport = (0x64, 0x00)
  let internal = (0x6F, 0x00)
end

let max_response = 255

type chain_semantics = Identity_marker | P2_marker

module Chain = struct
  type t = {
    chains : (int * (string list * int)) list;
    finished : (int * (int * string)) list;
  }

  let empty = { chains = []; finished = [] }

  type verdict = Accepted | Completed of string | Duplicate | Rejected

  (* Insertion keeps keys sorted: structurally identical chain states
     have one representation, which the model checker's canonical
     encoding (and so its visited-set dedup) relies on. *)
  let rec set k v = function
    | [] -> [ (k, v) ]
    | (k', _) :: rest when k' = k -> (k, v) :: rest
    | (k', _) :: _ as l when k' > k -> (k, v) :: l
    | kv :: rest -> kv :: set k v rest

  let forget t ins = { t with finished = List.remove_assoc ins t.finished }

  let feed ?(semantics = Identity_marker) ?(modulus = 256) t
      (cmd : Apdu.command) =
    let ins = cmd.Apdu.ins in
    let recognized_final =
      (* Is this frame the final frame of the chain we just completed,
         retransmitted because its ack was lost? Identity_marker matches
         the recorded (p2, payload) pair, so p2 = 0 — a single-frame
         chain, or a final frame aliasing to 0 mod [modulus] — cannot
         silently open a fresh chain and re-execute. P2_marker preserves
         the pre-fix semantics (marker keyed by p2 alone, p2 = 0 never
         recognized) as the model checker's power fixture. *)
      match (semantics, List.assoc_opt ins t.finished) with
      | _, None -> false
      | Identity_marker, Some (p2, data) ->
          cmd.Apdu.p1 = 0 && p2 = cmd.Apdu.p2 && String.equal data cmd.Apdu.data
      | P2_marker, Some (p2, _) -> cmd.Apdu.p2 <> 0 && p2 = cmd.Apdu.p2
    in
    match List.assoc_opt ins t.chains with
    | None when recognized_final -> (t, Duplicate)
    | None when cmd.Apdu.p2 <> 0 ->
        (* A continuation (or unrecognized final) with no chain open: a
           stale frame from before a SELECT or from an aborted upload —
           it must not start a fresh chain. *)
        (t, Rejected)
    | existing ->
        let frames, seq =
          match existing with Some fs -> fs | None -> ([], 0)
        in
        if seq > 0 && cmd.Apdu.p2 = (seq - 1) mod modulus then
          (* Duplicate of the frame just accepted: ack, don't append. *)
          (t, Duplicate)
        else if cmd.Apdu.p2 <> seq mod modulus then
          ({ t with chains = List.remove_assoc ins t.chains }, Rejected)
        else begin
          let frames = cmd.Apdu.data :: frames in
          if cmd.Apdu.p1 = 0 then
            ( {
                chains = List.remove_assoc ins t.chains;
                finished = set ins (cmd.Apdu.p2, cmd.Apdu.data) t.finished;
              },
              Completed (String.concat "" (List.rev frames)) )
          else
            ({ t with chains = set ins (frames, seq + 1) t.chains }, Accepted)
        end
end

type 'd session = {
  doc : 'd option;
  chain : Chain.t;
  pending_rules : string option;
  pending_query : string option;
  response : string;
  resp_block : int;
  resp_last : Apdu.response option;
  resp_ready : bool;
}

let fresh_session =
  {
    doc = None;
    chain = Chain.empty;
    pending_rules = None;
    pending_query = None;
    response = "";
    resp_block = 0;
    resp_last = None;
    resp_ready = false;
  }

type 'd state = { sessions : 'd session option list }

let initial () =
  {
    sessions =
      Some fresh_session :: List.init (Apdu.max_channels - 1) (fun _ -> None);
  }

let open_channels state =
  List.fold_left
    (fun n -> function None -> n | Some _ -> n + 1)
    0 state.sessions

let session state ch =
  if ch < 0 || ch >= Apdu.max_channels then None
  else List.nth state.sessions ch

type 'd backend = {
  resolve : string -> 'd option;
  install_grant : 'd -> wrapped:string -> (unit, int * int) result;
  accept_rules : 'd -> string -> (unit, int * int) result;
  evaluate :
    'd ->
    rules:string ->
    query:string option ->
    push:bool ->
    (string, int * int) result;
}

type event = Command of Apdu.command | Tear

type action =
  | Reply of Apdu.response
  | Selected of { channel : int; doc_id : string }
  | Executed of { channel : int; ins : int; payload : string }
  | Evaluated of {
      channel : int;
      rules : string;
      query : string option;
      push : bool;
    }
  | Torn

let reply ?(payload = "") (sw1, sw2) = { Apdu.sw1; sw2; payload }

let response_of actions =
  List.fold_left
    (fun acc a -> match a with Reply r -> Some r | _ -> acc)
    None actions

let set_session state ch s =
  { sessions = List.mapi (fun i x -> if i = ch then s else x) state.sessions }

(* Serve the next block of the response stream and remember it: a GET
   RESPONSE re-asking for the block just served (its response was lost on
   the wire) gets a byte-identical retransmission instead of silently
   skipping ahead — a dropped frame can cost time, never payload
   integrity. *)
let serve_block ~block s =
  let n = String.length s.response in
  let take = min block n in
  let payload = String.sub s.response 0 take in
  let response = String.sub s.response take (n - take) in
  let resp =
    if String.length response = 0 then reply ~payload Sw.ok
    else reply ~payload (fst Sw.more_data, min 0xff (String.length response))
  in
  ( { s with response; resp_last = Some resp; resp_block = s.resp_block + 1 },
    resp )

let manage_channel state (cmd : Apdu.command) =
  if cmd.Apdu.p1 = 0x00 && cmd.Apdu.p2 = 0x00 then begin
    (* Open: allocate the lowest free channel and return its number. *)
    let rec find i =
      if i >= Apdu.max_channels then None
      else
        match List.nth state.sessions i with
        | None -> Some i
        | Some _ -> find (i + 1)
    in
    match find 1 with
    | None -> (state, reply Sw.no_channel)
    | Some i ->
        ( set_session state i (Some fresh_session),
          reply ~payload:(String.make 1 (Char.chr i)) Sw.ok )
  end
  else if cmd.Apdu.p1 = 0x80 then begin
    (* Close: the target channel is in p2; the basic channel cannot be
       closed. Everything the session held (chains, pending response)
       dies with it. *)
    let target = cmd.Apdu.p2 in
    if target <= 0 || target >= Apdu.max_channels then
      (state, reply Sw.bad_state)
    else
      match List.nth state.sessions target with
      | None -> (state, reply Sw.bad_state)
      | Some _ -> (set_session state target None, reply Sw.ok)
  end
  else (state, reply Sw.bad_state)

let dispatch ~backend ~semantics ~modulus ~block ch s (cmd : Apdu.command) =
  if cmd.Apdu.ins = Ins.select then begin
    match backend.resolve cmd.Apdu.data with
    | Some doc ->
        (* A SELECT starts a fresh session on this channel: half-uploaded
           chains from an aborted rules/query upload must not be
           concatenated with a later upload for this (or any)
           document. *)
        ( { fresh_session with doc = Some doc },
          reply Sw.ok,
          [ Selected { channel = ch; doc_id = cmd.Apdu.data } ] )
    | None -> (s, reply Sw.not_found, [])
  end
  else if cmd.Apdu.ins = Ins.grant then begin
    match s.doc with
    | None -> (s, reply Sw.bad_state, [])
    | Some doc -> (
        match backend.install_grant doc ~wrapped:cmd.Apdu.data with
        | Ok () -> (s, reply Sw.ok, [])
        | Error sw -> (s, reply sw, []))
  end
  else if cmd.Apdu.ins = Ins.rules then begin
    match s.doc with
    | None -> (s, reply Sw.bad_state, [])
    | Some doc -> (
        let chain, verdict = Chain.feed ~semantics ~modulus s.chain cmd in
        let s = { s with chain } in
        match verdict with
        | Chain.Rejected -> (s, reply Sw.bad_state, [])
        | Chain.Accepted | Chain.Duplicate -> (s, reply Sw.ok, [])
        | Chain.Completed blob -> (
            (* The chain consumed its frames and ran — whether the backend
               then accepts the blob or not. The [Executed] action is the
               exactly-once witness the model checker monitors. *)
            let executed =
              Executed { channel = ch; ins = cmd.Apdu.ins; payload = blob }
            in
            match backend.accept_rules doc blob with
            | Error sw ->
                (* The upload failed for good: a retransmitted final
                   frame must not be acked as if it had succeeded. *)
                ( { s with chain = Chain.forget s.chain Ins.rules },
                  reply sw,
                  [ executed ] )
            | Ok () ->
                ({ s with pending_rules = Some blob }, reply Sw.ok, [ executed ])
            ))
  end
  else if cmd.Apdu.ins = Ins.query then begin
    match s.doc with
    | None -> (s, reply Sw.bad_state, [])
    | Some _ -> (
        let chain, verdict = Chain.feed ~semantics ~modulus s.chain cmd in
        let s = { s with chain } in
        match verdict with
        | Chain.Rejected -> (s, reply Sw.bad_state, [])
        | Chain.Accepted | Chain.Duplicate -> (s, reply Sw.ok, [])
        | Chain.Completed q ->
            ( { s with pending_query = Some q },
              reply Sw.ok,
              [ Executed { channel = ch; ins = cmd.Apdu.ins; payload = q } ] ))
  end
  else if cmd.Apdu.ins = Ins.evaluate then begin
    match (s.doc, s.pending_rules) with
    | None, _ | _, None -> (s, reply Sw.bad_state, [])
    | Some doc, Some rules -> (
        let push = cmd.Apdu.p1 = 1 in
        let query = s.pending_query in
        match backend.evaluate doc ~rules ~query ~push with
        | Ok encoded ->
            let s =
              {
                s with
                response = encoded;
                resp_block = 0;
                resp_last = None;
                resp_ready = true;
              }
            in
            let s, resp = serve_block ~block s in
            (s, resp, [ Evaluated { channel = ch; rules; query; push } ])
        | Error sw -> (s, reply sw, []))
  end
  else if cmd.Apdu.ins = Ins.get_response then begin
    (* Block-sequenced drain (block index in p2, mod [modulus]): a
       terminal can only read forward one block at a time or re-read the
       block it just received. Draining a session that never evaluated —
       e.g. after a tear wiped the stream — is a state error, never a
       silent empty success the terminal could mistake for a whole
       view. *)
    if not s.resp_ready then (s, reply Sw.bad_state, [])
    else if cmd.Apdu.p2 = s.resp_block mod modulus then
      let s, resp = serve_block ~block s in
      (s, resp, [])
    else if s.resp_block > 0 && cmd.Apdu.p2 = (s.resp_block - 1) mod modulus
    then
      match s.resp_last with
      | Some r -> (s, r, [])
      | None -> (s, reply Sw.bad_state, [])
    else (s, reply Sw.bad_state, [])
  end
  else (s, reply Sw.bad_ins, [])

let step ~backend ?(semantics = Identity_marker) ?(modulus = 256)
    ?(block = max_response) state event =
  match event with
  | Tear -> (initial (), [ Torn ])
  | Command cmd ->
      if not (Apdu.valid_cla cmd.Apdu.cla) then
        (state, [ Reply (reply Sw.bad_ins) ])
      else begin
        let ch = Apdu.channel_of_cla cmd.Apdu.cla in
        match List.nth state.sessions ch with
        | None -> (state, [ Reply (reply Sw.channel_closed) ])
        | Some s ->
            if cmd.Apdu.ins = Ins.manage_channel then
              let state, resp = manage_channel state cmd in
              (state, [ Reply resp ])
            else
              let s, resp, actions =
                dispatch ~backend ~semantics ~modulus ~block ch s cmd
              in
              (set_session state ch (Some s), actions @ [ Reply resp ])
      end
