(* The finite host × card × fault product the checker explores. The card
   half is the *production* transition function ({!Sdds_soe.Protocol.step})
   over a synthetic string-handle backend; the host half is a downscaled
   but faithful rendition of [Sdds_proxy.Proxy.Pool.step]'s triage on the
   basic channel ({!Sdds_soe.Remote_card.classify} is the real one):
   resend on [Transient] and replay the setup on [Session_lost], both
   under one retry budget, and stop on [Fatal] or [Unknown] (the pool's
   one grant refresh after a stale key is not modelled); the adversary
   half delivers through {!Sdds_fault.Fault.deliver}, the function
   {!Sdds_fault.Fault.Link} delivers through, so a counterexample's fault
   schedule means the same thing to the checker and to
   [sdds query --fault-spec]. *)

module Apdu = Sdds_soe.Apdu
module Protocol = Sdds_soe.Protocol
module Remote = Sdds_soe.Remote_card
module Fault = Sdds_fault.Fault

type config = {
  semantics : Protocol.chain_semantics;
  modulus : int;
  block : int;
  rules_frames : int;
  with_query : bool;
  response_blocks : int;
  versions : int list;
  retry_budget : int;
  fault_budget : int;
  alphabet : Fault.kind list;
  bystander : bool;
}

let current =
  {
    semantics = Protocol.Identity_marker;
    modulus = 4;
    block = 3;
    rules_frames = 3;
    with_query = false;
    response_blocks = 2;
    versions = [ 2 ];
    retry_budget = 3;
    fault_budget = 2;
    alphabet = Array.to_list Fault.all_kinds;
    bystander = true;
  }

(* The preserved pre-fix model: P2-keyed completion markers, and a chain
   long enough that the final frame's sequence number wraps to 0 mod the
   (downscaled) modulus — the exact shape of the PR 6 hole, reachable at
   tiny depth. *)
let pre_fix =
  { current with semantics = Protocol.P2_marker; rules_frames = 5 }

let doc_id = "doc"
let query_payload = "q"

(* The rules blob for one policy version: a version digit followed by
   filler, one byte per chain frame. *)
let rules_payload config v =
  String.init config.rules_frames (fun i ->
      if i = 0 then Char.chr (Char.code '0' + (v mod 10)) else 'r')

(* Every payload the host legitimately uploads: the exactly-once monitor
   flags any executed payload outside this set. *)
let intents config =
  List.map (rules_payload config) config.versions @ [ query_payload ]

let version_of rules =
  if String.length rules > 0 && rules.[0] >= '0' && rules.[0] <= '9' then
    Some (Char.code rules.[0] - Char.code '0')
  else None

let valid_rules config rules =
  String.length rules = config.rules_frames
  && version_of rules <> None
  && (let ok = ref true in
      String.iteri (fun i c -> if i > 0 && c <> 'r' then ok := false) rules;
      !ok)

let view config ~version ~query =
  let base =
    Printf.sprintf "v%d%s" version
      (match query with None -> "" | Some q -> "+" ^ q)
  in
  String.init
    (config.response_blocks * config.block)
    (fun i -> base.[i mod String.length base])

(* The synthetic card backend: rule blobs are "<version digit>rr…r";
   [accept_rules] refuses anything else (what a fragment re-executed from a
   duplicated final frame looks like); evaluation enforces anti-rollback
   against the stable high-water mark [nv] and answers a deterministic
   view. [nv] is threaded as a ref so one backend value can serve the
   double delivery of a duplicated command, like the real card's stable
   state does. *)
let backend config nv =
  {
    Protocol.resolve =
      (fun id -> if String.equal id doc_id then Some id else None);
    install_grant = (fun _ ~wrapped:_ -> Ok ());
    accept_rules =
      (fun _ rules ->
        if valid_rules config rules then Ok () else Error Protocol.Sw.security);
    evaluate =
      (fun _ ~rules ~query ~push:_ ->
        match version_of rules with
        | None -> Error Protocol.Sw.security
        | Some v ->
            if v < !nv then Error Protocol.Sw.replayed
            else begin
              nv := v;
              Ok (view config ~version:v ~query)
            end);
  }

(* ------------------------------------------------------------------ *)
(* Host driver                                                          *)
(* ------------------------------------------------------------------ *)

type phase =
  | Select
  | Rules of int  (** next rules frame index *)
  | Query_upload
  | Evaluate
  | Drain of int  (** next response block index *)
  | Done_ok
  | Failed of string

type host = {
  phase : phase;
  exchange : int;  (** index into [config.versions] *)
  budget : int;
  drained : string;
}

let cla = Apdu.cla_of_channel 0

let command config h =
  match h.phase with
  | Done_ok | Failed _ -> None
  | Select ->
      Some { Apdu.cla; ins = Protocol.Ins.select; p1 = 0; p2 = 0; data = doc_id }
  | Rules i ->
      let payload = rules_payload config (List.nth config.versions h.exchange) in
      Some
        {
          Apdu.cla;
          ins = Protocol.Ins.rules;
          p1 = (if i = config.rules_frames - 1 then 0 else 1);
          p2 = i mod config.modulus;
          data = String.make 1 payload.[i];
        }
  | Query_upload ->
      Some
        {
          Apdu.cla;
          ins = Protocol.Ins.query;
          p1 = 0;
          p2 = 0;
          data = query_payload;
        }
  | Evaluate ->
      Some { Apdu.cla; ins = Protocol.Ins.evaluate; p1 = 0; p2 = 0; data = "" }
  | Drain b ->
      Some
        {
          Apdu.cla;
          ins = Protocol.Ins.get_response;
          p1 = 0;
          p2 = b mod config.modulus;
          data = "";
        }

let expected_view config h =
  view config
    ~version:(List.nth config.versions h.exchange)
    ~query:(if config.with_query then Some query_payload else None)

(* The host believes this exchange is complete: check what it drained
   against the authorized view, then move to the next version (or stop). *)
let finish_exchange config h =
  let expect = expected_view config h in
  let viol =
    if String.equal h.drained expect then None
    else
      Some
        {
          Invariant.which = Invariant.View_integrity;
          detail =
            Printf.sprintf
              "exchange %d completed with drained view %S, authorized view \
               is %S"
              h.exchange h.drained expect;
        }
  in
  let h =
    if h.exchange + 1 < List.length config.versions then
      { phase = Select; exchange = h.exchange + 1; budget = h.budget; drained = "" }
    else { h with phase = Done_ok }
  in
  (h, viol)

let advance config h (resp : Apdu.response) =
  let spend reset =
    if h.budget > 0 then
      if reset then
        ({ h with budget = h.budget - 1; phase = Select; drained = "" }, None)
      else ({ h with budget = h.budget - 1 }, None)
    else ({ h with phase = Failed "retry budget exhausted" }, None)
  in
  match Remote.classify resp with
  | Remote.Done -> (
      match h.phase with
      | Select -> ({ h with phase = Rules 0 }, None)
      | Rules i ->
          if i + 1 < config.rules_frames then
            ({ h with phase = Rules (i + 1) }, None)
          else if config.with_query then ({ h with phase = Query_upload }, None)
          else ({ h with phase = Evaluate }, None)
      | Query_upload -> ({ h with phase = Evaluate }, None)
      | Evaluate | Drain _ ->
          finish_exchange config
            { h with drained = h.drained ^ resp.Apdu.payload }
      | Done_ok | Failed _ -> (h, None))
  | Remote.More _ -> (
      match h.phase with
      | Evaluate ->
          ( { h with drained = h.drained ^ resp.Apdu.payload; phase = Drain 1 },
            None )
      | Drain b ->
          ( {
              h with
              drained = h.drained ^ resp.Apdu.payload;
              phase = Drain (b + 1);
            },
            None )
      | _ -> ({ h with phase = Failed "unexpected more-data status" }, None))
  | Remote.Transient -> spend false
  | Remote.Session_lost -> spend true
  | Remote.Fatal e ->
      let sw1, sw2 = Remote.to_sw e in
      ( { h with phase = Failed (Printf.sprintf "card refused (sw %02X%02X)" sw1 sw2) },
        None )
  | Remote.Unknown (sw1, sw2) ->
      ( {
          h with
          phase = Failed (Printf.sprintf "unknown status word %02X%02X" sw1 sw2);
        },
        None )

(* ------------------------------------------------------------------ *)
(* Invariant monitors                                                   *)
(* ------------------------------------------------------------------ *)

(* Sorted assoc lists, like {!Protocol.Chain}'s: one representation per
   logical content, so the canonical state encoding dedups correctly. *)
let rec set k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | (k', _) :: _ as l when k' > k -> (k, v) :: l
  | kv :: rest -> kv :: set k v rest

let rec bump k = function
  | [] -> [ (k, 1) ]
  | (k', n) :: rest when k' = k -> (k', n + 1) :: rest
  | (k', _) :: _ as l when k' > k -> (k, 1) :: l
  | kv :: rest -> kv :: bump k rest

type mon = {
  executed : ((int * string) * int) list;
      (** (ins, payload) → completions within the current session *)
  blocks : (int * (string * (int * int))) list;
      (** response block index → (payload, sw) as first served *)
}

type t = {
  host : host;
  card : string Protocol.state;
  nv : int;  (** card stable anti-rollback high-water mark *)
  faults_left : int;
  mon : mon;
}

let halted st =
  match st.host.phase with
  | Done_ok -> Some (Ok ())
  | Failed msg -> Some (Error msg)
  | _ -> None

(* An innocent session pre-seeded on channel 1: a selected document, a
   half-open chain, an undrained response. The isolation invariant says
   nothing the channel-0 exchange does — under any fault — may alter
   it. *)
let bystander_session () =
  let chain, _ =
    Protocol.Chain.feed Protocol.Chain.empty
      {
        Apdu.cla = Apdu.cla_of_channel 1;
        ins = Protocol.Ins.rules;
        p1 = 1;
        p2 = 0;
        data = "b";
      }
  in
  let sw1, sw2 = Protocol.Sw.ok in
  {
    Protocol.doc = Some doc_id;
    chain;
    pending_rules = None;
    pending_query = None;
    response = "B";
    resp_block = 1;
    resp_last = Some { Apdu.sw1; sw2; payload = "B" };
    resp_ready = true;
  }

let start config =
  let card = Protocol.initial () in
  let card =
    if config.bystander then
      {
        Protocol.sessions =
          List.mapi
            (fun i s -> if i = 1 then Some (bystander_session ()) else s)
            card.Protocol.sessions;
      }
    else card
  in
  {
    host =
      { phase = Select; exchange = 0; budget = config.retry_budget; drained = "" };
    card;
    nv = 0;
    faults_left = config.fault_budget;
    mon = { executed = []; blocks = [] };
  }

let sw (sw1, sw2) = { Apdu.sw1; sw2; payload = "" }

(* One delivery of [cmd] to the card: run the production [step], then
   judge the transition against every invariant monitor. *)
let deliver config nv st (cmd : Apdu.command) =
  let pre = st.card in
  let nv_before = !nv in
  let card, actions =
    Protocol.step ~backend:(backend config nv) ~semantics:config.semantics
      ~modulus:config.modulus ~block:config.block pre (Protocol.Command cmd)
  in
  let reply =
    match Protocol.response_of actions with
    | Some r -> r
    | None -> sw Protocol.Sw.internal
  in
  let viols = ref [] in
  let viol which detail = viols := { Invariant.which; detail } :: !viols in
  let ch = Apdu.channel_of_cla cmd.Apdu.cla in
  if cmd.Apdu.ins <> Protocol.Ins.manage_channel then
    List.iteri
      (fun i (a, b) ->
        if i <> ch && a <> b then
          viol Invariant.Isolation
            (Printf.sprintf "%s on channel %d altered channel %d's session"
               (Protocol.Ins.name cmd.Apdu.ins) ch i))
      (List.combine pre.Protocol.sessions card.Protocol.sessions);
  let executed = ref st.mon.executed and blocks = ref st.mon.blocks in
  List.iter
    (function
      | Protocol.Selected _ ->
          (* A successful SELECT restarts the session: the exactly-once
             and retransmission windows restart with it. *)
          executed := [];
          blocks := []
      | Protocol.Executed { channel = _; ins; payload } ->
          executed := bump (ins, payload) !executed;
          let n = List.assoc (ins, payload) !executed in
          if n > 1 then
            viol Invariant.Exactly_once
              (Printf.sprintf "%s payload %S executed %d times in one session"
                 (Protocol.Ins.name ins) payload n)
          else if not (List.exists (String.equal payload) (intents config)) then
            viol Invariant.Exactly_once
              (Printf.sprintf
                 "%s executed fragment %S, which the host never uploaded"
                 (Protocol.Ins.name ins) payload)
      | Protocol.Evaluated { rules; _ } ->
          (match version_of rules with
          | Some v when v < nv_before ->
              viol Invariant.Anti_rollback
                (Printf.sprintf
                   "evaluated policy version %d below the high-water mark %d"
                   v nv_before)
          | _ -> ());
          (* A fresh response stream: block 0 is what this reply served. *)
          blocks :=
            [ (0, (reply.Apdu.payload, (reply.Apdu.sw1, reply.Apdu.sw2))) ]
      | Protocol.Reply _ | Protocol.Torn -> ())
    actions;
  let evaluated =
    List.exists (function Protocol.Evaluated _ -> true | _ -> false) actions
  in
  (match (Protocol.session pre ch, Protocol.session card ch) with
  | Some p, Some q when not evaluated ->
      if q.Protocol.resp_block = p.Protocol.resp_block + 1 then
        blocks :=
          set p.Protocol.resp_block
            (reply.Apdu.payload, (reply.Apdu.sw1, reply.Apdu.sw2))
            !blocks
      else if
        cmd.Apdu.ins = Protocol.Ins.get_response
        && q.Protocol.resp_block = p.Protocol.resp_block
        && p.Protocol.resp_block > 0
        && cmd.Apdu.p2 = (p.Protocol.resp_block - 1) mod config.modulus
        && (reply.Apdu.sw1 = fst Protocol.Sw.ok
           || reply.Apdu.sw1 = fst Protocol.Sw.more_data)
      then begin
        match List.assoc_opt (p.Protocol.resp_block - 1) !blocks with
        | Some (payload, swp)
          when String.equal payload reply.Apdu.payload
               && swp = (reply.Apdu.sw1, reply.Apdu.sw2) ->
            ()
        | Some (payload, _) ->
            viol Invariant.Retransmission
              (Printf.sprintf "block %d first served as %S, re-served as %S"
                 (p.Protocol.resp_block - 1)
                 payload reply.Apdu.payload)
        | None -> ()
      end
  | _ -> ());
  ( { st with card; mon = { executed = !executed; blocks = !blocks } },
    List.rev !viols,
    reply )

let deliver_tear config nv st =
  let card, _ =
    Protocol.step ~backend:(backend config nv) ~semantics:config.semantics
      ~modulus:config.modulus ~block:config.block st.card Protocol.Tear
  in
  (* Volatile sessions are gone, monitors restart with them; stable state
     ([nv]) survives — exactly the real card's tear semantics. *)
  { st with card; mon = { executed = []; blocks = [] } }

type transition = {
  state : t;
  reply : Apdu.response;  (** what the host saw for this frame *)
  violations : Invariant.violation list;
}

(* One frame sent by the host, under one adversary choice. *)
let apply config st fault =
  match command config st.host with
  | None -> None
  | Some cmd ->
      let nv = ref st.nv in
      let st' = ref st and viols = ref [] in
      let send () =
        let st, vs, reply = deliver config nv !st' cmd in
        st' := st;
        viols := !viols @ vs;
        reply
      in
      let tear () = st' := deliver_tear config nv !st' in
      let reply = Fault.deliver fault ~send ~tear in
      let st' = !st' and viols = !viols in
      let host, hviol = advance config st'.host reply in
      let faults_left =
        match fault with None -> st.faults_left | Some _ -> st.faults_left - 1
      in
      Some
        {
          state = { st' with host; nv = !nv; faults_left };
          reply;
          violations = viols @ Option.to_list hviol;
        }

(* Canonical encoding for visited-set dedup: everything behaviorally
   relevant (host, card sessions, stable nv, remaining fault budget,
   monitor windows) and nothing path-dependent — the frame counter lives
   in the exploration path, not the state, so runs that converge to the
   same configuration by different routes dedup. *)
let key st =
  Marshal.to_string
    (st.host, st.card.Protocol.sessions, st.nv, st.faults_left, st.mon)
    [ Marshal.No_sharing ]
