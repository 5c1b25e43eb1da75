module Store = Sdds_dsp.Store
module Publish = Sdds_dsp.Publish
module Card = Sdds_soe.Card
module Apdu = Sdds_soe.Apdu
module Remote = Sdds_soe.Remote_card
module Reassembler = Sdds_core.Reassembler
module Output_codec = Sdds_core.Output_codec
module Serializer = Sdds_xml.Serializer
module Obs = Sdds_obs.Obs

type t = { store : Store.t; card : Card.t }

let create ~store ~card = { store; card }

module Request = struct
  type t = {
    doc_id : string;
    xpath : string option;
    protect : bool;
    delivery : [ `Pull | `Push ];
    subject : string option;
  }

  let make ?xpath ?(protect = false) ?(delivery = `Pull) ?subject doc_id =
    { doc_id; xpath; protect; delivery; subject }
end

type outcome = {
  view : Sdds_xml.Dom.t option Lazy.t;
  xml : string option;
  card_report : Card.report;
}

type error =
  | Unknown_document of string
  | No_grant
  | No_rules
  | Card_error of Card.error
  | Link_failure of { attempts : int }
  | Overloaded
  | Protocol of string

let pp_error ppf = function
  | Unknown_document id -> Format.fprintf ppf "unknown document %s" id
  | No_grant -> Format.pp_print_string ppf "no key grant for this subject"
  | No_rules -> Format.pp_print_string ppf "no access rules for this subject"
  | Card_error e -> Card.pp_error ppf e
  | Link_failure { attempts } ->
      Format.fprintf ppf
        "link failure: retry budget exhausted after %d retries" attempts
  | Overloaded ->
      Format.pp_print_string ppf
        "overloaded: admission control refused the request (every queue full)"
  | Protocol msg -> Format.fprintf ppf "protocol error: %s" msg

type ticket = {
  request : Request.t;
  document : Publish.published;
  rules : string;
  query : Sdds_xpath.Ast.t option;
  grant : string option;
}

(* Everything the terminal reads from the DSP for one request, once and
   in one order: the document, the subject's rule blob, the parsed query
   (a malformed one raises: the application's bug, reported
   synchronously), then the subject's grant, whose absence is not an
   error yet — a card that holds the key needs none. *)
let ticket store ~subject (r : Request.t) =
  let doc_id = r.Request.doc_id in
  match Store.get_document store doc_id with
  | None -> Error (Unknown_document doc_id)
  | Some document -> (
      let subject = Option.value ~default:subject r.Request.subject in
      match Store.get_rules store ~doc_id ~subject with
      | None -> Error No_rules
      | Some rules ->
          let query = Option.map Sdds_xpath.Parser.parse r.Request.xpath in
          Ok
            {
              request = r;
              document;
              rules;
              query;
              grant = Store.get_grant store ~doc_id ~subject;
            })

(* Evidence that the card's key may predate a rotation: [Stale_key], or
   [Bad_rules], because a rotation re-keys the rule blob too and the
   blob's MAC failure under the outdated key is, on the card,
   indistinguishable from tampering. *)
let stale = function Card.Stale_key _ | Card.Bad_rules _ -> true | _ -> false

(* The key rule on a local card (proxy.mli states it). *)
let keyed card ~doc_id ~grant attempt =
  let card_error r = Result.map_error (fun e -> Card_error e) r in
  let installed =
    if Card.has_key card ~doc_id then Ok ()
    else
      match grant with
      | None -> Error No_grant
      | Some wrapped ->
          card_error (Card.install_wrapped_key card ~doc_id ~wrapped)
  in
  match installed with
  | Error e -> Error e
  | Ok () -> (
      match attempt () with
      | Error e as first when stale e -> (
          match grant with
          | Some wrapped
            when Result.is_ok (Card.install_wrapped_key card ~doc_id ~wrapped)
            ->
              Obs.inc (Card.obs card) "proxy.rekeys" 1;
              card_error (attempt ())
          | _ -> card_error first)
      | result -> card_error result)

let evaluate card source (tk : ticket) () =
  match
    Card.evaluate card source ~encrypted_rules:tk.rules ?query:tk.query ()
  with
  | Error e -> Error e
  | Ok (outputs, card_report) ->
      let has_query = tk.query <> None in
      Ok
        {
          view = lazy (Reassembler.run ~has_query outputs);
          xml = Reassembler.xml ~has_query (fun f -> List.iter f outputs);
          card_report;
        }

let evaluate_protected card source (tk : ticket) () =
  match
    Card.evaluate_protected card source ~encrypted_rules:tk.rules
      ?query:tk.query ()
  with
  | Error e -> Error e
  | Ok (messages, card_report) ->
      let unsealer =
        Sdds_soe.Guard.Unsealer.create ~has_query:(tk.query <> None) ()
      in
      List.iter (Sdds_soe.Guard.Unsealer.feed unsealer) messages;
      let view = Sdds_soe.Guard.Unsealer.finish unsealer in
      Ok
        {
          view = Lazy.from_val view;
          xml = Option.map (Serializer.to_string ~indent:true) view;
          card_report;
        }

(* The request's subject defaults to the card's own identity; a fleet
   front-end serving a whole population overrides it per request (the
   store's rules and grants are per (document, subject), but every
   subject's grant wraps the same document key, so any card can serve any
   subject it holds a usable grant for). *)
let run t (r : Request.t) =
  let obs = Card.obs t.card in
  Obs.inc obs "proxy.requests" 1;
  Obs.Tracer.with_span (Obs.tracer obs)
    ~args:
      [ ("doc_id", r.Request.doc_id);
        ("xpath", Option.value ~default:"" r.Request.xpath) ]
    "proxy.request"
  @@ fun () ->
  match ticket t.store ~subject:(Card.subject t.card) r with
  | Error e -> Error e
  | Ok tk ->
      let source = Publish.to_source tk.document ~delivery:r.Request.delivery in
      keyed t.card ~doc_id:r.Request.doc_id ~grant:tk.grant
        ((if r.Request.protect then evaluate_protected else evaluate)
           t.card source tk)

module Pool = struct
  type served = {
    view : Sdds_xml.Dom.t option Lazy.t;
    xml : string option;
    channel : int;
    warm_setup : bool;
    command_frames : int;
    response_frames : int;
    wire_bytes : int;
    retries : int;
  }

  (* What the channel's card-side session holds after a completed setup;
     a request that matches can skip straight to EVALUATE. *)
  type memo = { m_doc : string; m_rules : string; m_xpath : string option }

  let retry_budget = 16

  type t = {
    store : Store.t;
    transport : Remote.transport;
    subject : string;
    mutable free : int list;  (* open channels not serving a stream *)
    mutable opened : int;  (* channels opened so far, basic included *)
    mutable epoch : int;  (* bumped on evidence of a card tear *)
    memos : (int, memo) Hashtbl.t;
    granted : (string, unit) Hashtbl.t;  (* grants already installed *)
    obs : Obs.t option;
  }

  let create ?obs ~store ~transport ~subject () =
    {
      store;
      transport;
      subject;
      free = [ 0 ];
      opened = 1;
      epoch = 0;
      memos = Hashtbl.create 4;
      granted = Hashtbl.create 8;
      obs;
    }

  type phase =
    | Wait_channel
    | Setup of Apdu.command list  (* frames still to send *)
    | Eval
    | Drain
    | Finished of (served, error) result

  type stream = {
    tk : ticket;
    mutable channel : int;  (* -1 until assigned *)
    mutable epoch : int;  (* pool epoch when the channel was assigned *)
    mutable warm : bool;
    mutable phase : phase;
    mutable budget : int;  (* transient-fault retries left *)
    mutable stale : Card.error option;
        (* the first stale answer, once the grant was re-sent for it *)
    mutable resp_block : int;  (* next GET RESPONSE block to ask for *)
    span : Obs.Tracer.span;  (* per-request root span; stopped in finish *)
    (* The stream's own counts, which [served] reads; [publish] adds them
       to the scope's [pool.*] cells when the stream ends. *)
    mutable cmds : int;
    mutable resps : int;
    mutable bytes : int;
    mutable retries : int;
    buf : Buffer.t;  (* response accumulation *)
  }

  let doc st = st.tk.request.Request.doc_id

  (* The serve loop interleaves frames of many streams on one transport,
     so the implicit span stack cannot know which request a frame belongs
     to: re-root it at the stream's span for the duration of the
     exchange — host-side APDU spans then nest under the right request. *)
  let send t st cmd =
    st.cmds <- st.cmds + 1;
    st.bytes <- st.bytes + Apdu.command_bytes cmd;
    let resp =
      Obs.Tracer.with_parent (Obs.tracer t.obs) st.span (fun () ->
          t.transport cmd)
    in
    st.resps <- st.resps + 1;
    st.bytes <- st.bytes + Apdu.response_bytes resp;
    resp

  let release t st =
    if st.channel >= 0 then begin
      t.free <- t.free @ [ st.channel ];
      st.channel <- -1
    end

  (* Discard any partially accumulated response: recovery always replays
     from EVALUATE, so the application can never see a view stitched
     together across a tear. *)
  let reset_partial st =
    Buffer.clear st.buf;
    st.resp_block <- 0

  (* Every path that ends a request — served, failed, aborted or
     refused — adds its counts to the scope's [pool.*] cells, once. *)
  let publish t ~cmds ~resps ~bytes ~retries =
    Obs.inc t.obs "pool.command_frames" cmds;
    Obs.inc t.obs "pool.response_frames" resps;
    Obs.inc t.obs "pool.wire_bytes" bytes;
    Obs.inc t.obs "pool.retries" retries

  let publish_stream t st =
    publish t ~cmds:st.cmds ~resps:st.resps ~bytes:st.bytes
      ~retries:st.retries

  let finish t st result =
    let result =
      match result with
      | Ok () -> (
          let encoded = Buffer.contents st.buf in
          let has_query = st.tk.query <> None in
          (* The bytes are the card's word only: the decoder's and the
             view builder's refusals alike are protocol errors. The XML
             is written as the bytes decode; the DOM is rebuilt from the
             same bytes only if a caller forces it. *)
          match
            Reassembler.xml ~has_query (fun f -> Output_codec.iter f encoded)
          with
          | xml ->
              Ok
                {
                  view =
                    lazy
                      (Reassembler.run ~has_query
                         (Output_codec.decode_list encoded));
                  xml;
                  channel = st.channel;
                  warm_setup = st.warm;
                  command_frames = st.cmds;
                  response_frames = st.resps;
                  wire_bytes = st.bytes;
                  retries = st.retries;
                }
          | exception Invalid_argument msg ->
              Error (Protocol ("bad response stream: " ^ msg)))
      | Error e -> Error e
    in
    release t st;
    publish_stream t st;
    Obs.Tracer.stop (Obs.tracer t.obs)
      ~args:
        [ ( "outcome",
            match result with Ok _ -> "ok" | Error _ -> "error" );
          ("warm", string_of_bool st.warm) ]
      st.span;
    st.phase <- Finished result

  let sw_error st (resp : Apdu.response) =
    let sw = (resp.Apdu.sw1, resp.Apdu.sw2) in
    match Remote.of_sw ~doc_id:(doc st) sw with
    | Some e -> Card_error e
    | None ->
        Protocol
          (Printf.sprintf "SW %02X%02X" resp.Apdu.sw1 resp.Apdu.sw2)

  (* Spend one unit of the stream's retry budget on a recovery action, or
     fail the stream with a typed [Link_failure] once it is gone — the
     pool can always say how the request ended. *)
  let charge t st k =
    if st.budget <= 0 then
      finish t st (Error (Link_failure { attempts = retry_budget }))
    else begin
      st.budget <- st.budget - 1;
      st.retries <- st.retries + 1;
      k ()
    end

  (* Evidence that the card lost all volatile state (a frame answered
     [channel_closed]: only a reset closes channels under the pool).
     Everything channel-shaped the pool believed is now false: channels
     1–3 are gone (only the basic channel survives a reset, fresh), every
     memoized session is void. Bumping the epoch makes every stream still
     holding a pre-tear channel re-acquire before its next frame — two
     streams can never end up sharing a reassigned channel, which could
     serve one of them the other's view. *)
  let tear_evidence (t : t) =
    Obs.inc t.obs "pool.tear_evidence" 1;
    t.epoch <- t.epoch + 1;
    Hashtbl.reset t.memos;
    t.free <- (if List.mem 0 t.free then [ 0 ] else []);
    t.opened <- 1

  type acquired = Got of int | Wait | Soft | Hard of error

  (* Take a free channel, or open one with MANAGE CHANNEL while the card
     has one left. The open frames are charged to the stream that
     triggered them — amortized away once the channel is reused. *)
  let acquire t st =
    match t.free with
    | ch :: rest ->
        t.free <- rest;
        Got ch
    | [] ->
        if t.opened >= Apdu.max_channels then Wait
        else begin
          let resp =
            send t st
              {
                Apdu.cla = Apdu.base_cla;
                ins = Remote.Ins.manage_channel;
                p1 = 0;
                p2 = 0;
                data = "";
              }
          in
          let sw = (resp.Apdu.sw1, resp.Apdu.sw2) in
          if sw = Remote.Sw.ok && String.length resp.Apdu.payload = 1 then begin
            let ch = Char.code resp.Apdu.payload.[0] in
            if ch < 1 || ch >= Apdu.max_channels then
              (* No real card answers a channel number outside 1..3: the
                 response payload was corrupted in flight. *)
              Soft
            else begin
              (* The pool opens channels sequentially and never closes
                 them, so a healthy open always returns exactly
                 [t.opened]. A lower number means the card's channel
                 table reset underneath us (a tear the pool has not yet
                 observed through [channel_closed]) and the card is
                 re-issuing a number some stream still believes it
                 holds. Without the epoch bump here, two streams would
                 interleave well-formed frames on one channel and one
                 could be served the other's view. A higher number
                 (a duplicated open consumed an extra slot) is merely
                 leaked capacity — account past it. *)
              if ch < t.opened then tear_evidence t;
              t.opened <- max t.opened (ch + 1);
              Obs.inc t.obs "pool.channels_opened" 1;
              Got ch
            end
          end
          else if
            sw = Remote.Sw.transport || sw = Remote.Sw.internal
            || sw = Remote.Sw.no_channel
          then Soft
          else Hard (sw_error st resp)
        end

  (* The frames that bring the channel's session to this request. A grant
     is pending while the ticket has one and the card has not accepted a
     grant for the document through this pool. The setup is warm, and
     sends nothing, when no grant is pending and the channel's memo
     matches; otherwise it is SELECT, the pending GRANT, RULES… and
     QUERY…. *)
  let setup_frames t st =
    let doc_id = doc st and xpath = st.tk.request.Request.xpath in
    let cla = Apdu.cla_of_channel st.channel in
    let grant =
      match st.tk.grant with
      | Some w when not (Hashtbl.mem t.granted doc_id) ->
          [ { Apdu.cla; ins = Remote.Ins.grant; p1 = 0; p2 = 0; data = w } ]
      | _ -> []
    in
    let warm =
      grant = []
      &&
      match Hashtbl.find_opt t.memos st.channel with
      | Some m ->
          String.equal m.m_doc doc_id
          && String.equal m.m_rules st.tk.rules
          && m.m_xpath = xpath
      | None -> false
    in
    st.warm <- warm;
    if warm then begin
      Obs.inc t.obs "pool.warm_setups" 1;
      []
    end
    else begin
      let sel =
        { Apdu.cla; ins = Remote.Ins.select; p1 = 0; p2 = 0; data = doc_id }
      in
      let rules = Apdu.segment ~cla ~ins:Remote.Ins.rules st.tk.rules in
      let query =
        match xpath with
        | None -> []
        | Some q -> Apdu.segment ~cla ~ins:Remote.Ins.query q
      in
      (sel :: grant) @ rules @ query
    end

  let setup t st =
    st.phase <- (match setup_frames t st with [] -> Eval | fs -> Setup fs)

  let cold_setup t st =
    Hashtbl.remove t.memos st.channel;
    reset_partial st;
    setup t st

  let session_lost t st (resp : Apdu.response) =
    if (resp.Apdu.sw1, resp.Apdu.sw2) = Remote.Sw.channel_closed then begin
      tear_evidence t;
      (* The channel is dead — it must not go back to the free list. *)
      st.channel <- -1;
      reset_partial st;
      charge t st (fun () -> st.phase <- Wait_channel)
    end
    else
      (* [bad_state]: the channel is open but its session is fresh (a
         tear took the basic channel's state, or a stale continuation) —
         replay the whole setup on the same channel. *)
      charge t st (fun () -> cold_setup t st)

  (* A card refusal, under the key rule: stale evidence re-sends the
     ticket's grant and replays cold, once per request; without a grant
     to send, and on any other refusal, the card's answer stands. *)
  let fatal t st ~clear_memo e =
    match (st.stale, st.tk.grant) with
    | None, Some _ when stale e ->
        st.stale <- Some e;
        Obs.inc t.obs "pool.rekeys" 1;
        Hashtbl.remove t.granted (doc st);
        cold_setup t st
    | _ ->
        if clear_memo then Hashtbl.remove t.memos st.channel;
        finish t st (Error (Card_error e))

  (* A setup frame accepted: on to the next, or, after the last, record
     what the channel's session now holds. *)
  let setup_next t st = function
    | [] ->
        Hashtbl.replace t.memos st.channel
          {
            m_doc = doc st;
            m_rules = st.tk.rules;
            m_xpath = st.tk.request.Request.xpath;
          };
        st.phase <- Eval
    | rest -> st.phase <- Setup rest

  let eval_frame st =
    {
      Apdu.cla = Apdu.cla_of_channel st.channel;
      ins = Remote.Ins.evaluate;
      p1 = (match st.tk.request.Request.delivery with `Push -> 1 | `Pull -> 0);
      p2 = 0;
      data = "";
    }

  (* Advance a stream by exactly one frame (or one channel-table action):
     the serve loop round-robins over the streams, so frames from the N
     requests interleave on the shared transport the way N independent
     terminals would interleave on a shared card.

     Recovery is woven into the same state machine: a [Transient] word
     leaves the phase unchanged (the identical frame is resent on the
     next step — the host's duplicate-ack and block-retransmission make
     that safe), a lost session replays the setup, and both spend from
     the stream's bounded retry budget. *)
  let step (t : t) st =
    (* A channel assigned before the last observed tear may since have
       been reassigned by the card: drop it before sending anything. *)
    (match st.phase with
    | Finished _ | Wait_channel -> ()
    | Setup _ | Eval | Drain ->
        if st.channel >= 0 && st.epoch <> t.epoch then begin
          if st.channel = 0 then t.free <- t.free @ [ 0 ];
          st.channel <- -1;
          reset_partial st;
          st.phase <- Wait_channel
        end);
    match st.phase with
    | Finished _ -> ()
    | Wait_channel -> (
        match acquire t st with
        | Wait -> ()  (* every channel busy: wait for a release *)
        | Soft -> charge t st (fun () -> ())
        | Hard e -> finish t st (Error e)
        | Got ch ->
            st.channel <- ch;
            st.epoch <- t.epoch;
            setup t st)
    | Setup [] -> st.phase <- Eval
    | Setup (cmd :: rest) -> (
        let resp = send t st cmd in
        match Remote.classify ~doc_id:(doc st) resp with
        | Remote.Done ->
            if cmd.Apdu.ins = Remote.Ins.grant then
              Hashtbl.replace t.granted (doc st) ();
            setup_next t st rest
        | Remote.Fatal _ when cmd.Apdu.ins = Remote.Ins.grant -> (
            match st.stale with
            | None ->
                (* The key rule: a refused grant is not the answer. The
                   card left the session as it was, and a card that holds
                   the key still serves: EVALUATE decides. *)
                setup_next t st rest
            | Some first ->
                (* The grant re-sent for stale evidence was refused: the
                   first answer stands. *)
                Hashtbl.remove t.memos st.channel;
                finish t st (Error (Card_error first)))
        | Remote.Transient -> charge t st (fun () -> ())
        | Remote.Session_lost -> session_lost t st resp
        | Remote.Fatal e -> fatal t st ~clear_memo:true e
        | Remote.More _ | Remote.Unknown _ ->
            (* Half-done setup: whatever the channel session holds no
               longer matches any memo. *)
            Hashtbl.remove t.memos st.channel;
            finish t st (Error (sw_error st resp)))
    | Eval -> (
        let resp = send t st (eval_frame st) in
        match Remote.classify ~doc_id:(doc st) resp with
        | Remote.Done ->
            Buffer.add_string st.buf resp.Apdu.payload;
            finish t st (Ok ())
        | Remote.More _ ->
            Buffer.add_string st.buf resp.Apdu.payload;
            st.resp_block <- 1;
            st.phase <- Drain
        | Remote.Transient -> charge t st (fun () -> reset_partial st)
        | Remote.Session_lost -> session_lost t st resp
        | Remote.Fatal (Card.No_key _) ->
            (* The card holds no key. A setup that owes the card a grant
               is never warm, and a grant the card accepted leaves it
               holding the key: so either the ticket has no grant, or
               the card refused the one it was sent. *)
            finish t st
              (Error
                 (match st.tk.grant with
                 | None -> No_grant
                 | Some _ -> Card_error Card.Bad_grant))
        | Remote.Fatal e ->
            (* An EVALUATE failure leaves the channel's setup intact —
               the memo stays valid for the next request. *)
            fatal t st ~clear_memo:false e
        | Remote.Unknown _ -> finish t st (Error (sw_error st resp)))
    | Drain -> (
        let resp =
          send t st
            {
              Apdu.cla = Apdu.cla_of_channel st.channel;
              ins = Remote.Ins.get_response;
              p1 = 0;
              p2 = st.resp_block land 0xff;
              data = "";
            }
        in
        match Remote.classify ~doc_id:(doc st) resp with
        | Remote.Done ->
            Buffer.add_string st.buf resp.Apdu.payload;
            finish t st (Ok ())
        | Remote.More _ ->
            Buffer.add_string st.buf resp.Apdu.payload;
            st.resp_block <- st.resp_block + 1;
            st.phase <- Drain
        | Remote.Transient ->
            (* Re-ask for the same block: the host retransmits it
               byte-identically if it had already been served. *)
            charge t st (fun () -> ())
        | Remote.Session_lost -> session_lost t st resp
        | Remote.Fatal e -> fatal t st ~clear_memo:false e
        | Remote.Unknown _ -> finish t st (Error (sw_error st resp)))

  (* The bookkeeping of every request the pool is handed, refused or
     not: one [pool.requests] and its root span. *)
  let open_request t (r : Request.t) =
    Obs.inc t.obs "pool.requests" 1;
    Obs.Tracer.start (Obs.tracer t.obs) ~parent:Obs.Tracer.none
      ~args:
        [ ("doc_id", r.Request.doc_id);
          ("xpath", Option.value ~default:"" r.Request.xpath) ]
      "proxy.request"

  (* Refused before any frame: the request ends here, since it never
     reaches [finish], having sent nothing. *)
  let reject t span =
    publish t ~cmds:0 ~resps:0 ~bytes:0 ~retries:0;
    Obs.Tracer.stop (Obs.tracer t.obs) ~args:[ ("outcome", "rejected") ] span

  (* Incremental serving, for external schedulers (the {!Fleet}) that
     interleave this pool's streams with other pools': [start] admits a
     ticketed request, each [step] advances it by at most one frame, and
     [result] is [Some] once it finished. [serve] is their round-robin
     closure. *)
  let start t tk =
    let span = open_request t tk.request in
    let st =
      {
        tk;
        channel = -1;
        epoch = t.epoch;
        warm = false;
        phase = Wait_channel;
        budget = retry_budget;
        stale = None;
        resp_block = 0;
        span;
        cmds = 0;
        resps = 0;
        bytes = 0;
        retries = 0;
        buf = Buffer.create 256;
      }
    in
    if tk.request.Request.protect then begin
      reject t span;
      st.phase <-
        Finished
          (Error
             (Protocol
                "protect requires a local card: Guard messages have no wire \
                 codec"))
    end;
    st

  let result st = match st.phase with Finished r -> Some r | _ -> None

  let serve t reqs =
    let tickets = List.map (ticket t.store ~subject:t.subject) reqs in
    let streams =
      List.map2
        (fun r -> function
          | Ok tk -> Ok (start t tk)
          | Error e ->
              reject t (open_request t r);
              Error e)
        reqs tickets
    in
    let live = List.filter_map Result.to_option streams in
    let active st = match st.phase with Finished _ -> false | _ -> true in
    let rec loop () =
      match List.filter active live with
      | [] -> ()
      | live ->
          List.iter (step t) live;
          loop ()
    in
    loop ();
    List.map
      (function
        | Ok { phase = Finished r; _ } -> r
        | Ok _ -> assert false
        | Error e -> Error e)
      streams

  let abort t st =
    match st.phase with
    | Finished _ -> ()
    | phase ->
        (* A half-done setup left the channel's card-side session in a
           state no memo describes. *)
        (match phase with
        | Setup _ -> Hashtbl.remove t.memos st.channel
        | _ -> ());
        (if st.channel >= 0 then
           if st.epoch = t.epoch then release t st
           else begin
             (* Stale channel: gone from the card, except the basic
                channel, which always survives (same rule as [step]). *)
             if st.channel = 0 then t.free <- t.free @ [ 0 ];
             st.channel <- -1
           end);
        reset_partial st;
        publish_stream t st;
        Obs.Tracer.stop (Obs.tracer t.obs)
          ~args:[ ("outcome", "aborted") ]
          st.span;
        st.phase <- Finished (Error (Protocol "aborted"))
end
