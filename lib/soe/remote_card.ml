module Output_codec = Sdds_core.Output_codec
module Obs = Sdds_obs.Obs

(* Ins, Sw and the chain automaton live in {!Protocol}: the protocol
   logic is a pure transition function there, and this module is the
   imperative production driver over it. *)
module Ins = Protocol.Ins
module Sw = Protocol.Sw

type transport = Apdu.command -> Apdu.response

(* One status word per {!Card.error} constructor, so the terminal can act on
   the failure (retry the grant, refetch the document, surface revocation)
   without a side channel. [Integrity_failure] carries the failing chunk in
   sw2; the string payloads ([No_key]/[Stale_key] document ids, [Bad_rules]
   diagnostics) do not cross the wire — [of_sw] reconstructs them from the
   caller's context. *)
let to_sw = function
  | Card.No_key _ -> Sw.not_found
  | Card.Stale_key _ -> Sw.stale_key
  | Card.Bad_grant -> Sw.bad_grant
  | Card.Bad_signature -> Sw.bad_signature
  | Card.Bad_rules _ -> Sw.security
  | Card.Replayed_rules _ -> Sw.replayed
  | Card.Memory_exceeded _ -> Sw.memory
  | Card.Integrity_failure { chunk } -> (Sw.integrity_sw1, chunk land 0xff)

let of_sw ?(doc_id = "?") (sw1, sw2) =
  let sw = (sw1, sw2) in
  if sw = Sw.not_found then Some (Card.No_key doc_id)
  else if sw = Sw.stale_key then Some (Card.Stale_key doc_id)
  else if sw = Sw.bad_grant then Some Card.Bad_grant
  else if sw = Sw.bad_signature then Some Card.Bad_signature
  else if sw = Sw.security then Some (Card.Bad_rules "rule blob rejected")
  else if sw = Sw.replayed then
    Some (Card.Replayed_rules { seen = 0; offered = 0 })
  else if sw = Sw.memory then
    Some (Card.Memory_exceeded { need_bytes = 0; budget_bytes = 0 })
  else if sw1 = Sw.integrity_sw1 then
    Some (Card.Integrity_failure { chunk = sw2 })
  else None

type verdict =
  | Done
  | More of int
  | Transient
  | Session_lost
  | Fatal of Card.error
  | Unknown of int * int

(* The single triage point for a response status word. [Transient] words
   ([Sw.transport], [Sw.internal]) mean the frame may not have reached the
   card — the link layer detected loss or corruption, or the card hiccuped
   before processing — so resending the same frame is always safe.
   [Session_lost] means the channel's volatile session state is gone (card
   tear, or a continuation arriving on a fresh session): the setup must be
   replayed before anything else can succeed. *)
let classify ?doc_id (resp : Apdu.response) =
  let sw = (resp.Apdu.sw1, resp.Apdu.sw2) in
  if sw = Sw.ok then Done
  else if resp.Apdu.sw1 = fst Sw.more_data then More resp.Apdu.sw2
  else if sw = Sw.transport || sw = Sw.internal then Transient
  else if sw = Sw.bad_state || sw = Sw.channel_closed then Session_lost
  else
    match of_sw ?doc_id sw with
    | Some e -> Fatal e
    | None -> Unknown (resp.Apdu.sw1, resp.Apdu.sw2)

module Host = struct
  type t = {
    backend : Card.doc_source Protocol.backend;
    semantics : Protocol.chain_semantics;
    mutable state : Card.doc_source Protocol.state;
    obs : Obs.t option;
    c_cmds : Obs.Metrics.Counter.t;
    c_tears : Obs.Metrics.Counter.t;
    h_frame_bytes : Obs.Metrics.Histogram.t;
    h_rtt_ns : Obs.Metrics.Histogram.t;
  }

  (* The card-level effects behind the pure machine: SELECT resolution,
     grant installation and policy evaluation, each mapped to its status
     word through [to_sw]. A rules blob is judged when it is evaluated,
     and a query that does not parse is refused there, before the card
     runs. *)
  let backend ~card ~resolve : Card.doc_source Protocol.backend =
    {
      Protocol.resolve;
      install_grant =
        (fun doc ~wrapped ->
          match
            Card.install_wrapped_key card ~doc_id:doc.Card.doc_id ~wrapped
          with
          | Ok () -> Ok ()
          | Error e -> Error (to_sw e));
      accept_rules = (fun _ _ -> Ok ());
      evaluate =
        (fun doc ~rules ~query ~push ->
          match Option.map Sdds_xpath.Parser.parse query with
          | exception Sdds_xpath.Parser.Error _ -> Error Sw.bad_query
          | query -> (
              let delivery = if push then `Push else `Pull in
              match
                Card.evaluate card { doc with Card.delivery }
                  ~encrypted_rules:rules ?query ()
              with
              | Ok (outputs, _report) -> Ok (Output_codec.encode_list outputs)
              | Error e -> Error (to_sw e)));
    }

  (* A host lives as long as its scope: it counts into the scope's cells
     directly. *)
  let create ?obs ?(semantics = Protocol.Identity_marker) ~card ~resolve () =
    {
      backend = backend ~card ~resolve;
      semantics;
      state = Protocol.initial ();
      obs;
      c_cmds = Obs.counter obs "apdu.commands";
      c_tears = Obs.counter obs "card.tears";
      h_frame_bytes = Obs.histogram obs "apdu.frame_bytes";
      h_rtt_ns = Obs.histogram obs "apdu.rtt_ns";
    }

  let open_channels t = Protocol.open_channels t.state

  (* Power loss / card extraction: every volatile session dies — logical
     channels 1–3 close, the basic channel restarts fresh. Card-level
     state (the key store, the anti-rollback high-water marks, the
     prepared-evaluation cache) lives in non-volatile memory and
     survives, which is what makes warm recovery after a tear cheap. *)
  let tear t =
    Obs.Metrics.Counter.inc t.c_tears;
    Obs.Tracer.instant (Obs.tracer t.obs) "card.tear";
    let state, _ = Protocol.step ~backend:t.backend t.state Protocol.Tear in
    t.state <- state

  let process t (cmd : Apdu.command) =
    let tr = Obs.tracer t.obs in
    Obs.Metrics.Counter.inc t.c_cmds;
    let t0 = Obs.Tracer.now tr in
    let resp =
      Obs.Tracer.with_span tr
        ~args:
          [ ("ins", Ins.name cmd.Apdu.ins);
            ( "channel",
              if Apdu.valid_cla cmd.Apdu.cla then
                string_of_int (Apdu.channel_of_cla cmd.Apdu.cla)
              else "?" ) ]
        "apdu"
      @@ fun () ->
      let state, actions =
        Protocol.step ~backend:t.backend ~semantics:t.semantics t.state
          (Protocol.Command cmd)
      in
      t.state <- state;
      match Protocol.response_of actions with
      | Some resp -> resp
      | None ->
          (* Unreachable: a [Command] step always replies. *)
          { Apdu.sw1 = fst Sw.internal; sw2 = snd Sw.internal; payload = "" }
    in
    Obs.Metrics.Histogram.observe t.h_frame_bytes
      (Apdu.command_bytes cmd + Apdu.response_bytes resp);
    if Obs.Tracer.enabled tr then
      Obs.Metrics.Histogram.observe t.h_rtt_ns
        (Int64.to_int (Int64.sub (Obs.Tracer.now tr) t0));
    resp
end

