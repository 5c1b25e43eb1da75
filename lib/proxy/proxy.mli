(** The terminal proxy: the glue between applications, the DSP and the
    card.

    §3: the terminal "contains a proxy allowing the applications to
    communicate easily with the different elements of the architecture
    through an XML API independent of the underlying protocols (JDBC,
    APDU)". Applications ask for documents (pull) or subscribe to streams
    (push); the proxy fetches ciphertext and encrypted rules from the DSP,
    drives the card over APDU, reassembles the card's annotated output
    into the authorized view, and hands back XML. The proxy is untrusted:
    it only ever handles ciphertext and already-authorized output.

    Requests are described by a {!Request.t} value and executed with
    {!run}; {!Pool} additionally multiplexes several requests over one
    APDU transport using the card's logical channels. Every front door
    ({!run}, {!Pool}, {!Sdds_proxy.Fleet} and
    {!Sdds_proxy.Client.deliver}) reads the DSP through one {!ticket} and
    treats the card's key by one rule ({!keyed}), so a request gets the
    same answer whichever path serves it. *)

type t

val create : store:Sdds_dsp.Store.t -> card:Sdds_soe.Card.t -> t

(** A self-contained request description — the argument of {!run} and
    {!Pool.serve}. Building the record separately from executing it lets
    applications queue, retry and batch requests as plain values. *)
module Request : sig
  type t = {
    doc_id : string;
    xpath : string option;  (** user query composed with the access rules *)
    protect : bool;  (** seal pending regions ({!Sdds_soe.Guard}) *)
    delivery : [ `Pull | `Push ];
    subject : string option;
        (** fetch this subject's (rules, grant) from the DSP instead of
            the executor's default ({!run} defaults to the card's own
            identity, {!Pool} and {!Fleet} to their [subject] argument).
            The card still enforces its own identity — rule blobs are
            MAC-bound to the card's subject — so an override only
            succeeds on a card provisioned for that subject; anything
            else surfaces as a typed card error, never as another
            subject's view. *)
  }

  val make :
    ?xpath:string ->
    ?protect:bool ->
    ?delivery:[ `Pull | `Push ] ->
    ?subject:string ->
    string ->
    t
  (** [make doc_id] with defaults: no query, no protection, [`Pull], the
      executor's default subject. The card always evaluates with its skip
      index; the no-index baseline is [Sdds_soe.Card.evaluate
      ~use_index:false], which no request selects. *)
end

(** What {!run} returns: the in-process card's view and its report. The
    request crossed no wire, so there is no frame or byte count here;
    {!Pool.served} carries the counts of a framed exchange.

    [xml] is written straight from the view builder's events
    ({!Sdds_core.Reassembler.xml}), with no DOM in between. [view] is
    that view as a DOM, rebuilt from the same card outputs only when it
    is forced; a protected request's view is the tree the unsealer
    built. A lazy field makes [=] on the record raise: compare [xml],
    or forced views. *)
type outcome = {
  view : Sdds_xml.Dom.t option Lazy.t;
      (** authorized (possibly query-filtered) view, on demand *)
  xml : string option;  (** the view serialized, as the XML API returns it *)
  card_report : Sdds_soe.Card.report;
}

type error =
  | Unknown_document of string
  | No_grant  (** the DSP holds no wrapped key for this subject *)
  | No_rules  (** no rule blob for this (document, subject) pair *)
  | Card_error of Sdds_soe.Card.error
      (** a card failure; over an APDU transport, reconstructed from the
          status word with {!Sdds_soe.Remote_card.of_sw} *)
  | Link_failure of { attempts : int }
      (** the transport kept faulting until the retry budget ([attempts])
          was exhausted ({!Pool} only) *)
  | Overloaded
      (** admission control refused the request: every per-card queue of
          the {!Fleet} was full *)
  | Protocol of string
      (** APDU-level failure that maps to no card error (unexpected
          status word, undecodable response stream, unsupported request) *)

val pp_error : Format.formatter -> error -> unit

(** What the terminal reads from the DSP for one request, once and in
    this order ({!ticket}):
    + the document, or [Unknown_document];
    + the subject's rule blob, or [No_rules];
    + the query, parsed: a malformed one raises
      [Sdds_xpath.Parser.Error] (the application's bug, reported
      synchronously);
    + the subject's grant, which may be absent: a card that holds the
      document key needs none.

    A {!Sdds_proxy.Fleet} takes the ticket at admission and carries it
    through routing and migration: a re-planned stream uploads the policy
    its request was admitted with, so a store rollback mid-flight cannot
    downgrade it. *)
type ticket = private {
  request : Request.t;
  document : Sdds_dsp.Publish.published;
  rules : string;  (** the subject's encrypted rule blob *)
  query : Sdds_xpath.Ast.t option;  (** [request.xpath], parsed *)
  grant : string option;  (** the subject's wrapped document key *)
}

val ticket :
  Sdds_dsp.Store.t -> subject:string -> Request.t -> (ticket, error) result
(** [ticket store ~subject r] reads [r]'s ticket for [r.subject], or for
    [subject] when the request names none: the card's subject for {!run},
    the pool's or the fleet's otherwise. *)

(** {b The key rule}, which every path follows.
    - A card that holds the document key is never refused because of its
      grant. In process the grant is not installed. Over APDU a GRANT the
      card refuses is not the answer: setup goes on, the card having left
      the session as it was, and EVALUATE decides.
    - A card without the key answers [No_grant] when the ticket has no
      grant (over APDU, the card's [No_key] after no GRANT was sent), and
      [Card_error Bad_grant] when it refuses the grant it was sent.
    - Stale evidence is [Stale_key] (the publisher rotated the document's
      key: revocation), or [Bad_rules], which a rotation's re-keyed rule
      blob produces and which the card cannot tell from tampering. On
      stale evidence the ticket's grant is installed and the request
      retried, once per request, so surviving subjects keep working
      across a rotation without the application doing anything. If the
      ticket has no grant, or the card refuses it, the first answer
      stands. *)

val keyed :
  Sdds_soe.Card.t ->
  doc_id:string ->
  grant:string option ->
  (unit -> ('a, Sdds_soe.Card.error) result) ->
  ('a, error) result
(** [keyed card ~doc_id ~grant attempt] runs [attempt] on a local card
    under the key rule, [grant] being the subject's wrapped key for
    [doc_id]. {!run} and {!Sdds_proxy.Client.deliver} both use it; a
    re-key counts once in the card scope's [proxy.rekeys]. *)

val run : t -> Request.t -> (outcome, error) result
(** Execute one request against the proxy's local card: its {!ticket},
    for the card's own subject unless the request names another, then
    the card's evaluation under the key rule ({!keyed}). With [protect]
    the card seals pending text under one-time guard keys so this proxy —
    an untrusted component — never sees data whose conditions resolve
    negatively. Raises [Sdds_xpath.Parser.Error] on a malformed
    [xpath]. *)

(** Multi-client serving: N request streams multiplexed over {e one} APDU
    transport to one card, using ISO 7816 logical channels
    ({!Sdds_soe.Remote_card}). The pool round-robins the streams at frame
    granularity — exactly the interleaving N independent terminals would
    produce on a shared card — and the card's per-channel sessions plus
    its prepared-evaluation cache make the views byte-identical to
    serving the requests one by one (the property tests enforce it).

    The pool is resilient: transient link faults resend the same frame,
    a channel answering [channel_closed] (a card reset closed it) is
    abandoned and the request re-acquires a fresh channel and replays
    its setup, and [bad_state] (the session's volatile state is gone)
    replays the setup on the same channel — all bounded by a per-request
    retry budget, all discarding any partially drained response first.
    A request therefore ends in exactly the authorized view or one typed
    {!error} ([Link_failure] once the budget is spent).

    The pool is the terminal's only APDU driver. A lone request runs on
    the basic channel as SELECT, GRANT (when the ticket has one the card
    has not accepted through this pool), RULES…, QUERY…, EVALUATE and GET
    RESPONSE…, and over a {!Sdds_soe.Remote_card.Host} it returns the
    view, or the error, {!run} returns on a local card. The key rule
    applies frame by frame: a refused GRANT lets the setup go on, the
    card's [No_key] reads [No_grant] or [Card_error Bad_grant], and stale
    evidence re-sends the grant and replays the setup once. *)
module Pool : sig
  type t

  val retry_budget : int
  (** Recovery actions one request may spend (16): each resent frame,
      failed MANAGE CHANNEL open and session replay costs one. There is
      no backoff; a resend goes out on the request's next {!step}. *)

  val create :
    ?obs:Sdds_obs.Obs.t ->
    store:Sdds_dsp.Store.t ->
    transport:Sdds_soe.Remote_card.transport ->
    subject:string ->
    unit ->
    t
  (** The pool opens up to {!Sdds_soe.Apdu.max_channels} logical
      channels, lazily with MANAGE CHANNEL, and reuses them across
      {!serve} calls, with the channel's card-side session remembered so
      a repeat request skips the select/grant/rules/query upload
      entirely (warm setup).

      [obs] opens one [proxy.request] root span per served request
      (every transport exchange re-roots the implicit span stack at it,
      so host-side [apdu] spans nest under the right request even though
      the streams interleave), counts [pool.requests] and channel churn
      ([pool.channels_opened], [pool.warm_setups], [pool.rekeys],
      [pool.tear_evidence]). Each stream keeps its own frame, byte and
      retry counts, which {!served} reads, and adds them to
      [pool.command_frames], [pool.response_frames], [pool.wire_bytes]
      and [pool.retries] once, when it ends: served, failed, aborted or
      refused. *)

  (** One request's result. [xml] is written as the response bytes
      decode ({!Sdds_core.Output_codec.iter} into
      {!Sdds_core.Reassembler.xml}); [view] rebuilds the DOM from the
      same bytes only when it is forced, so [=] on the record raises. A
      stream that the decoder or the view builder refuses ends the
      request in [Protocol "bad response stream: ..."]. *)
  type served = {
    view : Sdds_xml.Dom.t option Lazy.t;
    xml : string option;
    channel : int;  (** logical channel that served this request *)
    warm_setup : bool;  (** setup upload skipped — channel already primed *)
    command_frames : int;
    response_frames : int;
    wire_bytes : int;
    retries : int;  (** recovery actions spent on this request *)
  }

  val serve : t -> Request.t list -> (served, error) result list
  (** Take every request's {!ticket} (the pool's [subject] the default),
      run the requests concurrently (frame-interleaved) and return their
      results in request order. Requests beyond the channel budget queue
      until a channel frees up. A request its ticket refuses, or a
      [protect] request (refused with {!Protocol} after its ticket: guard
      messages have no wire codec, protection needs a local card), ends
      before any frame, with one [pool.requests] and a root span stopped
      with outcome ["rejected"]. Raises [Sdds_xpath.Parser.Error] on a
      malformed [xpath], before any request is counted. *)

  (** {2 Incremental serving}

      The spelling external schedulers use ({!Sdds_proxy.Fleet}
      interleaves the streams of many single-card pools): [start] admits
      a request as a stream, each [step] advances it by at most one APDU
      frame (a no-op once finished, or while every channel is busy), and
      [result] is [Some] once the stream finished. [serve] is the
      round-robin closure of these three over the tickets it takes. *)

  type stream

  val start : t -> ticket -> stream
  (** Admit one ticketed request ({!Sdds_proxy.Fleet} takes the ticket
      at admission and starts it again on each card the request is
      planned on). A [protect] request surfaces as an already-finished
      stream with [Protocol], not an exception, counted as {!serve}
      counts it. *)

  val step : t -> stream -> unit
  val result : stream -> (served, error) result option

  val abort : t -> stream -> unit
  (** Abandon an unfinished stream, as {!Sdds_proxy.Fleet} does when it
      evacuates a card: its channel is released (or dropped if a tear
      already invalidated it), any half-drained response is discarded,
      the request span closes with outcome ["aborted"], and [result]
      becomes a [Protocol] error. Idempotent; a no-op on finished
      streams. *)
end
