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
    APDU transport using the card's logical channels. *)

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

val run : t -> Request.t -> (outcome, error) result
(** Execute one request against the proxy's local card. Installs the key
    grant on the card on first use; if the card's answer indicates a
    possibly outdated key — [Stale_key] (the publisher rotated the
    document's key, i.e. revocation), or [Bad_rules] (a rotation re-keys
    the rule blob too, and the MAC failure is indistinguishable from
    tampering on the card) — the fresh wrapped grant is re-fetched from
    the DSP and the request retried once, so surviving subjects keep
    working across a rotation without the application doing anything. With [protect] the card
    seals pending text under one-time guard keys so this proxy — an
    untrusted component — never sees data whose conditions resolve
    negatively. Raises [Sdds_xpath.Parser.Error] on a malformed [xpath]
    (the application's bug, reported synchronously). *)

val ensure_key :
  t -> doc_id:string -> subject:string -> (unit, error) result
(** Install [subject]'s wrapped grant for the document on the proxy's
    card, unless the card already holds a key for it. [No_grant] when
    the DSP has none. *)

val stale_evidence : Sdds_soe.Card.error -> bool
(** The card's answer indicates a possibly outdated key: [Stale_key], or
    [Bad_rules], which a rotation's re-keyed rule blob produces. {!run},
    {!Pool} and {!Sdds_proxy.Client.deliver} then refresh the
    grant once ({!refresh_key}) and retry. *)

val refresh_key :
  t -> doc_id:string -> subject:string -> (unit, unit) result
(** Install [subject]'s wrapped grant from the DSP even though the card
    holds a key for the document. [Error ()] when the store has no grant
    or the card refuses it. *)

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
    the basic channel as SELECT, GRANT (when the store holds one), RULES…,
    QUERY…, EVALUATE and GET RESPONSE…, and over a
    {!Sdds_soe.Remote_card.Host} it returns the view {!run} returns on a
    local card. *)
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
      the streams interleave), attaches each stream's frame/byte/retry
      cells under the [pool.*] metric names — {!served} is a view over
      the same cells — and counts channel churn
      ([pool.channels_opened], [pool.warm_setups], [pool.rekeys],
      [pool.tear_evidence]). *)

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
  (** Run the requests concurrently (frame-interleaved) and return their
      results in request order. Requests beyond the channel budget queue
      until a channel frees up. [protect] requests fail with {!Protocol}:
      guard messages have no wire codec, protection needs a local card.
      Raises [Sdds_xpath.Parser.Error] on a malformed [xpath]. *)

  (** {2 Incremental serving}

      The spelling external schedulers use ({!Sdds_proxy.Fleet}
      interleaves the streams of many single-card pools): [start] admits
      a request as a stream, each [step] advances it by at most one APDU
      frame (a no-op once finished, or while every channel is busy), and
      [result] is [Some] once the stream finished. [serve] is the
      round-robin closure of these three. *)

  type stream

  val start : t -> Request.t -> stream
  (** Admit one request. Failures detected before any frame (unknown
      document, no rules, [protect]) surface as an already-finished
      stream, not an exception — same contract as {!serve}. Raises
      [Sdds_xpath.Parser.Error] on a malformed [xpath]. *)

  val step : t -> stream -> unit
  val result : stream -> (served, error) result option

  (** {2 Migration hooks}

      Used by {!Sdds_proxy.Fleet} to re-plan a stream from a dying card
      onto another card's pool. *)

  val session_state : stream -> string * string option
  (** The (rules blob, wrapped grant) the stream was admitted with —
      captured so a migrated session re-uploads the {e same} policy. *)

  val pin : stream -> rules:string -> grant:string option -> unit
  (** Override the policy a (not-yet-started) stream will upload.
      Migration carries the blob pinned at first admission, so a store
      rollback happening mid-flight can never downgrade the re-planned
      session below what the original card enforced (anti-rollback
      watermark carry-over, terminal side). *)

  val abort : t -> stream -> unit
  (** Abandon an unfinished stream: its channel is released (or dropped
      if a tear already invalidated it), any half-drained response is
      discarded, the request span closes with outcome ["aborted"], and
      [result] becomes a [Protocol] error. Idempotent; a no-op on
      finished streams. *)
end
