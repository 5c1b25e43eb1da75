(** The card behind a real APDU transport: the card end of the
    terminal–card protocol, and the status-word contract both ends share.

    {!Card} exposes an OCaml API; on the demo platform, however, "the
    complexity of the access control, query and security management is
    confined in the smart card and its proxy", and everything crosses an
    ISO 7816 link in 255-byte frames. {!Host} is the card-resident
    command dispatcher: it decodes {!Apdu.command} frames (select
    document, install grant, load rules, set query, evaluate, drain
    response), drives {!Card}, and encodes status words + response
    frames. {!to_sw}, {!of_sw} and {!classify} are the contract the
    terminal reads those words by.

    The terminal end is {!Sdds_proxy.Proxy.Pool}: it marshals requests
    into command chains, feeds them to a {!transport}, reassembles the
    response stream and decodes it with [Output_codec]. A [Pool] talking
    to a [Host] over a direct function call is indistinguishable from
    {!Sdds_proxy.Proxy.run} on a local card — the tests enforce it —
    while every byte that would cross the wire is visible and countable.

    {b Logical channels.} The two low CLA bits address one of
    {!Apdu.max_channels} logical channels (ISO 7816-4). Each open channel
    is an independent session — its own selected document, chained-upload
    accumulators, pending rules/query and undrained response — so one
    card serves several terminals (or several requests multiplexed by one
    proxy) with their frames interleaved at will. Channel 0 is always
    open; MANAGE CHANNEL opens and closes 1–3. Card-level state (the key
    store, the anti-rollback version high-water marks and the prepared-
    evaluation cache) is deliberately shared across channels: a policy
    version enforced on one channel binds every other.

    {b Fault tolerance.} The link is not assumed reliable: the protocol
    is designed so every fault is either {e detected} (the modeled link
    layer checksums frames, so corruption and truncation surface as the
    transient {!Sw.transport} word, never as silently altered payload) or
    {e idempotent} (retransmitted chain frames are recognized by sequence
    number and re-acked without appending; GET RESPONSE names the block
    it wants, so a re-ask after a lost answer gets a byte-identical
    retransmission). A card tear — power loss wiping all volatile
    sessions, modeled by {!Host.tear} — surfaces as
    [bad_state]/[channel_closed], and the [Pool] recovers by replaying
    the whole session setup, which the card's stable prepared-evaluation
    cache makes cheap. The net effect, enforced by the qcheck harness in
    [test/test_fault.ml]: a request ends in either the exact authorized
    view or one typed {!Sdds_proxy.Proxy.error} — never a truncated or
    corrupted view. *)

(** The command set's instruction bytes and the status words, as
    {!Protocol} defines them: the card end and the terminal end read one
    table. *)
module Ins = Protocol.Ins

module Sw = Protocol.Sw

type transport = Apdu.command -> Apdu.response
(** One command-response exchange with the card: {!Host.process}, or a
    faulty link wrapped around it. *)

val to_sw : Card.error -> int * int
(** The single error-surface mapping: every layer ({!Host} replies,
    {!Sdds_proxy.Proxy} decoding) goes through this one function, so a
    card failure means the same thing on every path. *)

val of_sw : ?doc_id:string -> int * int -> Card.error option
(** Left inverse of {!to_sw} up to payloads: the constructor always
    round-trips, and [to_sw (of_sw (to_sw e))] = [to_sw e]. String
    payloads do not cross the wire — pass [doc_id] to rebuild
    [No_key]/[Stale_key] from context (default ["?"]); the
    [Replayed_rules]/[Memory_exceeded] counters come back zeroed. [None]
    for protocol-level words ([bad_state], [channel_closed],
    [transport], [internal], ...). *)

(** Triage of a response status word into the action it calls for. *)
type verdict =
  | Done  (** 0x9000 — command succeeded *)
  | More of int  (** 0x61xx — response bytes remain (hint in the arg) *)
  | Transient
      (** {!Sw.transport} or {!Sw.internal} — resend the same frame *)
  | Session_lost
      (** [bad_state]/[channel_closed] — volatile session gone (tear or
          eviction): replay the session setup *)
  | Fatal of Card.error  (** a card-level refusal; retrying won't help *)
  | Unknown of int * int
      (** a status word no {!Card.error} carries: {!Sw.bad_query}, or one
          outside the protocol *)

val classify : ?doc_id:string -> Apdu.response -> verdict
(** The one decision point {!Sdds_proxy.Proxy.Pool} and the protocol
    model checker ([Sdds_protocol.Model]) use to tell transient faults
    from fatal refusals. [doc_id] feeds {!of_sw}'s payload
    reconstruction. *)

module Host : sig
  type t

  val create :
    ?obs:Sdds_obs.Obs.t ->
    ?semantics:Protocol.chain_semantics ->
    card:Card.t ->
    resolve:(string -> Card.doc_source option) ->
    unit ->
    t
  (** [resolve] maps a selected document id to its (DSP-served) source.
      The basic channel (0) starts open; the session table is bounded by
      {!Apdu.max_channels}.

      [semantics] (default {!Protocol.Identity_marker}) selects the chain
      completion-marker semantics; {!Protocol.P2_marker} resurrects the
      pre-fix duplicate-final-frame hole and exists only so the protocol
      checker's counterexamples can be replayed against a real host that
      actually has the bug. Never use it in production.

      [obs] wraps every processed frame in an [apdu] span (instruction
      name and channel as args) nested under whatever request span is
      current, counts [apdu.commands] and [card.tears], and feeds the
      [apdu.frame_bytes] and (when tracing) [apdu.rtt_ns] histograms.
      Pass the same scope to {!Card.create} so card and engine spans
      nest inside the APDU exchanges. *)

  val process : t -> Apdu.command -> Apdu.response
  (** Never raises: protocol violations map to status words. Frames on a
      never-opened (or closed) channel get [Sw.channel_closed]; any
      RULES/QUERY frame — first, continuation or stale — on a channel
      with no document selected gets [Sw.bad_state]; a GET RESPONSE
      before any EVALUATE on the session gets [Sw.bad_state] (never a
      silent empty view). The card takes a rules blob as uploaded and
      judges it at EVALUATE. An EVALUATE whose query does not parse gets
      [Sw.bad_query] and arms no response: the card never evaluates a
      request without the query it was sent. *)

  val tear : t -> unit
  (** Card tear (power loss / extraction): every volatile session dies —
      logical channels 1–3 close, the basic channel restarts fresh.
      Card-level stable state (key store, anti-rollback marks, the
      prepared-evaluation cache) survives. *)

  val open_channels : t -> int
  (** Channels currently open (≥ 1: the basic channel). *)
end
