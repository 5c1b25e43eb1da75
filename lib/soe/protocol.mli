(** The card-side APDU session machine as a pure transition function.

    Everything the card does with a frame — channel management, document
    selection, chained rules/query reassembly, evaluation, block-sequenced
    response draining — is the deterministic function {!step} over an
    immutable {!state}. Card-level effects (key installation, accepting a
    rule blob, policy evaluation) are abstracted behind a {!backend}
    record, so the machine is polymorphic in the document handle ['d]:

    - {!Remote_card.Host} instantiates it with ['d = Card.doc_source] and
      a backend that drives the real {!Card} — the production host is a
      thin imperative shell (observability, a [state ref]) over [step];
    - the protocol model checker ([Sdds_protocol]) instantiates it with a
      synthetic backend and explores [step] exhaustively under a fault
      adversary.

    One function, two drivers: what the checker verifies is what runs.

    The sequence/block moduli and the response block size are parameters
    (defaulting to the wire's 256 and 255 bytes) so the checker can
    downscale them and reach the mod-256 wraparound states at tiny
    exploration depths. *)

(** Instruction bytes of the command set: [manage_channel] (p1 = 0 open,
    assigned channel returned in the payload; p1 = 0x80 close, target in
    p2), [select] a document by id, install a wrapped key [grant], load
    the encrypted [rules] blob (chained frames), set the optional XPath
    [query] (chained), [evaluate] (p1 = 0 pull / 1 push; p2 = 0, not
    read), and [get_response] to drain the pending response (p2 =
    requested block index mod 256). *)
module Ins : sig
  val manage_channel : int
  val select : int
  val grant : int
  val rules : int
  val query : int
  val evaluate : int
  val get_response : int

  val name : int -> string
  (** Mnemonic for traces and counterexamples ([INS_xx] if unknown). *)
end

(** Status words: [ok] (0x9000), [more_data] (0x61xx — response bytes
    remain), and one word per {!Card.error} constructor
    ({!Remote_card.to_sw}), plus [bad_query] (the query does not parse),
    [bad_state] (command out of sequence on this channel), [bad_ins]
    (unknown instruction or class),
    [channel_closed] (frame addressed to a channel that is not open) and
    [no_channel] (MANAGE CHANNEL open with every channel in use), and two
    {e transient} words: [transport] (0x6400 — the link layer detected
    loss or corruption; the frame was not processed and may safely be
    resent) and [internal] (0x6F00 — the card hiccuped before
    processing; equally safe to resend). {!Remote_card.classify} sorts
    them into the action each calls for. *)
module Sw : sig
  val ok : int * int
  val more_data : int * int
  val not_found : int * int  (** [No_key] *)

  val stale_key : int * int  (** [Stale_key] — revocation in action *)

  val bad_grant : int * int
  val bad_signature : int * int
  val security : int * int  (** [Bad_rules] (0x6982) *)

  val replayed : int * int  (** [Replayed_rules] — anti-rollback *)

  val memory : int * int  (** [Memory_exceeded] *)

  val bad_query : int * int
      (** 0x6A80, ISO 7816-4's "incorrect data": EVALUATE refused a
          query that does not parse. No {!Card.error} carries it, so the
          terminal reads it as a protocol error. *)

  val integrity_sw1 : int
      (** [Integrity_failure]: sw1 = 0x66, sw2 = failing chunk mod 256 *)

  val bad_state : int * int
  val bad_ins : int * int
  val channel_closed : int * int
  val no_channel : int * int

  val transport : int * int
      (** Transient: link-layer loss/corruption, nothing processed. *)

  val internal : int * int
      (** Transient: card-side hiccup before processing. *)
end

(** Which completion marker the chain reassembler keeps. *)
type chain_semantics =
  | Identity_marker
      (** Production semantics: the marker records the final frame's
          (p2, payload) identity, so a retransmitted final frame is
          recognized whatever its sequence number — including p2 = 0,
          where a single-frame chain and a chain wrapping at the modulus
          both finish. *)
  | P2_marker
      (** The preserved pre-fix semantics (marker keyed by p2 alone,
          p2 = 0 never recognized): a retransmitted final frame whose
          p2 ≡ 0 (mod modulus) silently opens a fresh chain and
          re-executes. Kept as the model checker's power fixture — the
          checker must find this hole — and never used in production. *)

(** The chained-command reassembly automaton, pure: one value per
    channel session, keyed by instruction byte.

    The invariant the fault tolerance rests on: feeding the frames of one
    {!Apdu.segment} run, with any frame retransmitted any number of times
    (adjacent duplicates — the link layer's failure mode), completes the
    chain {e exactly once} with the exact payload. The completion marker
    records the final frame's identity — sequence number {e and} payload
    — not just its p2: a single-frame chain finishes at p2 = 0, and a
    257-frame chain finishes at p2 ≡ 0 (mod 256), both of which a
    p2-keyed marker would confuse with a fresh chain opener. *)
module Chain : sig
  type t

  val empty : t

  type verdict =
    | Accepted  (** continuation frame appended *)
    | Completed of string  (** final frame arrived: the whole payload *)
    | Duplicate  (** retransmission recognized: ack again, execute nothing *)
    | Rejected  (** sequence gap or stale continuation *)

  val feed :
    ?semantics:chain_semantics ->
    ?modulus:int ->
    t ->
    Apdu.command ->
    t * verdict
  (** Feed one chained frame (sequence number in p2 mod [modulus],
      default 256; p1 = 1 continuation, 0 final). *)

  val forget : t -> int -> t
  (** Drop the completion marker for one instruction: the backend
      refused the completed upload for good, so a retransmitted final
      frame must not be re-acked as a success. *)
end

(** The per-channel slice of the protocol state: everything a SELECT
    resets lives here, so channels cannot observe (or corrupt) each
    other's half-uploaded chains or undrained responses. *)
type 'd session = {
  doc : 'd option;
  chain : Chain.t;
  pending_rules : string option;
  pending_query : string option;
  response : string;  (** bytes not yet drained *)
  resp_block : int;  (** next response block to serve *)
  resp_last : Apdu.response option;  (** for retransmission *)
  resp_ready : bool;  (** an EVALUATE produced the stream *)
}

type 'd state = { sessions : 'd session option list }
(** Slot index = channel number; length {!Apdu.max_channels}. *)

val initial : unit -> 'd state
(** The basic channel (0) open and fresh, channels 1–3 closed. *)

val open_channels : 'd state -> int
val session : 'd state -> int -> 'd session option

(** Card-level effects, injected: the machine never touches the card
    directly. Errors are status words ([sw1, sw2]). *)
type 'd backend = {
  resolve : string -> 'd option;  (** SELECT: document id → handle *)
  install_grant : 'd -> wrapped:string -> (unit, int * int) result;
  accept_rules : 'd -> string -> (unit, int * int) result;
      (** a completed rules chain: [Error] refuses the blob for good. The
          real card accepts every blob here and judges it at EVALUATE;
          the model checker's backend refuses the fragments a re-executed
          chain would leave. *)
  evaluate :
    'd ->
    rules:string ->
    query:string option ->
    push:bool ->
    (string, int * int) result;
      (** policy evaluation; [Ok] carries the encoded response stream *)
}

type event = Command of Apdu.command | Tear

(** What a step did, beyond the wire reply — the observable alphabet the
    model checker's invariant monitors consume. A [Command] event always
    yields exactly one [Reply]. *)
type action =
  | Reply of Apdu.response
  | Selected of { channel : int; doc_id : string }
      (** a SELECT succeeded: the channel's session restarted fresh *)
  | Executed of { channel : int; ins : int; payload : string }
      (** a chained command (rules/query) completed and consumed its
          payload — emitted even if the backend then refuses the blob,
          because the chain ran regardless; the exactly-once invariant
          counts these *)
  | Evaluated of {
      channel : int;
      rules : string;
      query : string option;
      push : bool;
    }  (** an EVALUATE ran the backend and armed the response stream *)
  | Torn  (** a tear reset every volatile session *)

val response_of : action list -> Apdu.response option
(** The [Reply] of a step's actions, if any ([Tear] steps have none). *)

val step :
  backend:'d backend ->
  ?semantics:chain_semantics ->
  ?modulus:int ->
  ?block:int ->
  'd state ->
  event ->
  'd state * action list
(** One transition. [modulus] (default 256) scales the chain sequence and
    response block numbering; [block] (default 255 bytes) the
    response block size; both exist so the checker can downscale. Never
    raises: protocol violations map to status-word replies. *)
