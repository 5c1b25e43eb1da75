(** Confidentiality of pending output.

    When a rule is {e pending} (its navigational path matched but a
    predicate is still open), the engine emits the node under a condition
    expression. The terminal must buffer that data — but the terminal is
    untrusted, and if the condition finally resolves negatively it must
    have learned {e nothing}. This module is the SOE-side answer: the text
    content of every pending region is {b sealed} (AES-CTR under a fresh
    one-time guard key held inside the SOE) and the key is {b released}
    only when the region's visibility resolves positively; on a negative
    resolution the key is destroyed ([Drop]) and the ciphertext is all the
    terminal ever saw.

    Granularity and disclosure: tags and condition expressions flow in
    clear — the same structural disclosure the access-control model
    already accepts for the bare-tag ancestors of authorized nodes (and
    that the skip index's structural metadata implies). What is protected
    is the data: text content. A node settles by the rule
    {!Sdds_core.Stream_view} runs too ({!Sdds_core.Settle}); text under a
    settled node goes in clear if visible and not at all otherwise. A
    guard is opened per node still unsettled when it opens, shared by
    descendants whose own conditions are all false, and released or
    dropped the moment the node settles.

    [Protector] runs inside the SOE (downstream of [Engine]);
    {!Unsealer} runs on the terminal (upstream of the view builder,
    {!Sdds_core.Stream_view}). *)

type message =
  | Clear of Sdds_core.Output.t
      (** annotated event whose payload needs no protection *)
  | Sealed of { guard : int; event : sealed_event }
      (** payload encrypted under the guard's key *)
  | Release of { guard : int; key : string }
      (** the guard's region resolved visible: here is the key *)
  | Drop of { guard : int }
      (** resolved invisible: the key is destroyed, ciphertext is garbage *)

and sealed_event = Sealed_text of { cipher : string }

module Protector : sig
  type t

  val create : Sdds_crypto.Drbg.t -> has_query:bool -> unit -> t
  (** Configuration must match the engine producing the stream. *)

  val feed : t -> Sdds_core.Output.t -> message list
  (** The event's own message, then the [Release] or [Drop] of every
      guard it settles. Raises [Invalid_argument] on a malformed stream. *)

  val finish : t -> unit
  (** Every condition resolves by the document's end, so every guard is
      settled by then. Raises [Invalid_argument] if elements are still
      open or a guard is not. *)

  val live_guards : t -> int
  (** Guards held (a key, an id and a message counter each): SOE working
      set, charged at its peak by {!Card.evaluate_protected}. *)

  val peak_live_guards : t -> int
end

module Unsealer : sig
  type t

  val create : has_query:bool -> unit -> t

  val feed : t -> message -> unit

  val finish : t -> Sdds_xml.Dom.t option
  (** Decrypt released regions, discard dropped ones, and build the
      authorized view with {!Sdds_core.Reassembler.run}. Raises
      [Invalid_argument] on malformed streams. *)

  val sealed_bytes_withheld : t -> int
  (** Ciphertext bytes whose key was never released — what the terminal
      holds but cannot read. *)
end

val seal_key_bytes : int

val wire_bytes : message list -> int
(** Exact size of the message stream on the card → terminal link: the
    [Clear] events sized as one {!Sdds_core.Output_codec} stream, and
    each [Sealed], [Release] and [Drop] message as one header byte (a
    code from the codec's unused single-byte range) plus its guard id
    and its sealed payload or key. A stream with nothing sealed costs
    exactly its plain stream. *)
