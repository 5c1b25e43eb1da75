(** Streaming cursor over encoded documents, with subtree skipping.

    This is the consumption model of the SOE: the reader exposes, at each
    element, the subtree's tag set (from the skip index) {e before} the
    element is processed, so the caller can decide to {!skip_subtree}
    instead of reading it — the whole point of the index. Reading is
    strictly forward; memory is O(depth).

    The reader is a cursor: {!advance} moves one step and leaves that
    step's facts in the reader, where the accessors read them. A step
    allocates nothing but the string {!text} cuts when asked for: the open
    stack is int arrays, each depth owns one full-capacity tag set that a
    summary is decoded into in place, and {!event} hands out one event per
    dictionary id. *)

type t

type kind =
  | Open  (** an element was entered *)
  | Text  (** a text node was read *)
  | Close  (** the innermost open element was closed *)
  | End
      (** the root element has closed (or was skipped) and the input is
          consumed *)

val create : string -> t
(** Parses the header. Raises [Invalid_argument] on a bad magic, unknown
    mode or malformed dictionary. *)

val mode : t -> Encode.mode
val dict : t -> Dict.t

val advance : t -> kind
(** Moves one step. After [End], every further [advance] returns [End].
    Raises [Invalid_argument] on a corrupt encoding: a truncated document
    or text, trailing bytes after the root, a close or text outside the
    root, a tag token below the markers or beyond the dictionary, a
    malformed varint, or a summary cut short. After it raises, the reader
    is unusable. *)

(** {1 The facts of the last step}

    Each accessor raises [Invalid_argument] after a step it does not
    describe. *)

val tag_id : t -> int
(** After [Open] or [Close]: the element's dictionary id. It still names
    the element after {!skip_subtree}. *)

val tag : t -> string
(** After [Open] or [Close]: the element's tag, the dictionary's own
    string. *)

val text : t -> string
(** After [Text]: the text, cut from the input on each call. *)

val event : t -> Sdds_xml.Event.t
(** The step as an event: after [Open] or [Close], the one [Event.Open] or
    [Event.Close] the reader built for that dictionary id at {!create};
    after [Text], a fresh [Event.Value] of {!text}. *)

val has_summary : t -> bool
(** After [Open]: whether the element carried skip metadata, which is
    exactly when its token has the metadata flag in an [Indexed] encoding
    (elements below the indexing threshold, and every element of a [Plain]
    encoding, carry none). [false] after any other step and after
    {!skip_subtree}. *)

val summary : t -> Sdds_util.Bitset.t
(** When {!has_summary}: the subtree's tag set, at full dictionary
    capacity (the recursive compression is undone on the fly). It is the
    reader's own set for that depth, overwritten in place: it stays valid
    only until the next {!advance} or {!skip_subtree}. Copy it to keep
    it. *)

val subtree_bytes : t -> int
(** When {!has_summary}: the encoded size of the element from its size
    varint on, as the element's size varint declares it. *)

val skip_subtree : t -> int
(** When {!has_summary}: jumps to the end of the element just opened, as
    its size varint declares it (no [Close] will be delivered for it), and
    returns the number of bytes jumped. Raises [Invalid_argument]
    otherwise (a [Plain] encoding, an element without metadata, or not
    right after the [Open]). A size varint that lies is caught by the next
    {!advance}. *)

val byte_pos : t -> int

val peak_stack_words : t -> int
(** High-water mark of the reader's own working state, in field-words,
    taken after each open: {!Sdds_core.Ram.element_words} per open
    element, whose tag set is the dictionary in an [Indexed] encoding
    and empty in a [Plain] one. The card charges it with the engine's
    state by {!Sdds_core.Ram.charge}. *)

val to_events : string -> Sdds_xml.Event.t list
(** Decode an entire document (no skipping) back to its event stream.
    Opens and closes of one tag are one shared event each. *)

val to_dom : string -> Sdds_xml.Dom.t

(** {1 Size accounting (experiment E4)} *)

type size_stats = {
  total_bytes : int;
  header_bytes : int;  (** magic, mode, dictionary *)
  metadata_bytes : int;  (** size varints + bitmaps — the index overhead *)
  payload_bytes : int;  (** tag tokens, text, markers *)
}

val size_stats : string -> size_stats
