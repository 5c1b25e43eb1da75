(** The card's RAM layout: what one evaluation holds in the SOE's RAM,
    named once.

    The paper's card has about 1 KB of RAM. The card charges this layout
    after each evaluation and refuses one that does not fit
    ([Sdds_soe.Card], [Memory_exceeded]); the skip-index reader counts
    its stack by it ({!element_words}); the analyzer's worst-case bound
    prices its worst case before a policy is uploaded
    ([Sdds_analysis.Memory_bound]); and bench E5 prints its terms. A
    structure the card should charge is added here, and every one of
    them follows.

    An evaluation holds:
    - the engine's state and the skip-index reader's stack, counted in
      abstract field-words (token positions, rule ids, condition ids,
      tag ids: small integers), which the on-card C implementation the
      paper prototyped packs at 2 bytes each;
    - the output encoder's first-occurrence tag table
      ({!Output_codec}): one field per distinct tag the output stream
      opens, the tag's id in the reader's dictionary, so the table is
      bounded by the document's dictionary, not by its length;
    - what the wire step holds to make its stream (a protected
      evaluation's guards);
    - the plaintext chunk buffer plus 16 bytes;
    - 128 bytes of fixed runtime state. *)

val field_bytes : int -> int
(** [field_bytes n] is the packed size of [n] field-words: 2 bytes
    each. *)

val element_words : tag_set:int -> int
(** The skip-index reader's words per open element: 3, plus one per 32
    bits of the element's tag set ([tag_set] bits: the dictionary size
    in an indexed encoding, 0 in a plain one). *)

val tag_table_entries : Output.t list -> int
(** Entries of the output encoder's tag table for this stream: the
    distinct tags it opens. *)

val default_chunk_bytes : int
(** 240 plaintext bytes per chunk, one APDU frame worth of ciphertext:
    the publisher's default, and the chunk buffer the analyzer's bound
    assumes. *)

val charge :
  state_words:int ->
  reader_words:int ->
  tags:int ->
  held_bytes:int ->
  chunk_bytes:int ->
  int
(** The bytes an evaluation holds: [state_words] of engine state,
    [reader_words] of reader stack and [tags] tag-table entries, packed
    by {!field_bytes}; [held_bytes] held by the wire step; a chunk buffer
    of [chunk_bytes] plus 16; and the fixed runtime state. *)
