(** Writer for the compact encoded document format with the embedded skip
    index.

    Layout (§2.3 "Skip index"):
    {v
    header   := magic "SDX1" | mode byte | tag dictionary
    element  := tagtoken | [size varint | bitmap]? | content* | 0x00
    tagtoken := varint (tag id + 2)
    content  := element | 0x01 varint-length text-bytes
    v}

    [size] is the byte length of everything following it within the
    element (bitmap, content, close marker) — what a reader jumps over to
    skip the subtree. [bitmap] is the set of element tags occurring in the
    subtree (the element's own tag included). Both are the paper's minimal
    skip metadata: "the set of element tags that appear in each subtree
    (to check whether an access rule automaton is likely to reach its
    final state) as well as the subtree size (to make the skip actually
    possible)".

    The bitmap is {e recursively compressed}: a child's set is a subset of
    its parent's, so it is stored projected onto the parent's set bits
    (capacity = number of tags in the parent's set), shrinking rapidly
    with depth; the root's bitmap spans the whole dictionary. Mode
    [Indexed ~recursive:false] stores full-width bitmaps instead (the
    ablation of experiment E4), and mode [Plain] stores no metadata at all
    (the no-index baseline). Reading, skipping and overhead accounting
    live in {!Reader}. *)

type mode = Plain | Indexed of { recursive : bool }

val magic : string
val mode_of_byte : char -> mode option

val close_marker : char
val text_marker : char

val tag_token_offset : int
(** Tag tokens hold [(tag_id lsl 1) lor has_metadata], shifted by this
    much to reserve the two markers. *)

val encode : ?meta_threshold:int -> mode:mode -> Sdds_xml.Dom.t -> string
(** Serialize a document (builds the dictionary, computes subtree tag sets
    bottom-up, then writes). Elements whose plain encoding is smaller than
    [meta_threshold] bytes carry no skip metadata — skipping a handful of
    bytes cannot repay the metadata's own transfer and decryption cost
    (they are summarized by their nearest indexed ancestor instead). Pass
    [~meta_threshold:0] to index every element. *)
