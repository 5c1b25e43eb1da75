(** The authorized view, built incrementally: the one implementation of
    the view semantics, whose status rule ({!Settle}) also drives the
    card's guard statuses ([Sdds_soe.Guard.Protector]).
    {!Reassembler.run} is a DOM sink over it.

    The view keeps the nodes whose decision is Allow (and that lie inside
    a query match, when a query was given) in full, keeps their ancestors
    as bare tags, and prunes everything else, including the text of
    bare-tag ancestors. A node's decision is
    [if neg then Deny else if pos then Allow else parent's] (the root
    is denied: the closed-world default of {!Rule}).

    The dissemination application needs an item the moment its fate is
    known, not when the feed ends, so this module emits the view's events
    {e as soon as they are determined}: an event is released once every
    earlier event of the view is settled (document order is preserved) and
    its own visibility is resolved. Buffering is then bounded by the
    unresolved regions of the stream — O(depth) when no rule is pending —
    instead of the whole document. The work is amortized O(1) per event
    when no condition is pending: a node's status is computed once, when
    it settles ({!Settle}), and each buffered item is released or dropped
    once. *)

type t

val create :
  has_query:bool -> emit:(Sdds_xml.Event.t -> unit) -> unit -> t
(** [has_query] must match the engine's configuration. The
    events passed to [emit], when there are any, form one well-formed
    rooted document. *)

val feed : t -> Output.t -> unit
(** May call [emit] zero or more times. Raises [Invalid_argument] on a
    malformed stream: text outside elements, a close without open or with
    the wrong tag, an element after the document element (a second
    root), or a second [Resolve] of one variable. *)

val finish : t -> unit
(** Checks completeness; everything is released by now. Raises
    [Invalid_argument] if elements are still open or a variable some
    [Open_node] mentions was never resolved. An empty stream finishes
    and emits nothing. *)

val peak_buffered_nodes : t -> int
(** Most element nodes held at once: opened, and neither closed after
    release nor dropped. *)
