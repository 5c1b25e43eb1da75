(** The authorized view as a DOM: a sink that builds the tree from the
    events {!Stream_view} releases, and returns it at end of stream.

    The terminal is not memory-constrained (the SOE is), so it may hold
    the delivered part of the document; what it may never see is data
    the access control withholds, which the engine either suppressed or
    emits under conditions that resolve to false (in the full
    architecture, such guarded output is additionally re-encrypted by the
    SOE wrapper — see [Sdds_soe.Guard] — so a dishonest terminal learns
    nothing from it). *)

val run : has_query:bool -> Output.t list -> Sdds_xml.Dom.t option
(** The authorized view of a complete output stream; [None] when nothing
    is delivered. [has_query] must match the engine's configuration.
    Raises [Invalid_argument] on whatever
    {!Stream_view} refuses. *)
