(** The authorized view as the terminal hands it out: XML text written
    straight from the events {!Stream_view} releases, or a DOM built
    from them when a caller asks for one.

    The terminal is not memory-constrained (the SOE is), so it may hold
    the delivered part of the document; what it may never see is data
    the access control withholds, which the engine either suppressed or
    emits under conditions that resolve to false (in the full
    architecture, such guarded output is additionally re-encrypted by the
    SOE wrapper — see [Sdds_soe.Guard] — so a dishonest terminal learns
    nothing from it). *)

val xml :
  has_query:bool -> ((Output.t -> unit) -> unit) -> string option
(** [xml ~has_query outputs] feeds each event [outputs] passes on
    (a list's [List.iter], or {!Output_codec.iter} over the card's
    bytes) through the view builder into one
    {!Sdds_xml.Serializer.Writer}, and returns the view as
    [Serializer.to_string ~indent:true] renders it; [None] when nothing
    is delivered. No list of outputs and no DOM is built. [has_query]
    must match the engine's configuration. Raises [Invalid_argument] on
    whatever {!Stream_view} or the source refuses. *)

val run : has_query:bool -> Output.t list -> Sdds_xml.Dom.t option
(** The authorized view of a complete output stream as a DOM: the events
    the view builder releases, rebuilt by {!Sdds_xml.Dom.of_events};
    [None] when nothing is delivered. The terminal builds it only when a
    caller forces a request's [view]. Refuses what {!xml} refuses. *)
