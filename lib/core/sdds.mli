(** Convenience facade over the core pipeline.

    [Sdds_core.Sdds.authorized_view] is the one-call version of
    engine → reassembler, mirroring {!Oracle.authorized_view} (which the
    tests use as reference). *)

val authorized_view :
  ?query:Sdds_xpath.Ast.t ->
  rules:Rule.t list ->
  Sdds_xml.Dom.t ->
  Sdds_xml.Dom.t option
(** Stream the document through the access-control engine and reassemble
    the authorized view. *)

val authorized_view_for :
  ?query:string ->
  subject:string ->
  rules:Rule.t list ->
  Sdds_xml.Dom.t ->
  Sdds_xml.Dom.t option
(** Same, filtering [rules] by subject and parsing [query]. *)
