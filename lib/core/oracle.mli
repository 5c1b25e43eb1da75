(** Declarative reference semantics of access control — the test oracle.

    Computes, on a DOM, exactly what the streaming engine must produce:

    - Per-element decisions: a rule applies {e directly} to the elements its
      XPath selects and {e propagates} to their descendants; at each element
      a directly-applying negative rule beats a directly-applying positive
      one (Denial-Takes-Precedence), any directly-applying rule beats the
      inherited sign (Most-Specific-Object-Takes-Precedence), and elements
      no rule reaches inherit, bottoming out at [Deny] (closed world,
      {!Rule}).
    - The authorized view: elements whose decision is [Allow] (and, with a
      query, that sit inside a query match) are delivered with their text;
      their ancestors are delivered as bare tags; everything else is
      pruned.

    This module deliberately shares no code with the engine: it is a direct
    transcription of the declarative model over {!Sdds_xpath.Eval}. *)

val decisions : rules:Rule.t list -> Sdds_xml.Dom.t -> Rule.sign array
(** Per-element decision, indexed by preorder id. [rules] must already be
    filtered to the subject being evaluated. *)

val selected :
  query:Sdds_xpath.Ast.t option -> Sdds_xml.Dom.t -> bool array
(** Per-element query scope: true iff the element is a query match or a
    descendant of one. All-true when [query] is [None]. *)

val authorized_view :
  ?query:Sdds_xpath.Ast.t ->
  rules:Rule.t list ->
  Sdds_xml.Dom.t ->
  Sdds_xml.Dom.t option
(** The pruned document ([None] if nothing at all is delivered). *)

val allowed_ids : rules:Rule.t list -> Sdds_xml.Dom.t -> int list
(** Preorder ids with decision [Allow] — convenient for tests. *)
