(** Static rule-set simplification — the paper's observation that "some
    rules may be inhibited by others according to the conflict resolution
    policies, thereby optimizations such as suspending evaluations of
    rules can be devised", made static: rules provably subsumed on {e
    every} document are dropped before the automata are even built.

    Soundness rests on {!Sdds_xpath.Containment} (itself sound and
    incomplete): a rule is only removed when, at every node it targets on
    any document, another surviving rule of the relevant sign also applies
    directly, so the per-node decision (Denial-Takes-Precedence +
    Most-Specific-Object) cannot change:

    - a rule whose targets are contained in a same-signed rule's targets is
      redundant;
    - a positive rule whose targets are contained in a negative rule's
      targets can never win (denial takes precedence at every node it
      reaches).

    The simplification is subject-wise: rules of different subjects never
    interact. *)

type verdict =
  | Kept
  | Subsumed of { by : int }
      (** input index of a rule that covers this one (the witness) *)

val analyze : Rule.t list -> verdict array
(** One containment pass over the rule set, indexed like the input. This
    is the single engine both {!simplify} (pruning) and the static
    analyzer's dead-rule diagnostics are built on. *)

val representative : verdict array -> int -> int
(** Follow [Subsumed] links to the kept rule that ultimately covers the
    given index (the index itself when kept). Always terminates. *)

val subsumes : by:Rule.t -> Rule.t -> bool
(** The pairwise test underlying {!analyze}: is the second rule provably
    irrelevant in the presence of [by] on every document? *)

val simplify : Rule.t list -> Rule.t list
(** Returns a sublist of the input (order preserved) producing the same
    authorized view on every document, for every subject. *)

val redundant_count : Rule.t list -> int
(** [List.length rules - List.length (simplify rules)]. *)
