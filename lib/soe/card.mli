(** The smart-card runtime — everything that executes inside the SOE.

    Per §2.1 the SOE "is in charge of decrypting the input document,
    checking its integrity and evaluating the access control policy
    corresponding to a given (document, subject) pair". The card holds the
    subject's private key and the document keys granted to it; on a query
    or a pushed stream it:

    + unwraps the document key (once per grant, through the simulated PKI),
    + checks the publisher's signature over the Merkle root,
    + decrypts only the chunks the skip index cannot discard, verifying
      the consumed chunks against the Merkle root with one multiproof
      per request,
    + runs the streaming access-control engine over them, and
    + returns the annotated output stream to the terminal proxy.

    Every byte moved, block decrypted, hash computed and automaton
    transition taken is charged to a {!Cost.meter}, and the evaluator's
    working set is checked against the card's RAM after processing:
    evaluations that would not fit the paper's 1 KB card fail with
    [Memory_exceeded]. That is the card's one RAM check. The static one
    is the analyzer's worst-case bound ([Sdds_analysis.Memory_bound],
    [sdds analyze --profile]), run before a policy is uploaded; it
    prices the same layout, so a policy within its budget is served.

    RAM charge of an evaluation: the card's RAM layout
    ({!Sdds_core.Ram.charge}) over the engine's peak state, the skip
    index reader's peak stack, the distinct tags the output stream opens
    (the output encoder's first-occurrence table) and the plaintext
    chunk size; on {!evaluate_protected}, the wire step also holds 20
    bytes per guard at the protector's peak (its 16-byte key, and its id
    and message counter as two packed fields). The prepared entry in use
    is the evaluator's own state. The charge is checked against the
    whole RAM, and when the other resident cache entries leave too
    little of it, the least recently used are evicted until it fits, so
    a verdict does not depend on what the cache holds.

    Simulation note: the simulator decrypts all chunks up front and
    replays the byte ranges the skip index actually touched for
    accounting — behaviourally identical to on-demand fetching because
    skip decisions depend only on consumed data, and integrity failures on
    consumed chunks are still rejected (tampering on chunks the index
    skips is invisible, exactly as on the real card). On the host, a
    request expands the document key once and decrypts every chunk into
    its place in one buffer of the signed plaintext length: no string,
    list or concatenation per chunk. The cost model charges consumed
    bytes and blocks, not host calls, so none of this moves a
    figure.

    {!evaluate} and {!disseminate} share one integrity rule. The
    publisher's signature must cover the Merkle root and the plaintext
    length, or the document is refused with [Bad_signature]. Then the
    chunks the card consumes are checked against the root with one
    multiproof ([doc_source.multiprove]). If it fails, the card fetches
    each consumed chunk's own inclusion proof ([doc_source.prove]) and
    checks them in document order, and the first chunk that fails its
    proof gives [Integrity_failure] with its index; if none does, the
    request goes ahead, charged for both proofs. An authentic consumed
    chunk (ahead of any failing one) that the installed key does not
    open gives [Stale_key]. Chunks too few to fill the signed plaintext
    length give [Integrity_failure] with the chunk count.
    {!evaluate} checks the length before the engine runs, then checks
    the chunks the engine consumed, or all of them if the decoder fails.
    {!disseminate} checks every chunk, then the length.

    A chunk opens only to its place's length: the rest of the signed
    plaintext from [i * chunk_plain_bytes], up to [chunk_plain_bytes].
    One that decrypts to another length, valid padding or not, counts as
    a chunk the key does not open, so no verdict tells the terminal
    whether a block it spliced in had valid padding (a CBC padding
    oracle would let it decrypt any block, whatever the rules grant it).
    Two consequences: such a chunk is invisible when the index skips it,
    like any other tampering with a skipped chunk; and an authentic chunk
    that the installed key opens to a wrong length reads [Stale_key].

    Charges: the multiproof's digests cross the link once per request,
    each consumed chunk's leaf is hashed, and each interior node the
    card rebuilds costs one SHA block. With every chunk consumed the
    multiproof is empty and the root costs [n - 1] hashes. The fallback
    adds each chunk's proof bytes and its leaf and path hashing. *)

type t

val create :
  ?obs:Sdds_obs.Obs.t ->
  ?profile:Cost.profile ->
  subject:string ->
  Sdds_crypto.Rsa.keypair ->
  t
(** A personalized card: the subject's identity and keypair live in secure
    stable storage. Default profile: {!Cost.egate}.

    The card keeps its own cache counts, which {!cache_stats} reads.
    [obs] adds each cache event to the scope's [card.cache.hits],
    [card.cache.misses] or [card.cache.evictions] cell as it happens (so
    cards sharing a scope sum there), wraps each {!evaluate} in a
    [card.evaluate] span, and threads the scope into the engine run, so
    engine spans and metrics land in the same trace.

    The prepared-evaluation cache (see {!cache_stats}) holds at most a
    quarter of the profile's RAM, so on the 1 KB e-gate it holds a few
    small policies — the {!Cost.fleet} profile is what lifts the
    constraint for multi-client serving. Its entries give way to an
    evaluation that needs their room (see the top of this page). Raises
    [Invalid_argument] for a profile with less than 4 bytes of RAM. *)

val subject : t -> string
val public_key : t -> Sdds_crypto.Rsa.public
val profile : t -> Cost.profile

val obs : t -> Sdds_obs.Obs.t option
(** The observability scope the card was created with, so co-located
    layers (the terminal proxy) can join the same trace and registry
    without being handed the scope separately. *)

type cache_stats = {
  entries : int;  (** resident prepared evaluations *)
  resident_bytes : int;  (** RAM currently held by the cache *)
  cache_budget_bytes : int;
      (** cache bound carved out of the RAM budget: a quarter of it *)
  hits : int;
  misses : int;
  evictions : int;
      (** LRU displacements, to admit an entry or to make room for an
          evaluation, plus invalidations (re-key, version bump) *)
}

val cache_stats : t -> cache_stats
(** Counters of the prepared-evaluation cache: entries are keyed by
    (document, rule-blob digest, query) and hold the subject-filtered
    rules, the compiled automata and the Merkle root and plaintext length
    the root signature was verified over, so a warm {!evaluate} skips the
    blob MAC/decrypt/parse, the automaton compilation and the root
    signature check. A source with another root or another plaintext
    length pays the signature check again. Eviction is LRU; an entry
    never survives a policy-version bump (anti-rollback) or a re-grant
    under a different document key. *)

type error =
  | No_key of string  (** no document key installed for this id *)
  | Stale_key of string
      (** the chunks are authentic (proofs pass) but do not decrypt under
          the installed key: the document was re-keyed — the revocation
          mechanism working as intended *)
  | Bad_grant  (** wrapped key failed to unwrap *)
  | Bad_signature  (** publisher signature check failed *)
  | Integrity_failure of { chunk : int }
      (** a consumed chunk failed its Merkle proof ([chunk] is its
          index), the plaintext length differs from the signed one
          ([chunk] is the chunk count), or authentic chunks decode to no
          document ([chunk] is 0) *)
  | Memory_exceeded of { need_bytes : int; budget_bytes : int }
      (** the evaluation's charge ([need_bytes]) exceeds the profile's
          RAM ([budget_bytes]), whatever the cache holds (see the top of
          this page) *)
  | Bad_rules of string  (** rule blob failed integrity or parsing *)
  | Replayed_rules of { seen : int; offered : int }
      (** anti-rollback: a genuinely-signed but older policy version was
          offered after a newer one had been enforced — the DSP replaying
          a stale blob to restore withdrawn access *)

val pp_error : Format.formatter -> error -> unit

val install_wrapped_key :
  t -> doc_id:string -> wrapped:string -> (unit, error) result
(** Unwrap a document-key grant with the card's private key and store it
    (charges one RSA operation on the next evaluation's meter is not
    meaningful here; key installation is out of the per-query path). *)

val has_key : t -> doc_id:string -> bool

type doc_source = {
  doc_id : string;
  chunks : string array;  (** ciphertext chunks as served by the DSP *)
  chunk_plain_bytes : int;  (** plaintext bytes per chunk (last may be short) *)
  plain_length : int;  (** total encoded-plaintext length *)
  prove : int -> Sdds_crypto.Merkle.proof;
      (** one chunk's inclusion proof, served by the (untrusted) DSP; the
          card only trusts it as far as it reaches the signed root, and
          asks for it only when the multiproof fails *)
  multiprove : bool array -> Sdds_crypto.Merkle.proof;
      (** the multiproof for a mask of wanted chunks
          ({!Sdds_crypto.Merkle.multiprove}), served by the DSP once per
          request; the card trusts it no further than [prove] *)
  leaf_count : int;  (** leaf count of the publisher's tree *)
  merkle_root : string;
  root_signature : string;
  publisher : Sdds_crypto.Rsa.public;
  delivery : [ `Pull | `Push ];
      (** [`Pull]: the card requests chunks, skipped chunks are never
          transferred. [`Push]: the stream flows past the card, all chunks
          cross the link but skipped ones are not decrypted. *)
}

type report = {
  breakdown : Cost.breakdown;
  ram_peak_bytes : int;
      (** the evaluation's RAM charge, against the profile's RAM *)
  chunks_consumed : int;
  chunks_total : int;
  consumed_mask : bool array;
      (** per-chunk: was it transferred-and-decrypted (pull) /
          decrypted (push)? *)
  skipped_bytes : int;
  events : int;
  token_visits : int;  (** automaton transitions the engine actually ran *)
  output_bytes : int;
  prepared_hit : bool;
      (** this evaluation reused a resident prepared entry: no rule-blob
          transfer/MAC/decrypt/parse, no automaton compilation, and no
          root signature RSA (unless the root or plaintext length
          changed) were charged *)
}

val evaluate :
  t ->
  doc_source ->
  encrypted_rules:string ->
  ?query:Sdds_xpath.Ast.t ->
  ?use_index:bool ->
  unit ->
  (Sdds_core.Output.t list * report, error) result
(** Evaluate the (document, subject) policy, optionally composed with a
    query. [use_index] (default true) disables skipping for the no-index
    baseline. *)

type dissem_report = {
  dissem_breakdown : Cost.breakdown;
  sharing : Sdds_dissem.Fanout.stats;
      (** clustering and shared-evaluation accounting *)
  dissem_output_bytes : int;
      (** sum of every subscriber's serialized output stream — sharing
          saves evaluations, not uploads *)
  rejected : int;
      (** subscribers refused individually (bad blob, stale version)
          before clustering *)
}

val disseminate :
  t ->
  doc_source ->
  subscribers:(string * string) list ->
  unit ->
  ( (string * (Sdds_core.Output.t list, error) result) list * dissem_report,
    error )
  result
(** One encrypted stream, N subscribers — the dissemination gateway. The
    card (holding the document key) verifies the root signature and
    decrypts/proof-checks every chunk {e once}, decrypts each
    subscriber's [(subject, encrypted rule blob)] independently, clusters
    identical rule sets by digest ({!Sdds_dissem.Cluster}) and drives the
    predicate-free clusters through one merged walk
    ({!Sdds_dissem.Mux}), then demultiplexes: each subscriber's output
    equals a private {!evaluate} under its own rules.

    Members of one cluster receive one physically shared output list:
    the lists in their [Ok] results are [==]. A terminal may key per-view
    work on that identity ([Sdds_proxy.Client.deliver] builds one view
    per list). Each member's stream is still charged as crossing the link
    ([dissem_output_bytes]), but its size
    ({!Sdds_core.Output_codec.size_list}) is computed once per cluster.

    Per-subscriber failures (undecryptable blob → [Bad_rules], version
    rollback → [Replayed_rules]) reject that subscriber only; results
    come back in listing order. Global failures — no key, bad signature,
    integrity or a stale key (decided by the rule at the top of this
    page), a rules-digest collision or a subject listed with two
    different rule sets (both reported as [Bad_rules] with the planner's
    message naming the offenders) — fail the whole publish, and
    watermarks only advance when the publish goes through. Dissemination
    targets gateway-class profiles ({!Cost.fleet}); it does not enforce
    the per-evaluation RAM budget of the 1 KB e-gate path. *)

val evaluate_protected :
  t ->
  doc_source ->
  encrypted_rules:string ->
  ?query:Sdds_xpath.Ast.t ->
  ?use_index:bool ->
  unit ->
  (Guard.message list * report, error) result
(** Like {!evaluate}, but the output stream is run through
    {!Guard.Protector}: text of pending regions leaves the card sealed
    under one-time keys, released only on positive resolution. The
    guarded stream is what crosses the link: the breakdown charges its
    transfer, and the report's [output_bytes] and the [card.output_bytes]
    histogram record its wire size. Its guards count toward the RAM
    check (see the top of this page). *)
