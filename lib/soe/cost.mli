(** Calibrated cost model of the smart-card platform.

    The demonstration ran on Axalto e-gate cards: "a powerful CPU and
    strong security features but still … only 1 KB of RAM available for
    on-board applications and a low bandwidth (2 KB/s)". The two limiting
    factors the paper names — decryption inside the SOE and communication
    between SOE, client and server — are charged per byte/block here;
    every experiment that reports time does so through this model, so
    results are deterministic and hardware-independent. The constants for
    {!egate} follow the card generation the demo used (software AES in the
    tens of microseconds per block, 2 KB/s half-duplex T=0 link); a
    {!modern} profile shows how the trade-offs move with faster secure
    elements. *)

type profile = {
  name : string;
  ram_bytes : int;  (** secure working memory available to the evaluator *)
  link_bytes_per_s : float;  (** terminal <-> card throughput *)
  apdu_payload : int;  (** max data bytes per APDU frame *)
  apdu_overhead_bytes : int;  (** header/status bytes per frame *)
  aes_block_us : float;  (** decrypt one 16-byte block *)
  sha_block_us : float;  (** hash one 64-byte block *)
  event_us : float;  (** fixed automaton cost per parsing event *)
  token_us : float;  (** cost per live token touched by an event *)
  rsa_op_ms : float;  (** private-key operation (session opening) *)
  compile_state_us : float;
      (** building one automaton state while preparing a rule set
          (parse + NFA construction) — the fixed per-query setup the
          prepared-evaluation cache amortizes *)
}

val egate : profile
(** The demo's Axalto e-gate card (1 KB RAM, 2 KB/s). *)

val modern : profile
(** A contemporary secure element (hardware AES, USB-CCID link, 16 KB
    RAM) — used to show where the crossovers move. *)

val fleet : profile
(** A serving-oriented secure element: {!modern}'s engine constants with a
    64 KB RAM budget and a 1 MB/s link, sized so a prepared-evaluation
    cache can hold many (document, policy, query) automata at once — the
    profile the multi-client session experiments run on. *)

(** Mutable meter accumulating charges, one per evaluation run. *)
type meter

val meter : profile -> meter

val charge_transfer : meter -> bytes:int -> unit
(** Framed transfer: charges link time for payload plus APDU overhead of
    [ceil (bytes / apdu_payload)] frames. *)

val charge_decrypt : meter -> bytes:int -> unit
(** AES time for [ceil (bytes / 16)] blocks. *)

val charge_hash : meter -> bytes:int -> unit
val charge_events : meter -> events:int -> tokens:int -> unit
val charge_rsa : meter -> ops:int -> unit

val charge_compile : meter -> states:int -> unit
(** Automaton construction: [states] compiled states
    ({!Sdds_core.Compile.state_count}) at [compile_state_us] each. Charged
    once per prepared-cache miss; a warm hit skips it. *)

type breakdown = {
  transfer_ms : float;
  crypto_ms : float;  (** AES + SHA *)
  cpu_ms : float;  (** automaton work *)
  rsa_ms : float;
  compile_ms : float;  (** automaton construction (cache misses only) *)
  total_ms : float;
  bytes_transferred : int;
  bytes_decrypted : int;
  apdu_frames : int;
}

val read : meter -> breakdown

val transfer_cost :
  profile -> bytes:int -> float * int
(** [(milliseconds, frames)] that {!charge_transfer} accounts for a
    framed transfer of [bytes]. *)
