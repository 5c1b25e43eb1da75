(** Minimal JSON values, printing and parsing.

    The analyzer's machine-readable output and the benchmark driver's
    [BENCH_*.json] exports share this value type with no external
    dependency. {!parse} exists for the consumers of those files inside
    the repo itself — the perf-regression gate reads a committed
    baseline back, and tests round-trip CLI snapshots. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. Strings are escaped per RFC 8259;
    floats render with the shortest round-trippable decimal and
    non-finite values become [null]. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering, two spaces per level. *)

val parse : string -> (t, string) result
(** Full-document RFC 8259 parser: string escapes including [\uXXXX]
    surrogate pairs, numbers as {!Int} when the lexeme is integral and
    fits, {!Float} otherwise. Number lexemes and [\u] escapes must
    match the RFC grammar: [01], [-.5], [1.e5] and [1e] are errors,
    like trailing garbage. Never raises: every input gives [Ok] or an
    [Error] carrying a byte offset. *)

(** {2 Walking parsed documents} *)

val member : string -> t -> t option
(** [member k j] is field [k] of object [j], [None] on non-objects. *)

val to_float_opt : t -> float option
(** Numeric coercion: both {!Int} and {!Float} succeed. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_list_opt : t -> t list option
