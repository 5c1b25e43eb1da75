(** Arbitrary-precision natural numbers, from scratch.

    Just enough multiprecision arithmetic for the simulated PKI ({!Rsa}):
    schoolbook multiplication, schoolbook division over 26-bit limbs
    (Knuth's Algorithm D, TAOCP 4.3.1: one quotient limb per step),
    modular exponentiation, extended GCD and Miller–Rabin. Values are
    immutable; all numbers are non-negative (subtraction of a larger from
    a smaller raises). *)

type t

val zero : t
val one : t

val of_int : int -> t
(** Raises [Invalid_argument] on negatives. *)

val to_int_opt : t -> int option
(** [None] if the value exceeds [max_int]. *)

val of_bytes_be : string -> t
(** Big-endian magnitude; leading zero bytes are fine. *)

val to_bytes_be : t -> string
(** Minimal big-endian representation ([""] for zero). *)

val to_bytes_be_padded : t -> int -> string
(** Left-pad with zero bytes to the given width.
    Raises [Invalid_argument] if the value does not fit. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val bit_length : t -> int
(** 0 for zero. *)

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [(quotient, remainder)]. Raises [Division_by_zero]. *)

val rem : t -> t -> t

val shift_left : t -> int -> t

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation by square-and-multiply.
    Raises [Division_by_zero] on a zero modulus. *)

val mod_inverse : t -> modulus:t -> t option
(** Multiplicative inverse, [None] when not coprime. *)

val is_probable_prime : Drbg.t -> rounds:int -> t -> bool
(** Miller–Rabin with random bases drawn from the DRBG. *)


val generate_prime : Drbg.t -> bits:int -> t
(** A probable prime with its top bit set (exactly [bits] bits). *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal. *)

val to_hex : t -> string
val of_hex : string -> t
