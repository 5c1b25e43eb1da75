(** ISO 7816-4 style APDU framing.

    The terminal proxy talks to the card exclusively through these frames
    ("Application Protocol Data Unit: communication protocol between the
    terminal and the smart card"). Long messages are segmented into
    command chains; the functions here encode, decode and count frames —
    the counting feeds the cost model's per-frame overhead. *)

type command = {
  cla : int;  (** class byte *)
  ins : int;  (** instruction *)
  p1 : int;
  p2 : int;
  data : string;  (** up to 255 bytes in a single frame *)
}

type response = { sw1 : int; sw2 : int; payload : string }

(** {1 Logical channels}

    Per ISO 7816-4, the two low bits of the class byte address one of four
    logical channels, each an independent card session. Channel 0 is the
    basic channel, always open; 1–3 are opened and closed with MANAGE
    CHANNEL ({!Remote_card.Ins.manage_channel}). *)

val base_cla : int
(** The application class byte with channel bits cleared (0x80). *)

val max_channels : int
(** 4 — the CLA encoding has two channel bits. *)

val channel_of_cla : int -> int
(** The logical channel a class byte addresses (its two low bits). *)

val cla_of_channel : int -> int
(** [base_cla lor channel]. Raises [Invalid_argument] outside [0..3]. *)

val valid_cla : int -> bool
(** True iff the byte is [base_cla] with any channel bits — the host
    rejects every other class. *)

val encode_command : command -> string
(** Raises [Invalid_argument] if a field is out of range or data exceeds
    255 bytes. *)

val decode_command : string -> command option

val encode_response : response -> string
(** Raises [Invalid_argument] if a status byte is out of range. *)

val decode_response : string -> response option

val command_bytes : command -> int
(** [String.length (encode_command c)], by arithmetic: [5 + |data|].
    Raises what {!encode_command} raises. *)

val response_bytes : response -> int
(** [String.length (encode_response r)], by arithmetic: [|payload| + 2].
    Raises what {!encode_response} raises. *)

val segment : cla:int -> ins:int -> string -> command list
(** Split an arbitrarily long payload into a command chain; [p1] carries a
    more-frames flag (1 = more coming), [p2] the sequence number modulo
    256. *)

val reassemble : command list -> string
(** Inverse of {!segment}. Raises [Invalid_argument] on a broken chain
    (bad sequence numbers or missing final frame). *)

val frame_count : payload_bytes:int -> int
(** Frames needed for a payload under 255-byte segmentation. *)
