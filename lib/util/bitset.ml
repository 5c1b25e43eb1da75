type t = { bits : bytes; capacity : int }

let bytes_for n = (n + 7) / 8

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make (bytes_for capacity) '\000'; capacity }

let capacity t = t.capacity
let copy t = { t with bits = Bytes.copy t.bits }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b lor (1 lsl (i land 7)))

let clear t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b land lnot (1 lsl (i land 7)))

let mem t i =
  check t i;
  Bytes.get_uint8 t.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let popcount_byte b =
  let b = b - ((b lsr 1) land 0x55) in
  let b = (b land 0x33) + ((b lsr 2) land 0x33) in
  (b + (b lsr 4)) land 0x0f

let cardinal t =
  let n = ref 0 in
  for i = 0 to Bytes.length t.bits - 1 do
    n := !n + popcount_byte (Bytes.get_uint8 t.bits i)
  done;
  !n

let is_empty t =
  let rec go i =
    i >= Bytes.length t.bits || (Bytes.get_uint8 t.bits i = 0 && go (i + 1))
  in
  go 0

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_capacity dst src;
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.set_uint8 dst.bits i
      (Bytes.get_uint8 dst.bits i lor Bytes.get_uint8 src.bits i)
  done

let inter a b =
  same_capacity a b;
  let r = create a.capacity in
  for i = 0 to Bytes.length a.bits - 1 do
    Bytes.set_uint8 r.bits i
      (Bytes.get_uint8 a.bits i land Bytes.get_uint8 b.bits i)
  done;
  r

let subset a b =
  same_capacity a b;
  let rec go i =
    i >= Bytes.length a.bits
    || Bytes.get_uint8 a.bits i land lnot (Bytes.get_uint8 b.bits i) land 0xff
        = 0
       && go (i + 1)
  in
  go 0

let equal a b = a.capacity = b.capacity && Bytes.equal a.bits b.bits

let iter f t =
  for i = 0 to t.capacity - 1 do
    if mem t i then f i
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i l -> i :: l) t [])

let of_list capacity l =
  let t = create capacity in
  List.iter (set t) l;
  t

let project ~parent sub =
  if not (subset sub parent) then invalid_arg "Bitset.project: not a subset";
  let packed = create (cardinal parent) in
  let rank = ref 0 in
  iter
    (fun i ->
      if mem sub i then set packed !rank;
      incr rank)
    parent;
  packed

(* Bit [i] of the raw bytes at offset [pos] of [s]. *)
let string_bit s pos i =
  Char.code (String.unsafe_get s (pos + (i lsr 3))) land (1 lsl (i land 7))
  <> 0

let check_room s pos nbytes =
  if pos < 0 || pos > String.length s - nbytes then
    invalid_arg "Bitset: truncated encoding"

let inject_into t ~parent s pos =
  same_capacity t parent;
  let nbytes = bytes_for (cardinal parent) in
  check_room s pos nbytes;
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  let rank = ref 0 in
  for i = 0 to t.capacity - 1 do
    if mem parent i then begin
      if string_bit s pos !rank then set t i;
      incr rank
    end
  done;
  pos + nbytes

let encode buf t = Buffer.add_bytes buf t.bits

let encoded_size ~capacity = bytes_for capacity

let decode_into t s pos =
  let nbytes = Bytes.length t.bits in
  check_room s pos nbytes;
  Bytes.blit_string s pos t.bits 0 nbytes;
  (* Bits past the capacity are padding: drop them, so the set holds only
     members. *)
  if t.capacity land 7 <> 0 then begin
    let last = Bytes.get_uint8 t.bits (nbytes - 1) in
    Bytes.set_uint8 t.bits (nbytes - 1)
      (last land ((1 lsl (t.capacity land 7)) - 1))
  end;
  pos + nbytes

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
