let write buf n =
  if n < 0 then invalid_arg "Varint.write: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* The one decoding loop. Every argument is passed, so no call builds a
   closure, and the end offset goes to [pos], so none builds a pair. *)
let rec next_from s pos acc shift i =
  if i >= String.length s then invalid_arg "Varint.read: truncated";
  if shift >= Sys.int_size then invalid_arg "Varint.read: overflow";
  let b = Char.code s.[i] in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then begin
    pos := i + 1;
    acc
  end
  else next_from s pos acc (shift + 7) (i + 1)

let next s pos = next_from s pos 0 0 !pos

let read s pos =
  let p = ref pos in
  let v = next s p in
  (v, !p)

let size n =
  if n < 0 then invalid_arg "Varint.size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let write_bytes b pos n =
  if n < 0 then invalid_arg "Varint.write_bytes: negative";
  let rec go n pos =
    if n < 0x80 then begin
      Bytes.set b pos (Char.chr n);
      pos + 1
    end
    else begin
      Bytes.set b pos (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7) (pos + 1)
    end
  in
  go n pos
