let seed = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let feed_char h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

(* An index loop over a local ref: ocamlopt keeps [h] unboxed, where a
   closure over the ref would box an [Int64] per byte. *)
let feed h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let fnv1a64 s = feed seed s
let to_hex = Printf.sprintf "%Lx"
