(* AES (FIPS 197). The S-box and the round T-tables are computed at module
   initialization from first principles (GF(2^8) multiplication and
   Fermat inversion), which avoids transcription errors in 256-entry magic
   tables; correctness is pinned by the FIPS/NIST vectors in the tests. *)

let block_size = 16

(* --- GF(2^8) arithmetic ------------------------------------------------ *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then b lxor 0x11b else b

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

(* Multiplicative inverse via Fermat: a^254 in GF(2^8). *)
let ginv a =
  if a = 0 then 0
  else begin
    let rec pow acc base e =
      if e = 0 then acc
      else pow (if e land 1 = 1 then gmul acc base else acc) (gmul base base) (e lsr 1)
    in
    pow 1 a 254
  end

let sbox = Array.make 256 0
let inv_sbox = Array.make 256 0

let () =
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  for x = 0 to 255 do
    let b = ginv x in
    let s =
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63
    in
    sbox.(x) <- s;
    inv_sbox.(s) <- x
  done

(* --- T-tables ------------------------------------------------------------ *)

(* A state column is one 32-bit word, row 0 in the top byte. [te_r.(x)] is
   the MixColumns image of the column holding S(x) in row r and zero
   elsewhere, so one round of SubBytes, ShiftRows and MixColumns is four
   lookups and XORs per column. [td_r] does the same for InvSubBytes and
   InvMixColumns. *)

let column c0 c1 c2 c3 s =
  (gmul s c0 lsl 24) lor (gmul s c1 lsl 16) lor (gmul s c2 lsl 8) lor gmul s c3

let te0 = Array.init 256 (fun x -> column 2 1 1 3 sbox.(x))
let te1 = Array.init 256 (fun x -> column 3 2 1 1 sbox.(x))
let te2 = Array.init 256 (fun x -> column 1 3 2 1 sbox.(x))
let te3 = Array.init 256 (fun x -> column 1 1 3 2 sbox.(x))
let td0 = Array.init 256 (fun x -> column 14 9 13 11 inv_sbox.(x))
let td1 = Array.init 256 (fun x -> column 11 14 9 13 inv_sbox.(x))
let td2 = Array.init 256 (fun x -> column 13 11 14 9 inv_sbox.(x))
let td3 = Array.init 256 (fun x -> column 9 13 11 14 inv_sbox.(x))

(* --- Key schedule ------------------------------------------------------ *)

type key = {
  round_keys : int array;
  dec_keys : int array;
  nr : int;
  bits : int;
}
(* round_keys: 4*(nr+1) words, each a 32-bit int, big-endian byte order.
   dec_keys: the same rounds in reverse order, InvMixColumns applied to
   all but the first and last, for FIPS 197's equivalent inverse cipher
   (5.3.5), which runs in the order of the forward cipher and so takes
   the same table-driven rounds. *)

let sub_word w =
  (sbox.((w lsr 24) land 0xff) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xffffffff

(* InvMixColumns of one column: td_r undoes the S-box, so feed it S(w). *)
let inv_mix_word w =
  td0.(sbox.(w lsr 24))
  lxor td1.(sbox.((w lsr 16) land 0xff))
  lxor td2.(sbox.((w lsr 8) land 0xff))
  lxor td3.(sbox.(w land 0xff))

let rcon =
  let r = Array.make 15 0 in
  let v = ref 1 in
  for i = 1 to 14 do
    r.(i) <- !v lsl 24;
    v := xtime !v
  done;
  r

let expand_key k =
  let nk =
    match String.length k with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.expand_key: bad key size %d" n)
  in
  let nr = nk + 6 in
  let w = Array.make (4 * (nr + 1)) 0 in
  for i = 0 to nk - 1 do
    w.(i) <-
      (Char.code k.[4 * i] lsl 24)
      lor (Char.code k.[(4 * i) + 1] lsl 16)
      lor (Char.code k.[(4 * i) + 2] lsl 8)
      lor Char.code k.[(4 * i) + 3]
  done;
  for i = nk to (4 * (nr + 1)) - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor rcon.(i / nk)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  let dw =
    Array.init (4 * (nr + 1)) (fun i ->
        let round = i / 4 in
        let v = w.((4 * (nr - round)) + (i mod 4)) in
        if round = 0 || round = nr then v else inv_mix_word v)
  in
  { round_keys = w; dec_keys = dw; nr; bits = 32 * nk }

let key_bits k = k.bits

(* --- Block transforms --------------------------------------------------- *)

(* The state is four column words in int locals: no block allocates. *)

let get_word b pos =
  (Bytes.get_uint16_be b pos lsl 16) lor Bytes.get_uint16_be b (pos + 2)

let set_word b pos w =
  Bytes.set_uint16_be b pos (w lsr 16);
  Bytes.set_uint16_be b (pos + 2) (w land 0xffff)

(* The last round has no (Inv)MixColumns: bytes through the S-box alone. *)
let sub_column box a b c d =
  (box.(a lsr 24) lsl 24)
  lor (box.((b lsr 16) land 0xff) lsl 16)
  lor (box.((c lsr 8) land 0xff) lsl 8)
  lor box.(d land 0xff)

let encrypt_block key src spos dst dpos =
  let rk = key.round_keys in
  let s0 = ref (get_word src spos lxor rk.(0)) in
  let s1 = ref (get_word src (spos + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (spos + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (spos + 12) lxor rk.(3)) in
  for round = 1 to key.nr - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * round in
    (* ShiftRows: column c takes row r from column c + r. *)
    s0 :=
      te0.(a0 lsr 24) lxor te1.((a1 lsr 16) land 0xff)
      lxor te2.((a2 lsr 8) land 0xff) lxor te3.(a3 land 0xff) lxor rk.(k);
    s1 :=
      te0.(a1 lsr 24) lxor te1.((a2 lsr 16) land 0xff)
      lxor te2.((a3 lsr 8) land 0xff) lxor te3.(a0 land 0xff) lxor rk.(k + 1);
    s2 :=
      te0.(a2 lsr 24) lxor te1.((a3 lsr 16) land 0xff)
      lxor te2.((a0 lsr 8) land 0xff) lxor te3.(a1 land 0xff) lxor rk.(k + 2);
    s3 :=
      te0.(a3 lsr 24) lxor te1.((a0 lsr 16) land 0xff)
      lxor te2.((a1 lsr 8) land 0xff) lxor te3.(a2 land 0xff) lxor rk.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * key.nr in
  set_word dst dpos (sub_column sbox a0 a1 a2 a3 lxor rk.(k));
  set_word dst (dpos + 4) (sub_column sbox a1 a2 a3 a0 lxor rk.(k + 1));
  set_word dst (dpos + 8) (sub_column sbox a2 a3 a0 a1 lxor rk.(k + 2));
  set_word dst (dpos + 12) (sub_column sbox a3 a0 a1 a2 lxor rk.(k + 3))

let decrypt_block key src spos dst dpos =
  let rk = key.dec_keys in
  let s0 = ref (get_word src spos lxor rk.(0)) in
  let s1 = ref (get_word src (spos + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (spos + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (spos + 12) lxor rk.(3)) in
  for round = 1 to key.nr - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * round in
    (* InvShiftRows: column c takes row r from column c - r. *)
    s0 :=
      td0.(a0 lsr 24) lxor td1.((a3 lsr 16) land 0xff)
      lxor td2.((a2 lsr 8) land 0xff) lxor td3.(a1 land 0xff) lxor rk.(k);
    s1 :=
      td0.(a1 lsr 24) lxor td1.((a0 lsr 16) land 0xff)
      lxor td2.((a3 lsr 8) land 0xff) lxor td3.(a2 land 0xff) lxor rk.(k + 1);
    s2 :=
      td0.(a2 lsr 24) lxor td1.((a1 lsr 16) land 0xff)
      lxor td2.((a0 lsr 8) land 0xff) lxor td3.(a3 land 0xff) lxor rk.(k + 2);
    s3 :=
      td0.(a3 lsr 24) lxor td1.((a2 lsr 16) land 0xff)
      lxor td2.((a1 lsr 8) land 0xff) lxor td3.(a0 land 0xff) lxor rk.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * key.nr in
  set_word dst dpos (sub_column inv_sbox a0 a3 a2 a1 lxor rk.(k));
  set_word dst (dpos + 4) (sub_column inv_sbox a1 a0 a3 a2 lxor rk.(k + 1));
  set_word dst (dpos + 8) (sub_column inv_sbox a2 a1 a0 a3 lxor rk.(k + 2));
  set_word dst (dpos + 12) (sub_column inv_sbox a3 a2 a1 a0 lxor rk.(k + 3))

let encrypt_block_string key s =
  if String.length s <> 16 then invalid_arg "Aes.encrypt_block_string";
  let b = Bytes.of_string s in
  encrypt_block key b 0 b 0;
  Bytes.unsafe_to_string b

let decrypt_block_string key s =
  if String.length s <> 16 then invalid_arg "Aes.decrypt_block_string";
  let b = Bytes.of_string s in
  decrypt_block key b 0 b 0;
  Bytes.unsafe_to_string b
