let bs = Aes.block_size

let pad_pkcs7 s =
  let n = bs - (String.length s mod bs) in
  s ^ String.make n (Char.chr n)

(* The PKCS#7 pad length of the block that ends before [stop], or 0 if
   its padding is malformed. *)
let pad_length s stop =
  let n = Char.code s.[stop - 1] in
  if n = 0 || n > bs then 0
  else begin
    let ok = ref true in
    for i = stop - n to stop - 1 do
      if Char.code s.[i] <> n then ok := false
    done;
    if !ok then n else 0
  end

let unpad_pkcs7 s =
  let len = String.length s in
  if len = 0 || len mod bs <> 0 then None
  else
    match pad_length s len with
    | 0 -> None
    | n -> Some (String.sub s 0 (len - n))

let check_iv iv = if String.length iv <> bs then invalid_arg "Mode: bad IV size"

let encrypt_cbc key ~iv plain =
  check_iv iv;
  let padded = pad_pkcs7 plain in
  let n = String.length padded in
  let out = Bytes.of_string padded in
  let prev = Bytes.of_string iv in
  let off = ref 0 in
  while !off < n do
    for i = 0 to bs - 1 do
      Bytes.set_uint8 out (!off + i)
        (Bytes.get_uint8 out (!off + i) lxor Bytes.get_uint8 prev i)
    done;
    Aes.encrypt_block key out !off out !off;
    Bytes.blit out !off prev 0 bs;
    off := !off + bs
  done;
  Bytes.unsafe_to_string out

(* [dst[dpos..]] ^= the 16 bytes of [src] from [spos]. *)
let xor_block dst dpos src spos =
  for i = 0 to 1 do
    let d = dpos + (8 * i) and s = spos + (8 * i) in
    Bytes.set_int64_ne dst d
      (Int64.logxor (Bytes.get_int64_ne dst d) (String.get_int64_ne src s))
  done

(* Plaintext block [off] of [cipher] into [dst] at [dpos]: its
   decryption XOR the ciphertext block before it, or the IV. Both are
   read in place. *)
let decrypt_block key ~iv cipher off dst dpos =
  Aes.decrypt_block key (Bytes.unsafe_of_string cipher) off dst dpos;
  if off = 0 then xor_block dst dpos iv 0
  else xor_block dst dpos cipher (off - bs)

(* The last block is deciphered here: its padding decides how much of it
   is plaintext. *)
let last = Bytes.create bs

let decrypt_cbc_into key ~iv cipher dst pos len =
  check_iv iv;
  if pos < 0 || len < 0 || pos > Bytes.length dst - len then
    invalid_arg "Mode.decrypt_cbc_into";
  let n = String.length cipher in
  let body = n - bs in
  if n = 0 || n mod bs <> 0 || body > len then None
  else begin
    let off = ref 0 in
    while !off < body do
      decrypt_block key ~iv cipher !off dst (pos + !off);
      off := !off + bs
    done;
    decrypt_block key ~iv cipher body last 0;
    let pad = pad_length (Bytes.unsafe_to_string last) bs in
    if pad = 0 || body + bs - pad > len then None
    else begin
      Bytes.blit last 0 dst (pos + body) (bs - pad);
      Some (body + bs - pad)
    end
  end

let decrypt_cbc key ~iv cipher =
  let n = String.length cipher in
  let out = Bytes.create n in
  Option.map
    (fun len -> Bytes.sub_string out 0 len)
    (decrypt_cbc_into key ~iv cipher out 0 n)

let ctr_transform key ~nonce data =
  check_iv nonce;
  let n = String.length data in
  let out = Bytes.of_string data in
  let counter = Bytes.of_string nonce in
  let keystream = Bytes.create bs in
  let bump () =
    (* Increment the last 4 bytes big-endian. *)
    let rec go i =
      if i >= bs - 4 then begin
        let v = (Bytes.get_uint8 counter i + 1) land 0xff in
        Bytes.set_uint8 counter i v;
        if v = 0 then go (i - 1)
      end
    in
    go (bs - 1)
  in
  let off = ref 0 in
  while !off < n do
    Aes.encrypt_block key counter 0 keystream 0;
    let chunk = min bs (n - !off) in
    for i = 0 to chunk - 1 do
      Bytes.set_uint8 out (!off + i)
        (Bytes.get_uint8 out (!off + i) lxor Bytes.get_uint8 keystream i)
    done;
    bump ();
    off := !off + bs
  done;
  Bytes.unsafe_to_string out
