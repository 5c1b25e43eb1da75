type public = { n : Bignum.t; e : Bignum.t }
type secret = { n : Bignum.t; e : Bignum.t; d : Bignum.t }
type keypair = { public : public; secret : secret }

let e_65537 = Bignum.of_int 65537

let generate drbg ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec go () =
    let p = Bignum.generate_prime drbg ~bits:half in
    let q = Bignum.generate_prime drbg ~bits:(bits - half) in
    if Bignum.equal p q then go ()
    else begin
      let n = Bignum.mul p q in
      let phi =
        Bignum.mul (Bignum.sub p Bignum.one) (Bignum.sub q Bignum.one)
      in
      match Bignum.mod_inverse e_65537 ~modulus:phi with
      | None -> go ()
      | Some d ->
          { public = { n; e = e_65537 }; secret = { n; e = e_65537; d } }
    end
  in
  go ()

let modulus_bytes (pub : public) = (Bignum.bit_length pub.n + 7) / 8

(* PKCS#1 v1.5 block: 0x00 BT PS 0x00 payload, |block| = |n|. *)
let pad_block ~block_type ~ps k payload =
  if String.length payload > k - 11 then
    invalid_arg "Rsa: payload too long for modulus";
  let ps_len = k - 3 - String.length payload in
  "\x00" ^ String.make 1 (Char.chr block_type) ^ ps ps_len ^ "\x00" ^ payload

let unpad_block block =
  let len = String.length block in
  if len < 11 || block.[0] <> '\x00' || block.[1] <> '\x02' then None
  else begin
    match String.index_from_opt block 2 '\x00' with
    | None -> None
    | Some sep when sep < 10 -> None (* PS must be at least 8 bytes *)
    | Some sep -> Some (String.sub block (sep + 1) (len - sep - 1))
  end

let encrypt drbg (pub : public) msg =
  let k = modulus_bytes pub in
  let nonzero_random n =
    String.init n (fun _ ->
        let rec draw () =
          let c = (Drbg.generate drbg 1).[0] in
          if c = '\x00' then draw () else c
        in
        draw ())
  in
  let block = pad_block ~block_type:2 ~ps:nonzero_random k msg in
  let m = Bignum.of_bytes_be block in
  let c = Bignum.mod_pow ~base:m ~exp:pub.e ~modulus:pub.n in
  Bignum.to_bytes_be_padded c k

let decrypt sec cipher =
  let k = (Bignum.bit_length sec.n + 7) / 8 in
  if String.length cipher <> k then None
  else begin
    let c = Bignum.of_bytes_be cipher in
    if Bignum.compare c sec.n >= 0 then None
    else begin
      let m = Bignum.mod_pow ~base:c ~exp:sec.d ~modulus:sec.n in
      unpad_block (Bignum.to_bytes_be_padded m k)
    end
  end

(* The type-01 block over the digest: sign encrypts it, verify rebuilds it
   and compares byte for byte (RFC 8017, 8.2.2), so no other block passes. *)
let signature_block k msg =
  pad_block ~block_type:1 ~ps:(fun n -> String.make n '\xff') k
    (Sha256.digest msg)

let sign sec msg =
  let k = (Bignum.bit_length sec.n + 7) / 8 in
  let m = Bignum.of_bytes_be (signature_block k msg) in
  let s = Bignum.mod_pow ~base:m ~exp:sec.d ~modulus:sec.n in
  Bignum.to_bytes_be_padded s k

let verify (pub : public) msg ~signature =
  let k = modulus_bytes pub in
  String.length signature = k
  (* A modulus too small to hold a signature block verifies nothing. *)
  && k >= Sha256.digest_size + 11
  &&
  let s = Bignum.of_bytes_be signature in
  Bignum.compare s pub.n < 0
  &&
  let m = Bignum.mod_pow ~base:s ~exp:pub.e ~modulus:pub.n in
  String.equal (Bignum.to_bytes_be_padded m k) (signature_block k msg)

let fingerprint (pub : public) =
  let encoded = Bignum.to_bytes_be pub.n ^ "|" ^ Bignum.to_bytes_be pub.e in
  String.sub (Sdds_util.Hex.encode (Sha256.digest encoded)) 0 16
