module Aes = Sdds_crypto.Aes
module Mode = Sdds_crypto.Mode
module Sha256 = Sdds_crypto.Sha256
module Hmac = Sdds_crypto.Hmac
module Drbg = Sdds_crypto.Drbg
module Merkle = Sdds_crypto.Merkle
module Bignum = Sdds_crypto.Bignum
module Rsa = Sdds_crypto.Rsa
module Hex = Sdds_util.Hex

let hex = Hex.decode

(* ------------------------------------------------------------------ *)
(* AES: FIPS-197 appendix C vectors                                    *)
(* ------------------------------------------------------------------ *)

let fips_plain = hex "00112233445566778899aabbccddeeff"

let test_aes128_vector () =
  let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  Alcotest.(check string) "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Hex.encode (Aes.encrypt_block_string key fips_plain));
  Alcotest.(check string) "decrypt" (Hex.encode fips_plain)
    (Hex.encode
       (Aes.decrypt_block_string key
          (hex "69c4e0d86a7b0430d8cdb78070b4c55a")))

let test_aes192_vector () =
  let key =
    Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f1011121314151617")
  in
  Alcotest.(check string) "encrypt" "dda97ca4864cdfe06eaf70a0ec0d7191"
    (Hex.encode (Aes.encrypt_block_string key fips_plain));
  Alcotest.(check string) "decrypt" (Hex.encode fips_plain)
    (Hex.encode
       (Aes.decrypt_block_string key
          (hex "dda97ca4864cdfe06eaf70a0ec0d7191")))

let test_aes256_vector () =
  let key =
    Aes.expand_key
      (hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  Alcotest.(check string) "encrypt" "8ea2b7ca516745bfeafc49904b496089"
    (Hex.encode (Aes.encrypt_block_string key fips_plain));
  Alcotest.(check string) "decrypt" (Hex.encode fips_plain)
    (Hex.encode
       (Aes.decrypt_block_string key
          (hex "8ea2b7ca516745bfeafc49904b496089")));
  Alcotest.(check int) "key bits" 256 (Aes.key_bits key)

let test_aes_bad_key_size () =
  Alcotest.check_raises "15 bytes"
    (Invalid_argument "Aes.expand_key: bad key size 15") (fun () ->
      ignore (Aes.expand_key (String.make 15 'k')))

let qcheck_aes_roundtrip =
  QCheck2.Test.make ~name:"aes encrypt/decrypt roundtrip" ~count:200
    QCheck2.Gen.(
      pair
        (oneofl [ 16; 24; 32 ] >>= fun n -> string_size (return n))
        (string_size (return 16)))
    (fun (k, block) ->
      let key = Aes.expand_key k in
      Aes.decrypt_block_string key (Aes.encrypt_block_string key block)
      = block)

(* Minor words [f ()] allocates. *)
let words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Gc.minor_words is deterministic, so allocation is pinned exactly like
   an output: the table-driven rounds keep the state in registers. *)
let test_aes_allocation () =
  let key = Aes.expand_key (String.make 16 'k') in
  let block = Bytes.make 16 'b' in
  let blocks = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to blocks / 2 do
    Aes.encrypt_block key block 0 block 0;
    Aes.decrypt_block key block 0 block 0
  done;
  let per_block = (Gc.minor_words () -. before) /. float_of_int blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per block < 1" per_block)
    true (per_block < 1.0)

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let cbc_key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c")
let cbc_iv = hex "000102030405060708090a0b0c0d0e0f"

let test_cbc_nist_first_block () =
  (* NIST SP 800-38A F.2.1, first block (our API pads, so compare the
     prefix). *)
  let c =
    Mode.encrypt_cbc cbc_key ~iv:cbc_iv (hex "6bc1bee22e409f96e93d7e117393172a")
  in
  Alcotest.(check string) "first block" "7649abac8119b246cee98e9b12e9197d"
    (Hex.encode (String.sub c 0 16))

let test_cbc_roundtrip_various_lengths () =
  List.iter
    (fun n ->
      let plain = String.init n (fun i -> Char.chr (i land 0xff)) in
      let c = Mode.encrypt_cbc cbc_key ~iv:cbc_iv plain in
      Alcotest.(check int) "padded multiple" 0 (String.length c mod 16);
      match Mode.decrypt_cbc cbc_key ~iv:cbc_iv c with
      | Some p -> Alcotest.(check string) "roundtrip" plain p
      | None -> Alcotest.fail "decrypt failed")
    [ 0; 1; 15; 16; 17; 31; 32; 100 ]

let test_cbc_wrong_iv () =
  let c = Mode.encrypt_cbc cbc_key ~iv:cbc_iv "attack at dawn!!" in
  let other_iv = String.make 16 '\xff' in
  (match Mode.decrypt_cbc cbc_key ~iv:other_iv c with
  | Some p -> Alcotest.(check bool) "differs" true (p <> "attack at dawn!!")
  | None -> (* padding broke, also acceptable *) ())

let test_cbc_tampered () =
  (* Flipping a bit in the last block corrupts the padding with high
     probability; run over many messages and require at least one None. *)
  let rejected = ref 0 in
  for i = 0 to 20 do
    let plain = String.make (17 + i) 'x' in
    let c = Bytes.of_string (Mode.encrypt_cbc cbc_key ~iv:cbc_iv plain) in
    let last = Bytes.length c - 1 in
    Bytes.set_uint8 c last (Bytes.get_uint8 c last lxor 0x01);
    match Mode.decrypt_cbc cbc_key ~iv:cbc_iv (Bytes.to_string c) with
    | None -> incr rejected
    | Some p -> if p <> plain then incr rejected
  done;
  Alcotest.(check int) "all tampered rejected or changed" 21 !rejected

(* Decrypting into a caller's buffer reads the ciphertext and IV in
   place and writes the plaintext at an offset: nothing is allocated per
   block, and the bytes around the plaintext are left alone. *)
let test_cbc_into () =
  let plain = String.init 4000 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let c = Mode.encrypt_cbc cbc_key ~iv:cbc_iv plain in
  let dst = Bytes.make 4010 '#' in
  let got = ref None in
  let w =
    words (fun () ->
        got := Mode.decrypt_cbc_into cbc_key ~iv:cbc_iv c dst 7 4000)
  in
  Alcotest.(check (option int)) "length" (Some 4000) !got;
  Alcotest.(check string) "plaintext" plain (Bytes.sub_string dst 7 4000);
  Alcotest.(check string) "untouched around it" "##########"
    (Bytes.sub_string dst 0 7 ^ Bytes.sub_string dst 4007 3);
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words < 8" w) true (w < 8.);
  (* A plaintext longer than the room given is refused, and nothing past
     the room is written. *)
  let dst = Bytes.make 4010 '#' in
  Alcotest.(check (option int)) "no room" None
    (Mode.decrypt_cbc_into cbc_key ~iv:cbc_iv c dst 0 3999);
  Alcotest.(check string) "past the room" "###########"
    (Bytes.sub_string dst 3999 11)

let test_ctr_nist_vector () =
  (* NIST SP 800-38A F.5.1, first block. *)
  let key = cbc_key in
  let nonce = hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let c = Mode.ctr_transform key ~nonce (hex "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) "ctr block" "874d6191b620e3261bef6864990db6ce"
    (Hex.encode c)

let qcheck_ctr_involutive =
  QCheck2.Test.make ~name:"ctr transform is involutive" ~count:200
    QCheck2.Gen.(pair (string_size (return 16)) string)
    (fun (nonce, data) ->
      let key = cbc_key in
      Mode.ctr_transform key ~nonce (Mode.ctr_transform key ~nonce data)
      = data)

let test_pkcs7 () =
  Alcotest.(check int) "pad 0" 16 (String.length (Mode.pad_pkcs7 ""));
  Alcotest.(check int) "pad 16" 32 (String.length (Mode.pad_pkcs7 (String.make 16 'a')));
  Alcotest.(check (option string)) "unpad" (Some "ab")
    (Mode.unpad_pkcs7 ("ab" ^ String.make 14 '\x0e'));
  Alcotest.(check (option string)) "bad pad byte" None
    (Mode.unpad_pkcs7 (String.make 16 '\x00'));
  Alcotest.(check (option string)) "bad length" None (Mode.unpad_pkcs7 "abc")

(* ------------------------------------------------------------------ *)
(* Hashes and HMAC                                                     *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  let cases =
    [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1000 'a',
        "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3" ) ]
  in
  List.iter
    (fun (msg, want) ->
      Alcotest.(check string) "digest" want (Hex.encode (Sha256.digest msg)))
    cases

(* Every padding boundary of the last block: 55 bytes leave room for the
   0x80 byte and the length, 56 to 63 push the length into a block of its
   own, 64 and 65 straddle a whole block, 119 and 120 do it again one
   block later. Message [n] is the bytes 0, 1, ..., n - 1; the digests
   come from Python's hashlib. *)
let test_sha256_padding_boundaries () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%d bytes" n)
        want
        (Hex.encode (Sha256.digest (String.init n Char.chr))))
    [ (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c") ]

let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let whole = Sha256.digest msg in
  (* Feed in awkward pieces crossing block boundaries. *)
  List.iter
    (fun pieces ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun n ->
          Sha256.feed ctx (String.sub msg !pos n);
          pos := !pos + n)
        pieces;
      Sha256.feed ctx (String.sub msg !pos (String.length msg - !pos));
      Alcotest.(check string) "same digest" (Hex.encode whole)
        (Hex.encode (Sha256.finalize ctx)))
    [ [ 1; 62; 1; 64; 128 ]; [ 63; 1; 65 ]; [ 64; 64 ]; [ 5 ]; [] ]

(* The kernel loads words straight from the message and pads in the
   context's own block, so a digest allocates its 32-byte result and
   nothing per block. *)
let test_sha256_allocation () =
  let big = String.make 65_536 'm' and small = "m" in
  let per_block = words (fun () -> Sha256.digest big) /. 1024. in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per block < 1" per_block)
    true (per_block < 1.0);
  Alcotest.(check (float 0.)) "one-shot allocation independent of length"
    (words (fun () -> Sha256.digest small))
    (words (fun () -> Sha256.digest big));
  let ctx = Sha256.init () in
  let fed = words (fun () -> Sha256.feed ctx big) in
  Alcotest.(check (float 0.)) "feeding 64 KB allocates nothing" 0. fed

let test_hmac_rfc4231 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Case 6: key longer than the block size. *)
  Alcotest.(check string) "long key"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode
       (Hmac.mac ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"k" "msg" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key:"k" "msg" ~tag);
  Alcotest.(check bool) "rejects msg" false (Hmac.verify ~key:"k" "msG" ~tag);
  Alcotest.(check bool) "rejects key" false (Hmac.verify ~key:"K" "msg" ~tag);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key:"k" "msg" ~tag:(String.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)
(* ------------------------------------------------------------------ *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seed differs" true
    (Drbg.generate c 64 <> Drbg.generate (Drbg.create ~seed:"seed") 64)

let test_drbg_advances () =
  let d = Drbg.create ~seed:"s" in
  let x = Drbg.generate d 32 and y = Drbg.generate d 32 in
  Alcotest.(check bool) "stream advances" true (x <> y);
  Alcotest.(check int) "exact length" 100 (String.length (Drbg.generate d 100))

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Drbg.reseed a "extra";
  Alcotest.(check bool) "reseed changes stream" true
    (Drbg.generate a 32 <> Drbg.generate b 32)

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let chunks n = List.init n (fun i -> Printf.sprintf "chunk-%d-%s" i (String.make (i mod 7) 'x'))

let test_merkle_single () =
  let t = Merkle.build [ "only" ] in
  Alcotest.(check int) "leaves" 1 (Merkle.leaf_count t);
  let proof = Merkle.prove t 0 in
  Alcotest.(check int) "empty proof" 0 (List.length proof);
  Alcotest.(check bool) "verifies" true
    (Merkle.verify ~root:(Merkle.root t) ~leaf_count:1 ~index:0 ~leaf:"only" proof)

let test_merkle_all_sizes () =
  List.iter
    (fun n ->
      let leaves = chunks n in
      let t = Merkle.build leaves in
      List.iteri
        (fun i leaf ->
          let proof = Merkle.prove t i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d verifies" n i)
            true
            (Merkle.verify ~root:(Merkle.root t) ~leaf_count:n ~index:i ~leaf
               proof))
        leaves)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17 ]

let test_merkle_rejects () =
  let leaves = chunks 8 in
  let t = Merkle.build leaves in
  let root = Merkle.root t in
  let proof = Merkle.prove t 3 in
  Alcotest.(check bool) "wrong leaf" false
    (Merkle.verify ~root ~leaf_count:8 ~index:3 ~leaf:"evil" proof);
  Alcotest.(check bool) "wrong index" false
    (Merkle.verify ~root ~leaf_count:8 ~index:4 ~leaf:(List.nth leaves 3) proof);
  Alcotest.(check bool) "truncated proof" false
    (Merkle.verify ~root ~leaf_count:8 ~index:3 ~leaf:(List.nth leaves 3)
       (List.tl proof));
  Alcotest.(check bool) "substituted root" false
    (Merkle.verify ~root:(String.make 32 '\000') ~leaf_count:8 ~index:3
       ~leaf:(List.nth leaves 3) proof)

(* The tree's byte format: publisher and card share the hashing code, so
   no round trip would see it move. Five leaves: the fifth is promoted
   twice, and the root is node(node(node(l0, l1), node(l2, l3)), l4) with
   leaf l = SHA-256(0x00 || l) and node(a, b) = SHA-256(0x01 || a || b),
   recomputed independently with Python's hashlib. *)
let test_merkle_pinned_root () =
  let t = Merkle.build (List.init 5 (Printf.sprintf "leaf-%d")) in
  Alcotest.(check string) "root"
    "00d21829a5503145348abcf712513eacf2a274211ad83e970202bb5b6d80b286"
    (Hex.encode (Merkle.root t))

let test_merkle_root_sensitive () =
  let t1 = Merkle.build (chunks 9) in
  let altered = List.mapi (fun i c -> if i = 4 then c ^ "!" else c) (chunks 9) in
  let t2 = Merkle.build altered in
  Alcotest.(check bool) "root differs" true (Merkle.root t1 <> Merkle.root t2)

let qcheck_merkle =
  QCheck2.Test.make ~name:"merkle prove/verify" ~count:100
    QCheck2.Gen.(pair (1 -- 40) (int_bound 1000))
    (fun (n, salt) ->
      let leaves = List.init n (fun i -> Printf.sprintf "%d-%d" salt i) in
      let t = Merkle.build leaves in
      List.for_all
        (fun i ->
          Merkle.verify ~root:(Merkle.root t) ~leaf_count:n ~index:i
            ~leaf:(List.nth leaves i) (Merkle.prove t i))
        (List.init n Fun.id))

(* Multiproofs over [n] distinct leaves (n in 1-300) and a mask drawn
   from [seed]. The density varies from case to case, so empty, sparse,
   dense and full masks all occur. *)
let multiproof_case = QCheck2.Gen.(pair (1 -- 300) (int_bound 1_000_000))

let multiproof_world ?density (n, seed) =
  let rng = Sdds_util.Rng.create (Int64.of_int seed) in
  let leaves = List.init n (fun i -> Printf.sprintf "%d-%d" seed i) in
  let density =
    match density with
    | Some d -> d
    | None -> Sdds_util.Rng.pick rng [| 0.0; 0.01; 0.05; 0.2; 0.5; 0.9; 1.0 |]
  in
  let wanted = Array.init n (fun _ -> Sdds_util.Rng.float rng 1.0 < density) in
  (rng, leaves, Merkle.build leaves, wanted)

(* [multiverify] over the wanted leaves of [leaves], in document order. *)
let multiverify t ?(leaf_count = Merkle.leaf_count t) ~wanted leaves proof =
  Merkle.multiverify ~root:(Merkle.root t) ~leaf_count ~wanted
    ~leaves:(List.filteri (fun i _ -> wanted.(i)) leaves)
    proof

(* The maximal subtrees with no wanted leaf, counted the way [verify]
   walks a path: level by level, the siblings of nodes above a wanted
   leaf that are not above one themselves; plus the root when nothing is
   wanted. *)
let maximal_empty_subtrees wanted =
  let rec go known acc =
    let width = Array.length known in
    if width = 1 then if known.(0) then acc else acc + 1
    else begin
      let acc = ref acc in
      Array.iteri
        (fun i k ->
          let s = i lxor 1 in
          if k && s < width && not known.(s) then incr acc)
        known;
      go
        (Array.init ((width + 1) / 2) (fun j ->
             known.(2 * j) || ((2 * j) + 1 < width && known.((2 * j) + 1))))
        !acc
    end
  in
  go wanted 0

let qcheck_multiproof_honest =
  QCheck2.Test.make ~name:"merkle multiproof verifies, one digest per gap"
    ~count:200 multiproof_case (fun case ->
      let _, leaves, t, wanted = multiproof_world case in
      let proof = Merkle.multiprove t wanted in
      multiverify t ~wanted leaves proof <> None
      && List.length proof = maximal_empty_subtrees wanted)

let qcheck_multiproof_one_leaf =
  QCheck2.Test.make ~name:"merkle multiproof of one leaf = its proof"
    ~count:200 multiproof_case (fun ((n, seed) as case) ->
      let _, _, t, _ = multiproof_world case in
      let i = seed mod n in
      List.sort compare (Merkle.multiprove t (Array.init n (( = ) i)))
      = List.sort compare (Merkle.prove t i))

let qcheck_multiproof_all =
  QCheck2.Test.make ~name:"merkle multiproof of every leaf is empty"
    ~count:100 multiproof_case (fun ((n, _) as case) ->
      let _, leaves, t, wanted = multiproof_world ~density:1.0 case in
      let proof = Merkle.multiprove t wanted in
      proof = [] && multiverify t ~wanted leaves proof = Some (n - 1))

(* Every tampering that applies to the case is rejected: a flipped bit
   in a wanted leaf, a wanted leaf dropped or one added, a flipped digest
   bit, a dropped, appended or swapped digest, and a leaf count off by
   one. *)
let qcheck_multiproof_rejects =
  QCheck2.Test.make ~name:"merkle multiproof rejects tampering" ~count:200
    multiproof_case (fun case ->
      let rng, leaves, t, wanted = multiproof_world case in
      let n = Array.length wanted in
      let wanted_leaves = List.filteri (fun i _ -> wanted.(i)) leaves in
      let proof = Array.of_list (Merkle.multiprove t wanted) in
      let k = Array.length proof in
      let flip s =
        let b = Bytes.of_string s in
        let i = Sdds_util.Rng.int rng (Bytes.length b) in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 1);
        Bytes.to_string b
      in
      let verify ?(leaf_count = n) ?(leaves = wanted_leaves) proof =
        Merkle.multiverify ~root:(Merkle.root t) ~leaf_count ~wanted ~leaves
          (Array.to_list proof)
      in
      let cases =
        (match List.length wanted_leaves with
        | 0 -> []
        | w ->
            let v = Sdds_util.Rng.int rng w in
            [ ( "flipped wanted leaf",
                verify
                  ~leaves:
                    (List.mapi
                       (fun i l -> if i = v then flip l else l)
                       wanted_leaves)
                  proof );
              ( "dropped leaf",
                verify ~leaves:(List.filteri (fun i _ -> i <> v) wanted_leaves)
                  proof ) ])
        @ (if k = 0 then []
           else
             let j = Sdds_util.Rng.int rng k in
             let p = Array.copy proof in
             p.(j) <- flip p.(j);
             [ ("flipped digest", verify p);
               ( "dropped digest",
                 verify
                   (Array.append (Array.sub proof 0 j)
                      (Array.sub proof (j + 1) (k - j - 1))) ) ])
        @ (if k < 2 then []
           else
             let a = Sdds_util.Rng.int rng k in
             let b = (a + 1 + Sdds_util.Rng.int rng (k - 1)) mod k in
             let p = Array.copy proof in
             p.(a) <- proof.(b);
             p.(b) <- proof.(a);
             [ ("swapped digests", verify p) ])
        @ [ ( "appended digest",
              verify (Array.append proof [| Sdds_util.Rng.bytes rng 32 |]) );
            ("added leaf", verify ~leaves:(wanted_leaves @ [ "extra" ]) proof);
            ("leaf count - 1", verify ~leaf_count:(n - 1) proof);
            ("leaf count + 1", verify ~leaf_count:(n + 1) proof) ]
      in
      List.iter
        (fun (what, r) ->
          if r <> None then
            QCheck2.Test.fail_reportf "n=%d, %d digests: %s accepted" n k what)
        cases;
      true)

(* The card's per-request check: 64 leaves, 48 wanted. Each leaf and
   node hash allocates only its digest: 923 words in all, 10,788 when
   every hash concatenated its parts first and fed the kernel a fresh
   block buffer. *)
let test_multiverify_allocation () =
  let leaves =
    List.init 64 (fun i -> Printf.sprintf "leaf-%d-%s" i (String.make 200 'c'))
  in
  let t = Merkle.build leaves in
  let wanted = Array.init 64 (fun i -> i mod 4 <> 3) in
  let proof = Merkle.multiprove t wanted in
  let ok = ref None in
  let w = words (fun () -> ok := multiverify t ~wanted leaves proof) in
  Alcotest.(check bool) "verifies" true (!ok <> None);
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words < 1000" w) true
    (w < 1000.)

(* ------------------------------------------------------------------ *)
(* Bignum                                                              *)
(* ------------------------------------------------------------------ *)

let bn = Bignum.of_int

let test_bignum_basic () =
  Alcotest.(check bool) "zero" true (Bignum.is_zero Bignum.zero);
  Alcotest.(check (option int)) "to_int" (Some 123456789)
    (Bignum.to_int_opt (bn 123456789));
  Alcotest.(check int) "bit_length 0" 0 (Bignum.bit_length Bignum.zero);
  Alcotest.(check int) "bit_length 1" 1 (Bignum.bit_length Bignum.one);
  Alcotest.(check int) "bit_length 255" 8 (Bignum.bit_length (bn 255));
  Alcotest.(check int) "bit_length 256" 9 (Bignum.bit_length (bn 256))

let qcheck_bignum_arith =
  QCheck2.Test.make ~name:"bignum matches int arithmetic" ~count:500
    QCheck2.Gen.(pair (int_bound (1 lsl 30)) (int_bound (1 lsl 30)))
    (fun (a, b) ->
      let ba = bn a and bb = bn b in
      Bignum.to_int_opt (Bignum.add ba bb) = Some (a + b)
      && Bignum.to_int_opt (Bignum.mul ba bb) = Some (a * b)
      && (b = 0
         ||
         let q, r = Bignum.divmod ba bb in
         Bignum.to_int_opt q = Some (a / b) && Bignum.to_int_opt r = Some (a mod b))
      && (a < b || Bignum.to_int_opt (Bignum.sub ba bb) = Some (a - b)))

(* Operands of 1 to 40 limbs (base 2^26), most limbs drawn from the edge
   values where Algorithm D's quotient estimate goes wrong: uniform limbs
   almost never reach its add-back step. Built with shift_left, add and
   of_int so the check does not lean on of_bytes_be. *)
let limbs_gen =
  let open QCheck2.Gen in
  let edge =
    [ 0; 1; (1 lsl 25) - 1; 1 lsl 25; (1 lsl 26) - 2; (1 lsl 26) - 1 ]
  in
  list_size (1 -- 40)
    (frequency [ (3, oneofl edge); (1, int_bound ((1 lsl 26) - 1)) ])

let of_limbs =
  List.fold_left
    (fun acc l -> Bignum.add (Bignum.shift_left acc 26) (bn l))
    Bignum.zero

let divides_exactly a b =
  let q, r = Bignum.divmod a b in
  Bignum.equal (Bignum.add (Bignum.mul q b) r) a && Bignum.compare r b < 0

let qcheck_bignum_divmod_limbs =
  QCheck2.Test.make ~name:"bignum divmod over 1-40 limbs" ~count:2000
    QCheck2.Gen.(pair limbs_gen limbs_gen)
    (fun (a, b) ->
      let a = of_limbs a and b = of_limbs b in
      Bignum.is_zero b || divides_exactly a b)

let test_bignum_divmod_add_back () =
  (* a = (2^25-1)*2^52, b = 2^52+1. Normalized, the divisor's middle limb
     is 0, so the two-limb test cannot lower the first quotient estimate
     0x1ffffff, which is one too large: this pair takes the add-back
     step. *)
  let a = Bignum.of_hex "1ffffff0000000000000"
  and b = Bignum.of_hex "10000000000001" in
  let q, r = Bignum.divmod a b in
  Alcotest.(check string) "quotient" "01fffffe" (Bignum.to_hex q);
  Alcotest.(check string) "remainder" "0ffffffe000002" (Bignum.to_hex r);
  Alcotest.(check bool) "a = q*b + r, r < b" true (divides_exactly a b)

let test_bignum_large_mul () =
  (* (2^200 - 1) * (2^200 + 1) = 2^400 - 1 *)
  let p200 = Bignum.shift_left Bignum.one 200 in
  let a = Bignum.sub p200 Bignum.one and b = Bignum.add p200 Bignum.one in
  let want = Bignum.sub (Bignum.shift_left Bignum.one 400) Bignum.one in
  Alcotest.(check bool) "product" true (Bignum.equal (Bignum.mul a b) want)

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "0123456789abcdef00ff" in
  Alcotest.(check string) "to_hex" "0123456789abcdef00ff" (Bignum.to_hex v);
  Alcotest.(check bool) "roundtrip" true
    (Bignum.equal v (Bignum.of_bytes_be (Bignum.to_bytes_be v)));
  Alcotest.(check string) "padded"
    "000123456789abcdef00ff"
    (Sdds_util.Hex.encode (Bignum.to_bytes_be_padded v 11))

let qcheck_bignum_bytes_roundtrip =
  QCheck2.Test.make ~name:"bignum of_bytes_be/to_bytes_be roundtrip"
    ~count:500
    QCheck2.Gen.(pair (0 -- 4) (string_size (0 -- 80)))
    (fun (zeros, s) ->
      let v = Bignum.of_bytes_be (String.make zeros '\000' ^ s) in
      let minimal = Bignum.to_bytes_be v in
      Bignum.to_bytes_be_padded v (String.length s) = s
      && (minimal = "" || minimal.[0] <> '\000'))

let naive_modpow b e m =
  let rec go acc i = if i = 0 then acc else go (acc * b mod m) (i - 1) in
  go 1 e

let test_bignum_modpow () =
  (* 3^100 is 1 mod 1000 (order divides 100), a nice degenerate case. *)
  Alcotest.(check (option int)) "3^200 mod 1000"
    (Some (naive_modpow 3 200 1000))
    (Bignum.to_int_opt
       (Bignum.mod_pow ~base:(bn 3) ~exp:(bn 200) ~modulus:(bn 1000)));
  (* Fermat: 2^(p-1) mod p = 1 for prime p. *)
  let p = bn 1000003 in
  Alcotest.(check (option int)) "fermat" (Some 1)
    (Bignum.to_int_opt
       (Bignum.mod_pow ~base:(bn 2) ~exp:(bn 1000002) ~modulus:p))

let qcheck_bignum_modpow =
  QCheck2.Test.make ~name:"bignum mod_pow matches naive" ~count:200
    QCheck2.Gen.(triple (1 -- 1000) (0 -- 50) (2 -- 1000))
    (fun (b, e, m) ->
      Bignum.to_int_opt (Bignum.mod_pow ~base:(bn b) ~exp:(bn e) ~modulus:(bn m))
      = Some (naive_modpow b e m))

let test_bignum_mod_inverse () =
  (match Bignum.mod_inverse (bn 3) ~modulus:(bn 11) with
  | Some inv -> Alcotest.(check (option int)) "3^-1 mod 11" (Some 4) (Bignum.to_int_opt inv)
  | None -> Alcotest.fail "inverse exists");
  Alcotest.(check bool) "non-coprime" true
    (Bignum.mod_inverse (bn 4) ~modulus:(bn 8) = None)

let qcheck_bignum_mod_inverse =
  QCheck2.Test.make ~name:"bignum mod_inverse correct" ~count:200
    QCheck2.Gen.(pair (2 -- 10000) (2 -- 10000))
    (fun (a, m) ->
      match Bignum.mod_inverse (bn a) ~modulus:(bn m) with
      | None -> true (* checked separately *)
      | Some inv ->
          Bignum.to_int_opt (Bignum.rem (Bignum.mul (bn a) inv) (bn m))
          = Some 1)

let test_bignum_primality () =
  let drbg = Drbg.create ~seed:"prime-tests" in
  let prime p = Bignum.is_probable_prime drbg ~rounds:20 (bn p) in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p ^ " prime") true (prime p))
    [ 2; 3; 5; 97; 1009; 104729; 1000003 ];
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c ^ " composite") false (prime c))
    [ 1; 4; 100; 1001; 104730; 561; 41041 (* Carmichael numbers too *) ]

let test_generate_prime () =
  let drbg = Drbg.create ~seed:"genprime" in
  let p = Bignum.generate_prime drbg ~bits:64 in
  Alcotest.(check int) "exact width" 64 (Bignum.bit_length p);
  Alcotest.(check bool) "probably prime" true
    (Bignum.is_probable_prime drbg ~rounds:20 p)

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)
(* ------------------------------------------------------------------ *)

(* 512 bits: the smallest size that can both encrypt a 16-byte session key
   and sign a 32-byte digest under PKCS#1-style padding. *)
let keypair =
  lazy
    (let drbg = Drbg.create ~seed:"rsa-test-keys" in
     Rsa.generate drbg ~bits:512)

let test_rsa_roundtrip () =
  let kp = Lazy.force keypair in
  let drbg = Drbg.create ~seed:"rsa-enc" in
  List.iter
    (fun msg ->
      let c = Rsa.encrypt drbg kp.Rsa.public msg in
      Alcotest.(check (option string)) "roundtrip" (Some msg)
        (Rsa.decrypt kp.Rsa.secret c))
    [ ""; "k"; "sixteen byte key"; String.make 53 'x' ]

let test_rsa_too_long () =
  let kp = Lazy.force keypair in
  let drbg = Drbg.create ~seed:"rsa-enc2" in
  Alcotest.check_raises "too long"
    (Invalid_argument "Rsa: payload too long for modulus") (fun () ->
      ignore (Rsa.encrypt drbg kp.Rsa.public (String.make 54 'x')))

let test_rsa_wrong_key () =
  let kp = Lazy.force keypair in
  let drbg = Drbg.create ~seed:"other-keys" in
  let other = Rsa.generate drbg ~bits:256 in
  let c = Rsa.encrypt drbg kp.Rsa.public "secret" in
  (match Rsa.decrypt other.Rsa.secret c with
  | None -> ()
  | Some m -> Alcotest.(check bool) "garbled" true (m <> "secret"))

let test_rsa_randomized_encryption () =
  let kp = Lazy.force keypair in
  let drbg = Drbg.create ~seed:"rsa-enc3" in
  let c1 = Rsa.encrypt drbg kp.Rsa.public "msg" in
  let c2 = Rsa.encrypt drbg kp.Rsa.public "msg" in
  Alcotest.(check bool) "probabilistic" true (c1 <> c2)

let test_rsa_sign_verify () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp.Rsa.secret "the merkle root" in
  Alcotest.(check bool) "accepts" true
    (Rsa.verify kp.Rsa.public "the merkle root" ~signature:s);
  Alcotest.(check bool) "rejects other msg" false
    (Rsa.verify kp.Rsa.public "another root" ~signature:s);
  let tampered = Bytes.of_string s in
  Bytes.set_uint8 tampered 0 (Bytes.get_uint8 tampered 0 lxor 1);
  Alcotest.(check bool) "rejects tampered sig" false
    (Rsa.verify kp.Rsa.public "the merkle root"
       ~signature:(Bytes.to_string tampered));
  (* 32 bytes cannot hold a signature block: false, not an exception. *)
  let small = Rsa.generate (Drbg.create ~seed:"small-key") ~bits:256 in
  Alcotest.(check bool) "rejects on a small modulus" false
    (Rsa.verify small.Rsa.public "the merkle root"
       ~signature:(String.make (Rsa.modulus_bytes small.Rsa.public) '\x01'))

let test_rsa_rejects_loose_padding () =
  (* 00 01 01..01 00 || SHA-256(msg), raised to d: the right digest behind
     a padding string that is not all 0xff. A verifier that only looks for
     the first 0x00 separator accepts it. *)
  let kp = Lazy.force keypair in
  let sec = kp.Rsa.secret in
  let k = Rsa.modulus_bytes kp.Rsa.public in
  let block =
    "\x00\x01" ^ String.make (k - 3 - 32) '\x01' ^ "\x00"
    ^ Sha256.digest "forged"
  in
  let forged =
    Bignum.to_bytes_be_padded
      (Bignum.mod_pow ~base:(Bignum.of_bytes_be block) ~exp:sec.Rsa.d
         ~modulus:sec.Rsa.n)
      k
  in
  Alcotest.(check bool) "rejects" false
    (Rsa.verify kp.Rsa.public "forged" ~signature:forged);
  Alcotest.(check bool) "genuine accepted" true
    (Rsa.verify kp.Rsa.public "forged" ~signature:(Rsa.sign sec "forged"))

(* Byte-identity across kernel rewrites: the same DRBG stream must give the
   same primes, so the same modulus and signature, and the chunk format
   must not move. The expected values were computed with bit-serial
   division and byte-wise AES rounds, an independent implementation. *)
let test_rsa_pinned_identity () =
  let kp =
    Rsa.generate (Drbg.create ~seed:"perfbench-identities/pull-egate")
      ~bits:384
  in
  Alcotest.(check string) "modulus"
    "5ff7f9bfc188ee53f14483a533867d3a471790a182aacfbe41d9f66542770d31\
     291facb8a45ef55005095b004453525f"
    (Bignum.to_hex kp.Rsa.public.Rsa.n);
  let signature = Rsa.sign kp.Rsa.secret "sdds pinned message" in
  Alcotest.(check string) "signature"
    "0a3158cb0e62d068688849fa5c9e356d5f65fbf0246463303f2e169984ec4fa3\
     f8183ec394bfe5b758b000d1f34ea195"
    (Hex.encode signature);
  let before = Gc.minor_words () in
  let ok = Rsa.verify kp.Rsa.public "sdds pinned message" ~signature in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "verifies" true ok;
  Alcotest.(check bool)
    (Printf.sprintf "verify allocates %.0f minor words < 10000" words)
    true (words < 10_000.)

let test_chunk_pinned_identity () =
  let plain = String.init 128 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Alcotest.(check string) "ciphertext"
    "0df4ad05c253790616400c0afb971809bc1d1e5bb06ccd99da55b9ef40dd9c3e\
     3cc21315e43f89732b4eb91e9a7dfb5c82ce43fd64a1eb4af9c4f13a920e479b\
     d20bf34473623faff79db43fe41e2b2c948b8c966dc4b65a6c51fad8f5cfb14a\
     245d43617726cf071a386eba154315bf5da88323e23fd049df01d5e20a48a976\
     e9266e34ed8f942df2d87d91267c2734"
    (Hex.encode
       (Sdds_soe.Wire.encrypt_chunk
          ~key:(hex "000102030405060708090a0b0c0d0e0f")
          ~doc_id:"pinned-doc" ~index:3 plain))

(* The value is the first 16 hex digits of Python's
   hashlib.sha256(n || "|" || e), both big-endian and unpadded. *)
let test_rsa_fingerprint () =
  let kp = Lazy.force keypair in
  Alcotest.(check int) "16 hex chars" 16
    (String.length (Rsa.fingerprint kp.Rsa.public));
  Alcotest.(check string) "first 16 hex digits of SHA-256" "58663445f42db6da"
    (Rsa.fingerprint kp.Rsa.public)

let suite =
  [
    Alcotest.test_case "aes-128 FIPS vector" `Quick test_aes128_vector;
    Alcotest.test_case "aes-192 FIPS vector" `Quick test_aes192_vector;
    Alcotest.test_case "aes-256 FIPS vector" `Quick test_aes256_vector;
    Alcotest.test_case "aes bad key size" `Quick test_aes_bad_key_size;
    QCheck_alcotest.to_alcotest qcheck_aes_roundtrip;
    Alcotest.test_case "aes allocation" `Quick test_aes_allocation;
    Alcotest.test_case "cbc NIST first block" `Quick test_cbc_nist_first_block;
    Alcotest.test_case "cbc roundtrip lengths" `Quick
      test_cbc_roundtrip_various_lengths;
    Alcotest.test_case "cbc wrong iv" `Quick test_cbc_wrong_iv;
    Alcotest.test_case "cbc tampered" `Quick test_cbc_tampered;
    Alcotest.test_case "ctr NIST vector" `Quick test_ctr_nist_vector;
    QCheck_alcotest.to_alcotest qcheck_ctr_involutive;
    Alcotest.test_case "pkcs7" `Quick test_pkcs7;
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
    Alcotest.test_case "drbg advances" `Quick test_drbg_advances;
    Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed;
    Alcotest.test_case "merkle single" `Quick test_merkle_single;
    Alcotest.test_case "merkle all sizes" `Quick test_merkle_all_sizes;
    Alcotest.test_case "merkle rejects" `Quick test_merkle_rejects;
    Alcotest.test_case "merkle root sensitive" `Quick
      test_merkle_root_sensitive;
    QCheck_alcotest.to_alcotest qcheck_merkle;
    QCheck_alcotest.to_alcotest qcheck_multiproof_honest;
    QCheck_alcotest.to_alcotest qcheck_multiproof_one_leaf;
    QCheck_alcotest.to_alcotest qcheck_multiproof_all;
    QCheck_alcotest.to_alcotest qcheck_multiproof_rejects;
    Alcotest.test_case "bignum basic" `Quick test_bignum_basic;
    QCheck_alcotest.to_alcotest qcheck_bignum_arith;
    QCheck_alcotest.to_alcotest qcheck_bignum_divmod_limbs;
    Alcotest.test_case "bignum divmod add-back" `Quick
      test_bignum_divmod_add_back;
    Alcotest.test_case "bignum large mul" `Quick test_bignum_large_mul;
    Alcotest.test_case "bignum bytes roundtrip" `Quick
      test_bignum_bytes_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_bignum_bytes_roundtrip;
    Alcotest.test_case "bignum modpow" `Quick test_bignum_modpow;
    QCheck_alcotest.to_alcotest qcheck_bignum_modpow;
    Alcotest.test_case "bignum mod_inverse" `Quick test_bignum_mod_inverse;
    QCheck_alcotest.to_alcotest qcheck_bignum_mod_inverse;
    Alcotest.test_case "bignum primality" `Quick test_bignum_primality;
    Alcotest.test_case "bignum generate_prime" `Quick test_generate_prime;
    Alcotest.test_case "rsa roundtrip" `Quick test_rsa_roundtrip;
    Alcotest.test_case "rsa too long" `Quick test_rsa_too_long;
    Alcotest.test_case "rsa wrong key" `Quick test_rsa_wrong_key;
    Alcotest.test_case "rsa randomized" `Quick test_rsa_randomized_encryption;
    Alcotest.test_case "rsa sign/verify" `Quick test_rsa_sign_verify;
    Alcotest.test_case "rsa rejects loose padding" `Quick
      test_rsa_rejects_loose_padding;
    Alcotest.test_case "rsa pinned identity" `Quick test_rsa_pinned_identity;
    Alcotest.test_case "chunk pinned identity" `Quick
      test_chunk_pinned_identity;
    Alcotest.test_case "rsa fingerprint" `Quick test_rsa_fingerprint;
    Alcotest.test_case "sha256 padding boundaries" `Quick
      test_sha256_padding_boundaries;
    Alcotest.test_case "merkle pinned root" `Quick test_merkle_pinned_root;
    Alcotest.test_case "sha256 allocation" `Quick test_sha256_allocation;
    Alcotest.test_case "cbc into a buffer" `Quick test_cbc_into;
    Alcotest.test_case "multiverify allocation" `Quick
      test_multiverify_allocation;
  ]
