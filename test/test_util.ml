module Varint = Sdds_util.Varint
module Fnv = Sdds_util.Fnv
module Bitset = Sdds_util.Bitset
module Hex = Sdds_util.Hex
module Rng = Sdds_util.Rng

let check = Alcotest.(check int)

let varint_roundtrip n =
  let buf = Buffer.create 8 in
  Varint.write buf n;
  let s = Buffer.contents buf in
  let v, pos = Varint.read s 0 in
  Alcotest.(check int) "value" n v;
  Alcotest.(check int) "consumed" (String.length s) pos;
  Alcotest.(check int) "size" (String.length s) (Varint.size n)

let test_varint_basic () =
  List.iter varint_roundtrip [ 0; 1; 127; 128; 255; 300; 16384; 1 lsl 30 ]

let test_varint_boundaries () =
  varint_roundtrip max_int;
  check "1 byte" 1 (Varint.size 127);
  check "2 bytes" 2 (Varint.size 128);
  check "2 bytes" 2 (Varint.size 16383);
  check "3 bytes" 3 (Varint.size 16384)

let test_varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative")
    (fun () -> Varint.write (Buffer.create 4) (-1))

let test_varint_truncated () =
  (* A continuation byte with nothing after it. *)
  (try
     ignore (Varint.read "\x80" 0);
     Alcotest.fail "expected exception"
   with Invalid_argument _ -> ())

let test_varint_write_bytes () =
  let b = Bytes.make 8 'x' in
  let next = Varint.write_bytes b 1 300 in
  Alcotest.(check int) "offset" (1 + Varint.size 300) next;
  let v, _ = Varint.read (Bytes.to_string b) 1 in
  check "value" 300 v

let test_varint_concat () =
  let buf = Buffer.create 16 in
  List.iter (Varint.write buf) [ 5; 1000; 0; 77777 ];
  let s = Buffer.contents buf in
  let v1, p = Varint.read s 0 in
  let v2, p = Varint.read s p in
  let v3, p = Varint.read s p in
  let v4, p = Varint.read s p in
  Alcotest.(check (list int)) "values" [ 5; 1000; 0; 77777 ] [ v1; v2; v3; v4 ];
  check "consumed all" (String.length s) p

(* The cursor form reads what [read] reads, leaves the cursor where [read]
   returns, allocates nothing, and leaves the cursor alone on an error. *)
let test_varint_next () =
  let buf = Buffer.create 16 in
  List.iter (Varint.write buf) [ 5; 1000; 0; max_int ];
  Buffer.add_string buf "\x80\x00";
  let s = Buffer.contents buf in
  let pos = ref 0 in
  let before = Gc.minor_words () in
  let v1 = Varint.next s pos in
  let v2 = Varint.next s pos in
  let v3 = Varint.next s pos in
  let v4 = Varint.next s pos in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list int))
    "values" [ 5; 1000; 0; max_int ] [ v1; v2; v3; v4 ];
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for four reads" words)
    true (words < 8.0);
  let at = !pos in
  check "non-canonical zero" 0 (Varint.next s pos);
  check "consumed all" (String.length s) !pos;
  Alcotest.(check (pair int int)) "= read" (Varint.read s at) (0, !pos);
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated")
    (fun () -> ignore (Varint.next "\x80" (ref 0)));
  let pos = ref 1 in
  Alcotest.check_raises "overflow" (Invalid_argument "Varint.read: overflow")
    (fun () -> ignore (Varint.next ("\x00" ^ String.make 10 '\xff') pos));
  check "unmoved on error" 1 !pos

let qcheck_varint =
  QCheck2.Test.make ~name:"varint roundtrip" ~count:500
    QCheck2.Gen.(map abs int)
    (fun n ->
      let buf = Buffer.create 8 in
      Varint.write buf n;
      fst (Varint.read (Buffer.contents buf) 0) = n)

let test_bitset_basic () =
  let b = Bitset.create 20 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 7;
  Bitset.set b 19;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 1" false (Bitset.mem b 1);
  Alcotest.(check bool) "mem 19" true (Bitset.mem b 19);
  check "cardinal" 3 (Bitset.cardinal b);
  Bitset.clear b 7;
  check "cardinal after clear" 2 (Bitset.cardinal b);
  Alcotest.(check (list int)) "elements" [ 0; 19 ] (Bitset.elements b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 8)

let test_bitset_set_ops () =
  let a = Bitset.of_list 16 [ 1; 3; 5 ] in
  let b = Bitset.of_list 16 [ 3; 5; 9 ] in
  let i = Bitset.inter a b in
  Alcotest.(check (list int)) "inter" [ 3; 5 ] (Bitset.elements i);
  Alcotest.(check bool) "subset yes" true (Bitset.subset i a);
  Alcotest.(check bool) "subset no" false (Bitset.subset a b);
  let u = Bitset.copy a in
  Bitset.union_into u b;
  Alcotest.(check (list int)) "union" [ 1; 3; 5; 9 ] (Bitset.elements u)

let test_bitset_project_inject () =
  let parent = Bitset.of_list 32 [ 2; 5; 11; 30 ] in
  let sub = Bitset.of_list 32 [ 5; 30 ] in
  let packed = Bitset.project ~parent sub in
  check "packed capacity" 4 (Bitset.capacity packed);
  Alcotest.(check (list int)) "packed bits" [ 1; 3 ] (Bitset.elements packed);
  let buf = Buffer.create 1 in
  Bitset.encode buf packed;
  (* The target starts full of other members: injection overwrites it. *)
  let back = Bitset.of_list 32 [ 0; 2; 11; 31 ] in
  let next = Bitset.inject_into back ~parent (Buffer.contents buf ^ "!") 0 in
  check "consumed" 1 next;
  Alcotest.(check bool) "roundtrip" true (Bitset.equal back sub);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.inject_into (Bitset.create 8) ~parent "\x00" 0));
  Alcotest.check_raises "truncated"
    (Invalid_argument "Bitset: truncated encoding") (fun () ->
      ignore (Bitset.inject_into back ~parent "" 0))

let test_bitset_project_not_subset () =
  let parent = Bitset.of_list 8 [ 1 ] in
  let sub = Bitset.of_list 8 [ 2 ] in
  Alcotest.check_raises "not a subset"
    (Invalid_argument "Bitset.project: not a subset") (fun () ->
      ignore (Bitset.project ~parent sub))

let test_bitset_encode_decode () =
  let b = Bitset.of_list 19 [ 0; 8; 18 ] in
  let buf = Buffer.create 4 in
  Bitset.encode buf b;
  Alcotest.(check int) "encoded size" (Bitset.encoded_size ~capacity:19)
    (Buffer.length buf);
  let decoded = Bitset.of_list 19 [ 1; 2; 3 ] in
  let next = Bitset.decode_into decoded ("#" ^ Buffer.contents buf) 1 in
  Alcotest.(check bool) "equal" true (Bitset.equal decoded b);
  check "next" (Buffer.length buf + 1) next;
  (* Padding past the capacity is not a member. *)
  let padded = Bitset.create 19 in
  ignore (Bitset.decode_into padded "\xff\xff\xff" 0);
  check "padding dropped" 19 (Bitset.cardinal padded);
  Alcotest.check_raises "truncated"
    (Invalid_argument "Bitset: truncated encoding") (fun () ->
      ignore (Bitset.decode_into padded "\xff\xff" 0))

let qcheck_bitset_project =
  QCheck2.Test.make ~name:"bitset project/inject roundtrip" ~count:300
    QCheck2.Gen.(
      let* cap = 1 -- 64 in
      let* parent = list_size (0 -- cap) (0 -- (cap - 1)) in
      let* mask = list_size (return (List.length parent)) bool in
      return (cap, parent, mask))
    (fun (cap, parent_l, mask) ->
      let parent = Bitset.of_list cap parent_l in
      let sub_l =
        List.filteri (fun i _ -> List.nth mask i) (Bitset.elements parent)
      in
      let sub = Bitset.of_list cap sub_l in
      let packed = Bitset.project ~parent sub in
      let buf = Buffer.create 8 in
      Bitset.encode buf packed;
      let back = Bitset.create cap in
      let next = Bitset.inject_into back ~parent (Buffer.contents buf) 0 in
      next = Buffer.length buf && Bitset.equal back sub)

let test_hex () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00FF10");
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"))

let qcheck_hex =
  QCheck2.Test.make ~name:"hex roundtrip" ~count:300 QCheck2.Gen.string
    (fun s -> Hex.decode (Hex.encode s) = s)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let x = Rng.int64 a and y = Rng.int64 b in
  Alcotest.(check bool) "different streams" true (x <> y)

let test_rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.0 in
    Alcotest.(check bool) "float range" true (v >= 0.0 && v < 2.0)
  done

let test_rng_pick_weighted () =
  let rng = Rng.create 1L in
  let seen_a = ref false and seen_b = ref false in
  for _ = 1 to 200 do
    match Rng.pick_weighted rng [| (1, `A); (3, `B); (0, `C) |] with
    | `A -> seen_a := true
    | `B -> seen_b := true
    | `C -> Alcotest.fail "zero-weight choice picked"
  done;
  Alcotest.(check bool) "a seen" true !seen_a;
  Alcotest.(check bool) "b seen" true !seen_b

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5L in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* FNV-1a 64: three subsystems (the fleet ring, the dissemination
   clusterer, the protocol checker's visited set) agree on this hash, so
   pin it to the published reference vectors, not just to itself. *)
let test_fnv_reference_vectors () =
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" input)
        expect
        (Fnv.to_hex (Fnv.fnv1a64 input)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("b", "af63df4c8601f1a5");
      ("c", "af63de4c8601eff2");
      ("foobar", "85944171f73967e8");
      ("hello world", "779a65e7023cd2e7");
      ("chongo was here!\n", "46810940eff5f915");
    ]

let test_fnv_incremental_matches_one_shot () =
  let s = "the quick brown fox jumps over the lazy dog" in
  Alcotest.(check string)
    "feed seed = fnv1a64"
    (Fnv.to_hex (Fnv.fnv1a64 s))
    (Fnv.to_hex (Fnv.feed Fnv.seed s));
  let by_char =
    String.fold_left (fun h c -> Fnv.feed_char h c) Fnv.seed s
  in
  Alcotest.(check string)
    "char-at-a-time = one-shot"
    (Fnv.to_hex (Fnv.fnv1a64 s))
    (Fnv.to_hex by_char)

(* The fleet hashes every request's rule blob: the fold boxes no [Int64]
   per byte. *)
let test_fnv_allocation () =
  let rng = Rng.create 4L in
  let s = Rng.bytes rng 4096 in
  ignore (Fnv.fnv1a64 s);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Fnv.fnv1a64 s));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 4 KB < 8" words)
    true (words < 8.0)

(* Splitting the input anywhere and feeding the pieces in order gives
   the hash of the concatenation: the property streaming callers rely
   on. *)
let qcheck_fnv_split_equivalence =
  QCheck2.Test.make ~name:"fnv: feed (feed seed a) b = fnv1a64 (a ^ b)"
    ~count:500
    QCheck2.Gen.(pair (string_size (int_bound 64)) (string_size (int_bound 64)))
    (fun (a, b) ->
      Fnv.feed (Fnv.feed Fnv.seed a) b = Fnv.fnv1a64 (a ^ b))

let suite =
  [
    Alcotest.test_case "varint basic" `Quick test_varint_basic;
    Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
    Alcotest.test_case "varint negative" `Quick test_varint_negative;
    Alcotest.test_case "varint truncated" `Quick test_varint_truncated;
    Alcotest.test_case "varint write_bytes" `Quick test_varint_write_bytes;
    Alcotest.test_case "varint concat" `Quick test_varint_concat;
    Alcotest.test_case "varint next = read, no allocation" `Quick
      test_varint_next;
    QCheck_alcotest.to_alcotest qcheck_varint;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset set ops" `Quick test_bitset_set_ops;
    Alcotest.test_case "bitset project/inject" `Quick test_bitset_project_inject;
    Alcotest.test_case "bitset project not subset" `Quick
      test_bitset_project_not_subset;
    Alcotest.test_case "bitset encode/decode" `Quick test_bitset_encode_decode;
    QCheck_alcotest.to_alcotest qcheck_bitset_project;
    Alcotest.test_case "hex" `Quick test_hex;
    QCheck_alcotest.to_alcotest qcheck_hex;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng pick_weighted" `Quick test_rng_pick_weighted;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "fnv reference vectors" `Quick
      test_fnv_reference_vectors;
    Alcotest.test_case "fnv incremental = one-shot" `Quick
      test_fnv_incremental_matches_one_shot;
    Alcotest.test_case "fnv over 4 KB allocates < 8 words" `Quick
      test_fnv_allocation;
    QCheck_alcotest.to_alcotest qcheck_fnv_split_equivalence;
  ]
