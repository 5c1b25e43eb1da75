module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Wire = Sdds_soe.Wire
module Rule = Sdds_core.Rule
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_transfer () =
  let m = Cost.meter Cost.egate in
  Cost.charge_transfer m ~bytes:2048;
  let b = Cost.read m in
  (* 2048 bytes at 2 KB/s is about a second, plus framing overhead. *)
  Alcotest.(check bool) "about 1s" true
    (b.Cost.transfer_ms > 1000.0 && b.Cost.transfer_ms < 1100.0);
  Alcotest.(check int) "frames" 9 b.Cost.apdu_frames;
  Alcotest.(check int) "bytes" 2048 b.Cost.bytes_transferred

let test_cost_decrypt () =
  let m = Cost.meter Cost.egate in
  Cost.charge_decrypt m ~bytes:160;
  let b = Cost.read m in
  Alcotest.(check (float 0.001) "10 blocks * 40us" 0.4 b.Cost.crypto_ms);
  Alcotest.(check int) "bytes decrypted" 160 b.Cost.bytes_decrypted

let test_cost_total_adds_up () =
  let m = Cost.meter Cost.modern in
  Cost.charge_transfer m ~bytes:1000;
  Cost.charge_decrypt m ~bytes:1000;
  Cost.charge_hash m ~bytes:1000;
  Cost.charge_events m ~events:100 ~tokens:500;
  Cost.charge_rsa m ~ops:1;
  let b = Cost.read m in
  Alcotest.(check (float 0.0001) "sum"
     (b.Cost.transfer_ms +. b.Cost.crypto_ms +. b.Cost.cpu_ms +. b.Cost.rsa_ms))
    b.Cost.total_ms;
  Alcotest.(check bool) "all positive" true
    (b.Cost.transfer_ms > 0.0 && b.Cost.crypto_ms > 0.0 && b.Cost.cpu_ms > 0.0)

let test_cost_zero_transfer () =
  let m = Cost.meter Cost.egate in
  Cost.charge_transfer m ~bytes:0;
  Alcotest.(check int) "no frames for empty" 0 (Cost.read m).Cost.apdu_frames

(* ------------------------------------------------------------------ *)
(* APDU                                                                *)
(* ------------------------------------------------------------------ *)

let test_apdu_command_roundtrip () =
  let c = { Apdu.cla = 0x80; ins = 0x20; p1 = 1; p2 = 2; data = "payload" } in
  Alcotest.(check bool) "roundtrip" true
    (Apdu.decode_command (Apdu.encode_command c) = Some c);
  Alcotest.(check (option reject)) "garbage" None
    (Apdu.decode_command "xx");
  Alcotest.check_raises "oversized data" (Invalid_argument "Apdu: data too long")
    (fun () ->
      ignore
        (Apdu.encode_command { c with Apdu.data = String.make 256 'x' }))

let test_apdu_response_roundtrip () =
  let r = { Apdu.sw1 = 0x90; sw2 = 0x00; payload = "result" } in
  Alcotest.(check bool) "roundtrip" true
    (Apdu.decode_response (Apdu.encode_response r) = Some r)

(* The byte counts the pool, the fleet's clocks and the host's histogram
   read: the encodings' lengths, with the encoders' range checks. *)
let test_apdu_byte_counts () =
  let c = { Apdu.cla = 0x81; ins = 0x20; p1 = 1; p2 = 255; data = "" } in
  let r = { Apdu.sw1 = 0x61; sw2 = 0x10; payload = "" } in
  List.iter
    (fun data ->
      let c = { c with Apdu.data } and r = { r with Apdu.payload = data } in
      Alcotest.(check int) "command" (String.length (Apdu.encode_command c))
        (Apdu.command_bytes c);
      Alcotest.(check int) "response" (String.length (Apdu.encode_response r))
        (Apdu.response_bytes r))
    [ ""; "x"; String.make 254 'a'; String.make 255 'b' ];
  Alcotest.(check int) "long response" 1002
    (Apdu.response_bytes { r with Apdu.payload = String.make 1000 'r' });
  let refuses what f =
    Alcotest.check_raises what (Invalid_argument ("Apdu: " ^ what)) (fun () ->
        ignore (f ()))
  in
  refuses "cla out of range" (fun () ->
      Apdu.command_bytes { c with Apdu.cla = 256 });
  refuses "ins out of range" (fun () ->
      Apdu.command_bytes { c with Apdu.ins = -1 });
  refuses "p1 out of range" (fun () ->
      Apdu.command_bytes { c with Apdu.p1 = 300 });
  refuses "p2 out of range" (fun () ->
      Apdu.command_bytes { c with Apdu.p2 = 256 });
  refuses "data too long" (fun () ->
      Apdu.command_bytes { c with Apdu.data = String.make 256 'x' });
  refuses "sw1 out of range" (fun () ->
      Apdu.response_bytes { r with Apdu.sw1 = 256 });
  refuses "sw2 out of range" (fun () ->
      Apdu.response_bytes { r with Apdu.sw2 = -1 })

let test_apdu_segmentation () =
  let payload = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let frames = Apdu.segment ~cla:0x80 ~ins:0x10 payload in
  Alcotest.(check int) "frame count" 4 (List.length frames);
  Alcotest.(check int) "matches frame_count" 4
    (Apdu.frame_count ~payload_bytes:1000);
  Alcotest.(check string) "reassembles" payload (Apdu.reassemble frames);
  (* Empty payload still needs one frame. *)
  let empty = Apdu.segment ~cla:0x80 ~ins:0x10 "" in
  Alcotest.(check int) "one frame" 1 (List.length empty);
  Alcotest.(check string) "empty roundtrip" "" (Apdu.reassemble empty)

let test_apdu_reassemble_errors () =
  let frames = Apdu.segment ~cla:0 ~ins:0 (String.make 600 'a') in
  (match Apdu.reassemble (List.tl frames) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bad sequence");
  match Apdu.reassemble [ List.hd frames ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected missing final"

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let drbg () = Drbg.create ~seed:"soe-tests"

let test_wire_chunk_roundtrip () =
  let d = drbg () in
  let key = Wire.fresh_doc_key d in
  let plain = "some chunk plaintext bytes" in
  let c0 = Wire.encrypt_chunk ~key ~doc_id:"doc" ~index:0 plain in
  let c1 = Wire.encrypt_chunk ~key ~doc_id:"doc" ~index:1 plain in
  Alcotest.(check bool) "per-position IVs differ" true (c0 <> c1);
  Alcotest.(check (option string)) "roundtrip" (Some plain)
    (Wire.decrypt_chunk ~key ~doc_id:"doc" ~index:0 c0);
  (* Moving a chunk to another index decrypts to garbage or fails. *)
  (match Wire.decrypt_chunk ~key ~doc_id:"doc" ~index:1 c0 with
  | None -> ()
  | Some p -> Alcotest.(check bool) "garbled" true (p <> plain))

let test_wire_key_wrapping () =
  let d = drbg () in
  let kp = Rsa.generate d ~bits:512 in
  let key = Wire.fresh_doc_key d in
  let wrapped = Wire.wrap_doc_key d kp.Rsa.public ~doc_id:"doc-1" key in
  Alcotest.(check (option string)) "unwrap" (Some key)
    (Wire.unwrap_doc_key kp.Rsa.secret ~doc_id:"doc-1" wrapped);
  Alcotest.(check (option string)) "wrong doc id" None
    (Wire.unwrap_doc_key kp.Rsa.secret ~doc_id:"doc-2" wrapped);
  let other = Rsa.generate d ~bits:512 in
  Alcotest.(check (option string)) "wrong key" None
    (Wire.unwrap_doc_key other.Rsa.secret ~doc_id:"doc-1" wrapped)

let wire_signer =
  lazy (Rsa.generate (Drbg.create ~seed:"wire-signer") ~bits:512)

let sample_rules =
  [
    Rule.allow ~subject:"alice" "//patient/name";
    Rule.deny ~subject:"alice" "//ssn";
    Rule.allow ~subject:"bob" {|//patient[age>"60"]|};
  ]

let test_wire_rules_roundtrip () =
  (match Wire.decode_rules (Wire.encode_rules sample_rules) with
  | Ok rules ->
      Alcotest.(check int) "count" 3 (List.length rules);
      Alcotest.(check bool) "equal" true
        (List.for_all2 Rule.equal sample_rules rules)
  | Error e -> Alcotest.fail e);
  match Wire.decode_rules "+, alice, //a\ngarbage line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected decode error"

let test_wire_rules_encrypted () =
  let d = drbg () in
  let signer = Lazy.force wire_signer in
  let key = Wire.fresh_doc_key d in
  let enc = Wire.encrypt_rules d ~key ~doc_id:"doc" ~subject:"alice"
      ~signer:signer.Rsa.secret in
  let dec ?(key = key) ?(doc_id = "doc") ?(subject = "alice")
      ?(publisher = signer.Rsa.public) blob =
    Wire.decrypt_rules ~key ~doc_id ~subject ~publisher blob
  in
  let blob = enc sample_rules in
  (match dec blob with
  | Ok (version, rules) ->
      Alcotest.(check int) "count" 3 (List.length rules);
      Alcotest.(check int) "default version" 0 version
  | Error e -> Alcotest.fail e);
  (* Tampered blob is rejected by the MAC. *)
  let tampered = Bytes.of_string blob in
  Bytes.set_uint8 tampered 20 (Bytes.get_uint8 tampered 20 lxor 1);
  (match dec (Bytes.to_string tampered) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected MAC failure");
  (* Wrong key is rejected. *)
  (match dec ~key:(Wire.fresh_doc_key d) blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected key failure");
  (* A blob signed for bob does not work for alice, nor for another doc. *)
  (match dec ~subject:"bob" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected subject-binding failure");
  (match dec ~doc_id:"other" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected doc-binding failure");
  (* A reader holding the doc key but not the publisher's private key
     cannot mint an acceptable policy. *)
  let forger = Rsa.generate d ~bits:512 in
  let forged =
    Wire.encrypt_rules d ~key ~doc_id:"doc" ~subject:"alice"
      ~signer:forger.Rsa.secret
      [ Rule.allow ~subject:"alice" "//*" ]
  in
  match dec forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected authority failure"

let suite =
  [
    Alcotest.test_case "cost transfer" `Quick test_cost_transfer;
    Alcotest.test_case "cost decrypt" `Quick test_cost_decrypt;
    Alcotest.test_case "cost totals" `Quick test_cost_total_adds_up;
    Alcotest.test_case "cost zero transfer" `Quick test_cost_zero_transfer;
    Alcotest.test_case "apdu command roundtrip" `Quick
      test_apdu_command_roundtrip;
    Alcotest.test_case "apdu response roundtrip" `Quick
      test_apdu_response_roundtrip;
    Alcotest.test_case "apdu byte counts" `Quick test_apdu_byte_counts;
    Alcotest.test_case "apdu segmentation" `Quick test_apdu_segmentation;
    Alcotest.test_case "apdu reassemble errors" `Quick
      test_apdu_reassemble_errors;
    Alcotest.test_case "wire chunk roundtrip" `Quick test_wire_chunk_roundtrip;
    Alcotest.test_case "wire key wrapping" `Quick test_wire_key_wrapping;
    Alcotest.test_case "wire rules roundtrip" `Quick test_wire_rules_roundtrip;
    Alcotest.test_case "wire rules encrypted" `Quick
      test_wire_rules_encrypted;
  ]

let test_transfer_cost_matches_meter () =
  List.iter
    (fun bytes ->
      let m = Cost.meter Cost.egate in
      Cost.charge_transfer m ~bytes;
      let b = Cost.read m in
      let ms, frames = Cost.transfer_cost Cost.egate ~bytes in
      Alcotest.(check (float 0.0001)) "ms" b.Cost.transfer_ms ms;
      Alcotest.(check int) "frames" b.Cost.apdu_frames frames)
    [ 0; 1; 255; 256; 1000; 10_000 ]

let cost_suite_extra =
  [ Alcotest.test_case "transfer_cost = charge_transfer" `Quick
      test_transfer_cost_matches_meter ]
