module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Proxy = Sdds_proxy.Proxy
module Rule = Sdds_core.Rule
module Oracle = Sdds_core.Oracle
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

let dom = Alcotest.testable Dom.pp Dom.equal
let dom_opt = Alcotest.(option dom)

(* A small world shared by the tests: a publisher, two users with cards,
   one hospital document, per-user policies. *)
type world = {
  store : Store.t;
  drbg : Drbg.t;
  doc : Dom.t;
  doc_key : string;
  publisher : Rsa.keypair;
  alice : Card.t;
  bob : Card.t;
}

let alice_rules =
  [ Rule.allow ~subject:"alice" "//patient"; Rule.deny ~subject:"alice" "//ssn" ]

let bob_rules = [ Rule.allow ~subject:"bob" "//admission" ]

(* RSA keygen is the slow part; share one set of identities across all
   test worlds. *)
let identities =
  lazy
    (let d = Drbg.create ~seed:"dsp-identities" in
     (Rsa.generate d ~bits:512, Rsa.generate d ~bits:512, Rsa.generate d ~bits:512))

let make_world ?(profile = Cost.modern) ?(patients = 6) () =
  let drbg = Drbg.create ~seed:"dsp-world" in
  let publisher, alice_kp, bob_kp = Lazy.force identities in
  let doc = Generator.hospital (Rng.create 31L) ~patients in
  let published, doc_key =
    Publish.publish drbg ~publisher ~doc_id:"hospital-1" doc
  in
  let store = Store.create () in
  Store.put_document store published;
  List.iter
    (fun (subject, rules, kp) ->
      Store.put_rules store ~doc_id:"hospital-1" ~subject
        (Publish.encrypt_rules_for drbg ~publisher ~doc_key
           ~doc_id:"hospital-1" ~subject rules);
      Store.put_grant store ~doc_id:"hospital-1" ~subject
        (Publish.grant drbg ~doc_key ~doc_id:"hospital-1"
           ~recipient:kp.Rsa.public))
    [ ("alice", alice_rules, alice_kp); ("bob", bob_rules, bob_kp) ];
  {
    store;
    drbg;
    doc;
    doc_key;
    publisher;
    alice = Card.create ~profile ~subject:"alice" alice_kp;
    bob = Card.create ~profile ~subject:"bob" bob_kp;
  }

let world = lazy (make_world ())

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

let test_publish_shape () =
  let w = Lazy.force world in
  match Store.get_document w.store "hospital-1" with
  | None -> Alcotest.fail "document missing"
  | Some p ->
      Alcotest.(check bool) "chunks" true (Array.length p.Publish.chunks > 4);
      Alcotest.(check int) "chunk plain size" Publish.default_chunk_bytes
        p.Publish.chunk_plain_bytes;
      (* Each ciphertext chunk is padded CBC: plain + 1..16 bytes. *)
      Array.iteri
        (fun i c ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d size" i)
            true
            (String.length c mod 16 = 0))
        p.Publish.chunks;
      (* Signature verifies. *)
      Alcotest.(check bool) "signature" true
        (Rsa.verify p.Publish.publisher
           (Sdds_soe.Wire.signed_root_message ~doc_id:"hospital-1"
              ~merkle_root:p.Publish.merkle_root
              ~plain_length:p.Publish.plain_length)
           ~signature:p.Publish.root_signature)

(* ------------------------------------------------------------------ *)
(* End-to-end pull                                                     *)
(* ------------------------------------------------------------------ *)

let test_pull_view_matches_oracle () =
  let w = Lazy.force world in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error e -> Alcotest.failf "query failed: %a" Proxy.pp_error e
  | Ok outcome ->
      Alcotest.check dom_opt "view = oracle"
        (Oracle.authorized_view ~rules:alice_rules w.doc)
        (Lazy.force outcome.Proxy.view);
      let r = outcome.Proxy.card_report in
      (* Alice's policy delivers most of the document, so nothing can be
         skipped — delivered data must be decrypted. *)
      Alcotest.(check bool) "time measured" true
        (r.Card.breakdown.Cost.total_ms > 0.0);
      Alcotest.(check bool) "xml produced" true (outcome.Proxy.xml <> None)

let test_narrow_policy_skips_chunks () =
  (* Bob only sees admissions: the large folder subtrees are proven
     irrelevant by their tag bitmaps and never transferred. *)
  let w = Lazy.force world in
  let proxy = Proxy.create ~store:w.store ~card:w.bob in
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error e -> Alcotest.failf "query failed: %a" Proxy.pp_error e
  | Ok outcome ->
      let r = outcome.Proxy.card_report in
      Alcotest.(check bool) "skipped some chunks" true
        (r.Card.chunks_consumed < r.Card.chunks_total);
      Alcotest.check dom_opt "bob view = oracle"
        (Oracle.authorized_view ~rules:bob_rules w.doc)
        (Lazy.force outcome.Proxy.view)

let test_pull_with_query () =
  let w = Lazy.force world in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  match
    Proxy.run proxy (Proxy.Request.make ~xpath:"//patient/name" "hospital-1")
  with
  | Error e -> Alcotest.failf "query failed: %a" Proxy.pp_error e
  | Ok outcome ->
      Alcotest.check dom_opt "query view = oracle"
        (Oracle.authorized_view ~rules:alice_rules
           ~query:(Sdds_xpath.Parser.parse "//patient/name")
           w.doc)
        (Lazy.force outcome.Proxy.view)

let test_per_subject_views_differ () =
  let w = Lazy.force world in
  let va =
    match Proxy.run (Proxy.create ~store:w.store ~card:w.alice) (Proxy.Request.make "hospital-1") with
    | Ok o -> Lazy.force o.Proxy.view
    | Error e -> Alcotest.failf "alice failed: %a" Proxy.pp_error e
  in
  let vb =
    match Proxy.run (Proxy.create ~store:w.store ~card:w.bob) (Proxy.Request.make "hospital-1") with
    | Ok o -> Lazy.force o.Proxy.view
    | Error e -> Alcotest.failf "bob failed: %a" Proxy.pp_error e
  in
  Alcotest.check dom_opt "bob = oracle"
    (Oracle.authorized_view ~rules:bob_rules w.doc)
    vb;
  Alcotest.(check bool) "views differ" true (va <> vb)

let test_unknown_document_and_missing_grants () =
  let w = Lazy.force world in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  (match Proxy.run proxy (Proxy.Request.make "nope") with
  | Error (Proxy.Unknown_document "nope") -> ()
  | _ -> Alcotest.fail "expected Unknown_document");
  (* A stranger with neither rules nor a grant: the rules are read
     first. *)
  let d = Drbg.create ~seed:"eve" in
  let eve = Card.create ~subject:"eve" (Rsa.generate d ~bits:512) in
  (match
     Proxy.run (Proxy.create ~store:w.store ~card:eve)
       (Proxy.Request.make "hospital-1")
   with
  | Error Proxy.No_rules -> ()
  | _ -> Alcotest.fail "expected No_rules");
  (* The stranger with a rule blob but no grant, on a world of its own:
     other cases mutate the shared one. *)
  let w = make_world () in
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"eve"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"eve"
       [ Rule.allow ~subject:"eve" "//patient" ]);
  match
    Proxy.run (Proxy.create ~store:w.store ~card:eve)
      (Proxy.Request.make "hospital-1")
  with
  | Error Proxy.No_grant -> ()
  | _ -> Alcotest.fail "expected No_grant"

let test_push_costs_more_transfer () =
  (* Needs a policy that actually skips (bob's): push then transfers
     chunks that pull would never fetch. *)
  let w = Lazy.force world in
  let proxy = Proxy.create ~store:w.store ~card:w.bob in
  let pull =
    match Proxy.run proxy (Proxy.Request.make "hospital-1") with
    | Ok o -> o.Proxy.card_report
    | Error e -> Alcotest.failf "pull failed: %a" Proxy.pp_error e
  in
  let push =
    match Proxy.run proxy (Proxy.Request.make ~delivery:`Push "hospital-1") with
    | Ok o -> o.Proxy.card_report
    | Error e -> Alcotest.failf "push failed: %a" Proxy.pp_error e
  in
  (* Push transfers every chunk; pull only the consumed ones. Decryption
     is the same for both. *)
  Alcotest.(check bool) "push transfers more" true
    (push.Card.breakdown.Cost.bytes_transferred
    > pull.Card.breakdown.Cost.bytes_transferred);
  Alcotest.(check int) "same decryption"
    pull.Card.breakdown.Cost.bytes_decrypted
    push.Card.breakdown.Cost.bytes_decrypted

(* ------------------------------------------------------------------ *)
(* Policy change without re-encryption                                 *)
(* ------------------------------------------------------------------ *)

let test_policy_update_no_reencryption () =
  let w = make_world () in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  let before = Option.get (Store.get_document w.store "hospital-1") in
  (* Tighten alice's policy: now she loses patient folders. *)
  let new_rules =
    [ Rule.allow ~subject:"alice" "//patient"; Rule.deny ~subject:"alice" "//folder";
      Rule.deny ~subject:"alice" "//ssn" ]
  in
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"alice" new_rules);
  let after = Option.get (Store.get_document w.store "hospital-1") in
  (* The encrypted document is byte-identical: no re-encryption, no key
     redistribution. *)
  Alcotest.(check bool) "chunks untouched" true
    (before.Publish.chunks = after.Publish.chunks);
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error e -> Alcotest.failf "query failed: %a" Proxy.pp_error e
  | Ok outcome ->
      Alcotest.check dom_opt "new policy enforced"
        (Oracle.authorized_view ~rules:new_rules w.doc)
        (Lazy.force outcome.Proxy.view)

(* ------------------------------------------------------------------ *)
(* Tamper detection (E9 behaviours)                                    *)
(* ------------------------------------------------------------------ *)

let consumed_chunk_attack tamper =
  (* Fresh world per attack; tampering targets chunk 1, which evaluation
     under alice's broad policy certainly consumes. *)
  let w = make_world () in
  tamper w.store;
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  Proxy.run proxy (Proxy.Request.make "hospital-1")

let expect_integrity = function
  | Error (Proxy.Card_error (Card.Integrity_failure _)) -> ()
  | Error e -> Alcotest.failf "expected integrity failure, got %a" Proxy.pp_error e
  | Ok _ -> Alcotest.fail "tampering went undetected"

let test_tamper_substitute_detected () =
  expect_integrity
    (consumed_chunk_attack (fun store ->
         Store.tamper_substitute store ~doc_id:"hospital-1" ~chunk:1
           (String.make 256 '\x42')))

let test_tamper_bitflip_detected () =
  expect_integrity
    (consumed_chunk_attack (fun store ->
         Store.tamper_flip_bit store ~doc_id:"hospital-1" ~chunk:2 ~bit:13))

let test_tamper_swap_detected () =
  expect_integrity
    (consumed_chunk_attack (fun store ->
         Store.tamper_swap store ~doc_id:"hospital-1" 1 2))

let test_tamper_truncate_detected () =
  let w = make_world () in
  let p = Option.get (Store.get_document w.store "hospital-1") in
  Store.tamper_truncate w.store ~doc_id:"hospital-1"
    ~keep_chunks:(Array.length p.Publish.chunks - 2);
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error (Proxy.Card_error (Card.Integrity_failure _)) -> ()
  | Error e -> Alcotest.failf "expected failure, got %a" Proxy.pp_error e
  | Ok _ -> Alcotest.fail "truncation went undetected"

(* ------------------------------------------------------------------ *)
(* RAM budget on the e-gate profile                                    *)
(* ------------------------------------------------------------------ *)

let test_egate_ram_budget_enforced () =
  (* The e-gate card has 1 KB: a modest evaluation fits, a rule explosion
     does not. *)
  let w = make_world ~profile:Cost.egate ~patients:3 () in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  (match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Ok o ->
      Alcotest.(check bool) "fits in 1KB" true
        (o.Proxy.card_report.Card.ram_peak_bytes <= 1024)
  | Error e -> Alcotest.failf "expected fit, got %a" Proxy.pp_error e);
  (* Hundreds of descendant rules with predicates blow the token stack. *)
  (* The rules must engage real tags — automata over tags absent from the
     document are discarded at the root by the skip index itself. *)
  let heavy =
    List.concat_map
      (fun i ->
        [ Rule.allow ~subject:"alice"
            (Printf.sprintf "//folder[label]//prescription[dosage>\"%d\"]" i) ])
      (List.init 120 Fun.id)
  in
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"alice" heavy);
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error (Proxy.Card_error (Card.Memory_exceeded _)) -> ()
  | Error e -> Alcotest.failf "expected memory error, got %a" Proxy.pp_error e
  | Ok o ->
      Alcotest.failf "expected memory exhaustion, peak=%d"
        o.Proxy.card_report.Card.ram_peak_bytes

let suite =
  [
    Alcotest.test_case "publish shape" `Quick test_publish_shape;
    Alcotest.test_case "pull view = oracle" `Quick test_pull_view_matches_oracle;
    Alcotest.test_case "pull with query" `Quick test_pull_with_query;
    Alcotest.test_case "narrow policy skips" `Quick
      test_narrow_policy_skips_chunks;
    Alcotest.test_case "per-subject views" `Quick test_per_subject_views_differ;
    Alcotest.test_case "unknown doc / no grant" `Quick
      test_unknown_document_and_missing_grants;
    Alcotest.test_case "push vs pull costs" `Quick test_push_costs_more_transfer;
    Alcotest.test_case "policy update without re-encryption" `Quick
      test_policy_update_no_reencryption;
    Alcotest.test_case "tamper: substitution" `Quick
      test_tamper_substitute_detected;
    Alcotest.test_case "tamper: bit flip" `Quick test_tamper_bitflip_detected;
    Alcotest.test_case "tamper: swap" `Quick test_tamper_swap_detected;
    Alcotest.test_case "tamper: truncation" `Quick
      test_tamper_truncate_detected;
    Alcotest.test_case "e-gate RAM budget" `Quick
      test_egate_ram_budget_enforced;
  ]

let test_protected_query_same_view () =
  let w = Lazy.force world in
  (* A value-predicate policy creates pending regions worth protecting. *)
  let rules =
    [ Rule.allow ~subject:"alice" {|//patient[age>"50"]|};
      Rule.deny ~subject:"alice" "//ssn" ]
  in
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"alice" rules);
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  let plain =
    match Proxy.run proxy (Proxy.Request.make "hospital-1") with
    | Ok o -> Lazy.force o.Proxy.view
    | Error e -> Alcotest.failf "plain failed: %a" Proxy.pp_error e
  in
  let protected_view =
    match Proxy.run proxy (Proxy.Request.make ~protect:true "hospital-1") with
    | Ok o -> Lazy.force o.Proxy.view
    | Error e -> Alcotest.failf "protected failed: %a" Proxy.pp_error e
  in
  Alcotest.check dom_opt "same view" plain protected_view;
  Alcotest.check dom_opt "= oracle"
    (Oracle.authorized_view ~rules w.doc)
    protected_view;
  (* Restore the shared world's policy for other tests. *)
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"alice" alice_rules)

let protected_suite =
  [ Alcotest.test_case "protected query same view" `Quick
      test_protected_query_same_view ]

(* ------------------------------------------------------------------ *)
(* Revocation                                                          *)
(* ------------------------------------------------------------------ *)

let test_lazy_revocation_is_not_enough () =
  let w = make_world () in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  (* First query installs the key on alice's card. *)
  (match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup failed: %a" Proxy.pp_error e);
  (* "Revoke" by dropping the grant only: a card already holding the key
     is unaffected — the cautionary half of the revocation story. *)
  Store.put_grant w.store ~doc_id:"hospital-1" ~subject:"alice" "";
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lazy revocation should not block: %a" Proxy.pp_error e

let test_rotation_revokes () =
  let w = make_world () in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  (match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup failed: %a" Proxy.pp_error e);
  (* Rotate the document key; re-grant bob but not alice. *)
  let published = Option.get (Store.get_document w.store "hospital-1") in
  let rotated, new_key =
    Publish.rotate w.drbg ~publisher:w.publisher ~old_key:w.doc_key published
  in
  Store.put_document w.store rotated;
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"bob"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:new_key ~doc_id:"hospital-1" ~subject:"bob" bob_rules);
  Store.put_grant w.store ~doc_id:"hospital-1" ~subject:"bob"
    (Publish.grant w.drbg ~doc_key:new_key ~doc_id:"hospital-1"
       ~recipient:(Card.public_key w.bob));
  Store.put_grant w.store ~doc_id:"hospital-1" ~subject:"alice" "";
  (* Alice's stale key no longer opens anything — and the failure names
     the cause, not a tampering false-positive. *)
  (match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error (Proxy.Card_error (Card.Stale_key _))
  | Error (Proxy.Card_error (Card.Bad_rules _)) ->
      (* (the rule blob was also re-keyed, whichever check fires first) *)
      ()
  | Error e -> Alcotest.failf "unexpected error: %a" Proxy.pp_error e
  | Ok _ -> Alcotest.fail "revoked alice still reads");
  (* Bob transitions to the new key transparently. *)
  let bob_proxy = Proxy.create ~store:w.store ~card:w.bob in
  match Proxy.run bob_proxy (Proxy.Request.make "hospital-1") with
  | Ok o ->
      Alcotest.check dom_opt "bob still reads"
        (Oracle.authorized_view ~rules:bob_rules w.doc)
        (Lazy.force o.Proxy.view)
  | Error e -> Alcotest.failf "bob failed after rotation: %a" Proxy.pp_error e

let revocation_suite =
  [
    Alcotest.test_case "lazy revocation is not enough" `Quick
      test_lazy_revocation_is_not_enough;
    Alcotest.test_case "rotation revokes" `Quick test_rotation_revokes;
  ]

let test_reader_cannot_self_escalate () =
  (* Alice holds the document key (she is an authorized reader), crafts a
     rule blob granting herself everything, and plants it on the DSP. The
     card rejects it: rule blobs must carry the publisher's signature. *)
  let w = make_world () in
  let d = Drbg.create ~seed:"mallory" in
  let alice_keys = Rsa.generate d ~bits:512 in
  let forged =
    Sdds_soe.Wire.encrypt_rules d ~key:w.doc_key ~doc_id:"hospital-1"
      ~subject:"alice" ~signer:alice_keys.Rsa.secret
      [ Rule.allow ~subject:"alice" "//*" ]
  in
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice" forged;
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error (Proxy.Card_error (Card.Bad_rules _)) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Proxy.pp_error e
  | Ok _ -> Alcotest.fail "self-escalation went through"

let authority_suite =
  [ Alcotest.test_case "reader cannot self-escalate" `Quick
      test_reader_cannot_self_escalate ]

let test_policy_rollback_rejected () =
  (* The DSP keeps a copy of the old (looser) policy and replays it after
     the publisher tightened it. The card's version high-water mark
     refuses the downgrade. *)
  let w = make_world () in
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  let loose_blob =
    Option.get (Store.get_rules w.store ~doc_id:"hospital-1" ~subject:"alice")
  in
  (* v1: tightened policy; the card enforces it. *)
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"alice" ~version:1
       [ Rule.allow ~subject:"alice" "//admission" ]);
  (match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "v1 failed: %a" Proxy.pp_error e);
  (* Replay v0. *)
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice" loose_blob;
  match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Error (Proxy.Card_error (Card.Replayed_rules { seen = 1; offered = 0 })) ->
      ()
  | Error e -> Alcotest.failf "unexpected error: %a" Proxy.pp_error e
  | Ok _ -> Alcotest.fail "rollback went through"

let rollback_suite =
  [ Alcotest.test_case "policy rollback rejected" `Quick
      test_policy_rollback_rejected ]

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let ok_io = function
  | Ok v -> v
  | Error e -> Alcotest.failf "store io: %s" (Sdds_dsp.Store_io.string_of_error e)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdds-test-%d" (Hashtbl.hash (Sys.time ())))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_store_roundtrip () =
  let w = make_world () in
  with_tmpdir (fun dir ->
      ok_io (Sdds_dsp.Store_io.save w.store ~dir);
      let loaded = ok_io (Sdds_dsp.Store_io.load ~dir) in
      Alcotest.(check (list string)) "documents" [ "hospital-1" ]
        (Store.list_documents loaded);
      (* A fresh card queries the reloaded store end to end. *)
      let _, alice_kp, _ = Lazy.force identities in
      let card = Card.create ~profile:Cost.modern ~subject:"alice" alice_kp in
      let proxy = Proxy.create ~store:loaded ~card in
      match Proxy.run proxy (Proxy.Request.make "hospital-1") with
      | Ok o ->
          Alcotest.check dom_opt "view survives persistence"
            (Oracle.authorized_view ~rules:alice_rules w.doc)
            (Lazy.force o.Proxy.view)
      | Error e -> Alcotest.failf "query failed: %a" Proxy.pp_error e)

let test_store_disk_tampering_detected () =
  let w = make_world () in
  with_tmpdir (fun dir ->
      ok_io (Sdds_dsp.Store_io.save w.store ~dir);
      (* Corrupt one document file on disk (flip a late byte, inside some
         chunk's ciphertext). *)
      let docs = Filename.concat dir "docs" in
      let file = Filename.concat docs (Sys.readdir docs).(0) in
      let ic = open_in_bin file in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string content in
      let i = Bytes.length b - 40 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0xff);
      let oc = open_out_bin file in
      output_bytes oc b;
      close_out oc;
      let loaded = ok_io (Sdds_dsp.Store_io.load ~dir) in
      let _, alice_kp, _ = Lazy.force identities in
      let card = Card.create ~profile:Cost.modern ~subject:"alice" alice_kp in
      let proxy = Proxy.create ~store:loaded ~card in
      match Proxy.run proxy (Proxy.Request.make "hospital-1") with
      | Error (Proxy.Card_error (Card.Integrity_failure _))
      | Error (Proxy.Card_error (Card.Stale_key _))
      | Error (Proxy.Card_error Card.Bad_signature)
      | Error (Proxy.Card_error (Card.Bad_rules _)) ->
          ()
      | Error e -> Alcotest.failf "unexpected error: %a" Proxy.pp_error e
      | Ok _ -> Alcotest.fail "disk tampering went undetected")

let test_keyfile_roundtrip () =
  let d = Drbg.create ~seed:"keyfile" in
  let kp = Rsa.generate d ~bits:512 in
  with_tmpdir (fun dir ->
      let sk = Filename.concat dir "id.sk" in
      let pk = Filename.concat dir "id.pk" in
      ok_io (Sdds_dsp.Store_io.Keyfile.save_keypair kp ~path:sk);
      ok_io (Sdds_dsp.Store_io.Keyfile.save_public kp.Rsa.public ~path:pk);
      let kp' = ok_io (Sdds_dsp.Store_io.Keyfile.load_keypair ~path:sk) in
      let pub' = ok_io (Sdds_dsp.Store_io.Keyfile.load_public ~path:pk) in
      Alcotest.(check bool) "public matches" true (pub' = kp.Rsa.public);
      Alcotest.(check bool) "keypair usable" true
        (let sig_ = Rsa.sign kp'.Rsa.secret "m" in
         Rsa.verify kp.Rsa.public "m" ~signature:sig_);
      (* Wrong magic rejected. *)
      match Sdds_dsp.Store_io.Keyfile.load_keypair ~path:pk with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected magic failure")

let persistence_suite =
  [
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "disk tampering detected" `Quick
      test_store_disk_tampering_detected;
    Alcotest.test_case "keyfile roundtrip" `Quick test_keyfile_roundtrip;
  ]

let test_protected_breakdown_consistent () =
  (* The protected report's transfer accounting must reflect the guarded
     stream, not the plain one. *)
  let w = make_world () in
  let rules = [ Rule.allow ~subject:"alice" {|//patient[age>"50"]|} ] in
  Store.put_rules w.store ~doc_id:"hospital-1" ~subject:"alice"
    (Publish.encrypt_rules_for w.drbg ~publisher:w.publisher
       ~doc_key:w.doc_key ~doc_id:"hospital-1" ~subject:"alice" rules);
  let proxy = Proxy.create ~store:w.store ~card:w.alice in
  (* Warm the card's prepared-evaluation cache so both measured runs pay
     identical setup costs and the deltas isolate the guarded stream. *)
  (match Proxy.run proxy (Proxy.Request.make "hospital-1") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm-up failed: %a" Proxy.pp_error e);
  let plain =
    match Proxy.run proxy (Proxy.Request.make "hospital-1") with
    | Ok o -> o.Proxy.card_report
    | Error e -> Alcotest.failf "plain failed: %a" Proxy.pp_error e
  in
  let prot =
    match Proxy.run proxy (Proxy.Request.make ~protect:true "hospital-1") with
    | Ok o -> o.Proxy.card_report
    | Error e -> Alcotest.failf "protected failed: %a" Proxy.pp_error e
  in
  (* Guarded streams are strictly larger (guard messages and key
     releases), and the byte delta must appear in the transfer
     accounting. *)
  Alcotest.(check bool) "guarded output larger" true
    (prot.Card.output_bytes > plain.Card.output_bytes);
  Alcotest.(check int) "bytes_transferred reflects the delta"
    (prot.Card.output_bytes - plain.Card.output_bytes)
    (prot.Card.breakdown.Cost.bytes_transferred
    - plain.Card.breakdown.Cost.bytes_transferred);
  Alcotest.(check bool) "time reflects the delta" true
    (prot.Card.breakdown.Cost.total_ms > plain.Card.breakdown.Cost.total_ms)

let protected_accounting_suite =
  [ Alcotest.test_case "protected breakdown consistent" `Quick
      test_protected_breakdown_consistent ]
