(* The card's two entry points run one per-document path: the root
   signature, the chunk decryption, the Merkle multiproof check and the
   rule blob. Each failure of that path must read the same through
   [Card.evaluate] and [Card.disseminate]. The pins at the end record the
   simulated accounting of both, so a change to the path cannot move a
   figure unnoticed. *)

module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Wire = Sdds_soe.Wire
module World = Sdds_proxy.World
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Generator = Sdds_xml.Generator
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Aes = Sdds_crypto.Aes
module Rng = Sdds_util.Rng

let keys =
  lazy
    (let d = Drbg.create ~seed:"card-keys" in
     let publisher = Rsa.generate d ~bits:512 in
     (publisher, Rsa.generate d ~bits:512))

let ward_rules ~subject =
  [ Rule.allow ~subject "//patient"; Rule.deny ~subject "//ssn" ]

(* A fresh world per case, because tampering mutates its store. At
   64-byte chunks the one-patient ward is 8 chunks. *)
let ward () =
  let publisher, user = Lazy.force keys in
  World.create (Drbg.create ~seed:"card-ward") ~publisher ~user
    ~chunk_bytes:64
    [ ("ward", Generator.hospital (Rng.create 5L) ~patients:1,
       ward_rules ~subject:"u") ]

let blob ?version w ~doc_id ~subject rules =
  Publish.encrypt_rules_for (World.drbg w) ~publisher:(World.publisher w)
    ~doc_key:(World.doc_key w doc_id) ~doc_id ~subject ?version rules

let card ~profile w ~doc_id =
  let c = Card.create ~profile ~subject:"u" (World.user w) in
  let wrapped =
    Option.get (Store.get_grant (World.store w) ~doc_id ~subject:"u")
  in
  (match Card.install_wrapped_key c ~doc_id ~wrapped with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grant: %a" Card.pp_error e);
  c

let source ?(delivery = `Pull) w ~doc_id =
  Publish.to_source
    (Option.get (Store.get_document (World.store w) doc_id))
    ~delivery

let error = Alcotest.testable Card.pp_error ( = )
let verdict = Alcotest.result Alcotest.unit error

(* Subscriber "u"'s verdict through both entry points, each on a fresh
   card holding the key: evaluate with [rules_for_u], and a disseminate
   that also serves "v" a good blob. A failure of the per-document path
   fails the whole publish; a failure of "u"'s blob rejects "u" alone. *)
let both ?src ?rules_for_u w =
  let src = match src with Some s -> s | None -> source w ~doc_id:"ward" in
  let blob_u =
    match rules_for_u with
    | Some b -> b
    | None ->
        Option.get
          (Store.get_rules (World.store w) ~doc_id:"ward" ~subject:"u")
  in
  let blob_v = blob w ~doc_id:"ward" ~subject:"v" (ward_rules ~subject:"v") in
  let fresh () = card ~profile:Cost.fleet w ~doc_id:"ward" in
  let e =
    Result.map ignore (Card.evaluate (fresh ()) src ~encrypted_rules:blob_u ())
  in
  let d =
    match
      Card.disseminate (fresh ()) src
        ~subscribers:[ ("u", blob_u); ("v", blob_v) ] ()
    with
    | Error e -> Error e
    | Ok (results, _) ->
        (match List.assoc "v" results with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "v rejected: %a" Card.pp_error e);
        Result.map ignore (List.assoc "u" results)
  in
  (e, d)

let expect ?src ?rules_for_u w want =
  let e, d = both ?src ?rules_for_u w in
  Alcotest.check verdict "evaluate" (Error want) e;
  Alcotest.check verdict "disseminate" (Error want) d

let test_forged_root () =
  let w = ward () in
  let src = source w ~doc_id:"ward" in
  let _, user = Lazy.force keys in
  let forged =
    Rsa.sign user.Rsa.secret
      (Wire.signed_root_message ~doc_id:"ward"
         ~merkle_root:src.Card.merkle_root
         ~plain_length:src.Card.plain_length)
  in
  expect w ~src:{ src with Card.root_signature = forged } Card.Bad_signature

let tampers =
  [ ("substituted chunk 3", 3, fun w ->
        Store.tamper_substitute (World.store w) ~doc_id:"ward" ~chunk:3
          (String.make 64 'x'));
    ("flipped chunk 5", 5, fun w ->
        Store.tamper_flip_bit (World.store w) ~doc_id:"ward" ~chunk:5 ~bit:11);
    ("swapped chunks 2 and 4", 2, fun w ->
        Store.tamper_swap (World.store w) ~doc_id:"ward" 2 4);
    ("truncated to 6 chunks", 6, fun w ->
        Store.tamper_truncate (World.store w) ~doc_id:"ward" ~keep_chunks:6) ]

(* Chunk [chunk] replaced by X || C, where C is chunk 0's first
   ciphertext block: it opens to a garbage block, then to C's decryption
   XOR X. X makes that block 15 'A's and [last], so 0x01 is valid padding
   (a 31-byte plaintext where the chunk's place holds 64) and 0x00 is
   not. A card that answered the two differently would be a padding
   oracle: the terminal picks X, so each answer tells it whether the
   block it spliced in decrypts to something ending in 0x01. *)
let splice ~chunk ~last w =
  let store = World.store w in
  let key = World.doc_key w "ward" in
  let c =
    String.sub (Option.get (Store.get_document store "ward")).Publish.chunks.(0)
      0 16
  in
  let d = Aes.decrypt_block_string (Aes.expand_key key) c in
  let want = String.make 15 'A' ^ String.make 1 last in
  let x =
    String.init 16 (fun j ->
        Char.chr (Char.code d.[j] lxor Char.code want.[j]))
  in
  let spliced = x ^ c in
  Alcotest.(check (option int)) "spliced plaintext length"
    (if last = '\x01' then Some 31 else None)
    (Option.map String.length
       (Wire.decrypt_chunk ~key ~doc_id:"ward" ~index:chunk spliced));
  Store.tamper_substitute store ~doc_id:"ward" ~chunk spliced

(* Run after the rest of the suite, so no earlier case is renumbered. *)
let splices =
  [ ("spliced 5, valid padding", 5, splice ~chunk:5 ~last:'\x01');
    ("spliced 5, invalid padding", 5, splice ~chunk:5 ~last:'\x00') ]

let test_tamper (_, chunk, tamper) () =
  let w = ward () in
  Alcotest.(check int) "8 chunks" 8
    (Array.length (source w ~doc_id:"ward").Card.chunks);
  tamper w;
  expect w (Card.Integrity_failure { chunk })

let rotate w =
  let store = World.store w in
  let p = Option.get (Store.get_document store "ward") in
  let p', _ =
    Publish.rotate (World.drbg w) ~publisher:(World.publisher w)
      ~old_key:(World.doc_key w "ward") p
  in
  Store.put_document store p'

let test_rotated () =
  let w = ward () in
  rotate w;
  expect w (Card.Stale_key "ward")

(* Re-keyed and tampered at once: the chunk walk stops at the first
   chunk that fails, and chunk 0 is authentic but sealed under the new
   key. *)
let test_rotated_and_flipped () =
  let w = ward () in
  rotate w;
  Store.tamper_flip_bit (World.store w) ~doc_id:"ward" ~chunk:5 ~bit:11;
  expect w (Card.Stale_key "ward")

let test_garbage_blob () =
  let w = ward () in
  let garbage = String.make 160 '\042' in
  let e, d = both ~rules_for_u:garbage w in
  Alcotest.check verdict "same verdict" e d;
  match d with
  | Error (Card.Bad_rules _) -> ()
  | _ -> Alcotest.failf "expected Bad_rules, got %a" (Alcotest.pp verdict) d

let test_replayed_blob () =
  let w = ward () in
  let version v = blob w ~doc_id:"ward" ~subject:"u" ~version:v in
  let v0 = version 0 (ward_rules ~subject:"u") in
  let v1 = version 1 (ward_rules ~subject:"u") in
  let src = source w ~doc_id:"ward" in
  let replayed = Card.Replayed_rules { seen = 1; offered = 0 } in
  let evaluate c b =
    Result.map ignore (Card.evaluate c src ~encrypted_rules:b ())
  in
  let disseminate c subscribers =
    Result.map
      (fun (results, _) -> Result.map ignore (List.assoc "u" results))
      (Card.disseminate c src ~subscribers ())
  in
  let c = card ~profile:Cost.fleet w ~doc_id:"ward" in
  Alcotest.check verdict "evaluate v1" (Ok ()) (evaluate c v1);
  Alcotest.check verdict "evaluate v0" (Error replayed) (evaluate c v0);
  let g = card ~profile:Cost.fleet w ~doc_id:"ward" in
  let publish = Alcotest.result verdict error in
  Alcotest.check publish "disseminate v1" (Ok (Ok ()))
    (disseminate g [ ("u", v1) ]);
  Alcotest.check publish "disseminate v0" (Ok (Error replayed))
    (disseminate g [ ("u", v0) ]);
  (* "u" listed with two different v1 policies: the planner refuses the
     publish, after the blobs were opened, and no watermark moves. *)
  let other = version 1 [ Rule.allow ~subject:"u" "//patient/name" ] in
  let g = card ~profile:Cost.fleet w ~doc_id:"ward" in
  (match disseminate g [ ("u", v1); ("u", other) ] with
  | Error (Card.Bad_rules _) -> ()
  | r ->
      Alcotest.failf "expected a refused publish, got %a"
        (Alcotest.pp publish) r);
  Alcotest.check publish "v0 after the refused publish" (Ok (Ok ()))
    (disseminate g [ ("u", v0) ])

(* ------------------------------------------------------------------ *)
(* Accounting pins                                                     *)
(* ------------------------------------------------------------------ *)

let hospital_rules ~subject =
  [ Rule.allow ~subject "//patient"; Rule.deny ~subject "//diagnosis" ]

(* Six patients at the default chunk size. Under the //patient/name
   query the skip index jumps whole chunks, so pull and push charge
   differently. A fresh world per call, because tampering mutates its
   store. *)
let hospital_world () =
  let publisher, user = Lazy.force keys in
  World.create (Drbg.create ~seed:"card-pins") ~publisher ~user
    [ ("hospital", Generator.hospital (Rng.create 19L) ~patients:6,
       hospital_rules ~subject:"u") ]

let hospital = lazy (hospital_world ())

let profiles = [ Cost.egate; Cost.fleet ]

(* Transfer, crypto, cpu, rsa, compile and total ms, exact through %h;
   then bytes transferred, bytes decrypted, APDU frames and output
   bytes. *)
let line (b : Cost.breakdown) ~output_bytes =
  Printf.sprintf "%h %h %h %h %h %h %d %d %d %d" b.Cost.transfer_ms
    b.Cost.crypto_ms b.Cost.cpu_ms b.Cost.rsa_ms b.Cost.compile_ms
    b.Cost.total_ms b.Cost.bytes_transferred b.Cost.bytes_decrypted
    b.Cost.apdu_frames output_bytes

let or_fail pp = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%a" pp e

(* One cold evaluation per (profile, delivery, index, query). *)
let evaluate_lines run =
  let w = Lazy.force hospital in
  let encrypted_rules =
    Option.get
      (Store.get_rules (World.store w) ~doc_id:"hospital" ~subject:"u")
  in
  List.concat_map
    (fun profile ->
      List.concat_map
        (fun delivery ->
          List.concat_map
            (fun use_index ->
              List.map
                (fun xpath ->
                  let c = card ~profile w ~doc_id:"hospital" in
                  let src = source ~delivery w ~doc_id:"hospital" in
                  let query = Option.map Sdds_xpath.Parser.parse xpath in
                  let r =
                    or_fail Card.pp_error
                      (run c src ~encrypted_rules ~query ~use_index)
                  in
                  ( Printf.sprintf "%s %s %s %s" profile.Cost.name
                      (match delivery with `Pull -> "pull" | `Push -> "push")
                      (if use_index then "index" else "scan")
                      (Option.value xpath ~default:"-"),
                    line r.Card.breakdown ~output_bytes:r.Card.output_bytes ))
                [ None; Some "//patient/name"; Some "//patient" ])
            [ true; false ])
        [ `Pull; `Push ])
    profiles

(* Subscriber populations: alone, one shared policy, two policies, and a
   predicate policy that runs outside the merged walk. *)
let populations =
  [ ("alone", [ ("a", hospital_rules) ]);
    ("shared", List.map (fun s -> (s, hospital_rules)) [ "a"; "b"; "c" ]);
    ( "two",
      [ ("a", hospital_rules); ("b", ward_rules); ("c", hospital_rules);
        ("d", ward_rules) ] );
    ( "predicate",
      [ ("a", hospital_rules);
        ( "b",
          fun ~subject ->
            [ Rule.allow ~subject "//patient";
              Rule.deny ~subject {|//patient[age>"60"]/folder|} ] ) ] ) ]

let disseminate_lines () =
  let w = Lazy.force hospital in
  List.concat_map
    (fun profile ->
      List.map
        (fun (name, population) ->
          let subscribers =
            List.map
              (fun (subject, rules) ->
                (subject, blob w ~doc_id:"hospital" ~subject (rules ~subject)))
              population
          in
          let c = card ~profile w ~doc_id:"hospital" in
          let results, r =
            or_fail Card.pp_error
              (Card.disseminate c (source ~delivery:`Push w ~doc_id:"hospital")
                 ~subscribers ())
          in
          List.iter (fun (_, o) -> ignore (or_fail Card.pp_error o)) results;
          ( Printf.sprintf "%s %s" profile.Cost.name name,
            line r.Card.dissem_breakdown
              ~output_bytes:r.Card.dissem_output_bytes ))
        populations)
    profiles

let evaluate_pins =
  [
    ("e-gate pull index -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate pull index //patient/name",
     "0x1.8dd3cp+10 0x1.35c28f5c28f5cp+3 0x1.3a1cac083126fp+0 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.ae99516872b03p+10 3029 2624 23 373");
    ("e-gate pull index //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("e-gate pull scan -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate pull scan //patient/name",
     "0x1.daf9cp+10 0x1.51eb851eb851fp+3 0x1.75d2f1a9fbe77p+1 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.fc6405a1cac08p+10 3641 2880 25 761");
    ("e-gate pull scan //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("e-gate push index -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate push index //patient/name",
     "0x1.af84cp+10 0x1.35c28f5c28f5cp+3 0x1.3a1cac083126fp+0 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.d04a516872b03p+10 3285 2624 25 373");
    ("e-gate push index //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("e-gate push scan -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate push scan //patient/name",
     "0x1.daf9cp+10 0x1.51eb851eb851fp+3 0x1.75d2f1a9fbe77p+1 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.fc6405a1cac08p+10 3641 2880 25 761");
    ("e-gate push scan //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("fleet-se pull index -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se pull index //patient/name",
     "0x1.97ae147ae147bp+1 0x1.8c7e28240b77fp-3 0x1.a0f9096bb98c8p-4 0x1p+3 0x1.89374bc6a7efap-8 0x1.6f9096bb98c7ep+3 3029 2624 13 373");
    ("fleet-se pull index //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275");
    ("fleet-se pull scan -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se pull scan //patient/name",
     "0x1.e604189374bc7p+1 0x1.b089a02752546p-3 0x1.f141205bc01a4p-3 0x1p+3 0x1.89374bc6a7efap-8 0x1.88395810624dep+3 3641 2880 13 761");
    ("fleet-se pull scan //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275");
    ("fleet-se push index -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se push index //patient/name",
     "0x1.b9fbe76c8b439p+1 0x1.8c7e28240b77fp-3 0x1.a0f9096bb98c8p-4 0x1p+3 0x1.89374bc6a7efap-8 0x1.78240b780346ep+3 3285 2624 14 373");
    ("fleet-se push index //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275");
    ("fleet-se push scan -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se push scan //patient/name",
     "0x1.e604189374bc7p+1 0x1.b089a02752546p-3 0x1.f141205bc01a4p-3 0x1p+3 0x1.89374bc6a7efap-8 0x1.88395810624dep+3 3641 2880 13 761");
    ("fleet-se push scan //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275")
  ]

let disseminate_pins =
  [
    ("e-gate alone",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.9333333333333p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e4839999999ap+11 5155 2880 31 2275");
    ("e-gate shared",
     "0x1.4180bp+12 0x1.770a3d70a3d71p+3 0x1.9333333333333p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.49f00c28f5c29p+12 10025 3200 51 6825");
    ("e-gate two",
     "0x1.99abp+12 0x1.870a3d70a3d71p+3 0x1.9333333333333p+1 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.a223ccccccccdp+12 12794 3328 63 9466");
    ("e-gate predicate",
     "0x1.c6876p+11 0x1.65c28f5c28f5cp+3 0x1.824dd2f1a9fbep+2 0x1.ep+6 0x1.147ae147ae148p-2 0x1.d7b6ed4fdf3b6p+11 7057 3056 39 4001");
    ("fleet-se alone",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.084b5dcc63f14p-2 0x1p+3 0x1.89374bc6a7efap-9 0x1.b910cb295e9e2p+3 5155 2880 13 2275");
    ("fleet-se shared",
     "0x1.46f1a9fbe76c9p+3 0x1.e00d1b71758e1p-3 0x1.084b5dcc63f14p-2 0x1p+3 0x1.89374bc6a7efap-9 0x1.2b66666666667p+4 10025 3200 16 6825");
    ("fleet-se two",
     "0x1.a051eb851eb85p+3 0x1.f487fcb923a28p-3 0x1.084b5dcc63f14p-2 0x1p+3 0x1.89374bc6a7efap-8 0x1.584bc6a7ef9dcp+4 12794 3328 18 9466");
    ("fleet-se predicate",
     "0x1.ce66666666666p+2 0x1.c9eecbfb15b57p-3 0x1.fe90ff9724746p-2 0x1p+3 0x1.26e978d4fdf3bp-7 0x1.fe9930be0ded2p+3 7057 3056 14 4001")
  ]

let protected_pins =
  [
    ("e-gate pull index -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate pull index //patient/name",
     "0x1.8dd3cp+10 0x1.35c28f5c28f5cp+3 0x1.3a1cac083126fp+0 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.ae99516872b03p+10 3029 2624 23 373");
    ("e-gate pull index //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("e-gate pull scan -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate pull scan //patient/name",
     "0x1.daf9cp+10 0x1.51eb851eb851fp+3 0x1.75d2f1a9fbe77p+1 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.fc6405a1cac08p+10 3641 2880 25 761");
    ("e-gate pull scan //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("e-gate push index -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate push index //patient/name",
     "0x1.af84cp+10 0x1.35c28f5c28f5cp+3 0x1.3a1cac083126fp+0 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.d04a516872b03p+10 3285 2624 25 373");
    ("e-gate push index //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("e-gate push scan -",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.73851eb851eb8p+1 0x1.ep+6 0x1.70a3d70a3d70ap-4 0x1.5e404e147ae15p+11 5155 2880 31 2275");
    ("e-gate push scan //patient/name",
     "0x1.daf9cp+10 0x1.51eb851eb851fp+3 0x1.75d2f1a9fbe77p+1 0x1.ep+6 0x1.70a3d70a3d70ap-3 0x1.fc6405a1cac08p+10 3641 2880 25 761");
    ("e-gate push scan //patient",
     "0x1.4d8eap+11 0x1.51eb851eb851fp+3 0x1.74ac083126e98p+1 0x1.ep+6 0x1.147ae147ae148p-3 0x1.5e420872b020dp+11 5155 2880 31 2275");
    ("fleet-se pull index -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se pull index //patient/name",
     "0x1.97ae147ae147bp+1 0x1.8c7e28240b77fp-3 0x1.a0f9096bb98c8p-4 0x1p+3 0x1.89374bc6a7efap-8 0x1.6f9096bb98c7ep+3 3029 2624 13 373");
    ("fleet-se pull index //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275");
    ("fleet-se pull scan -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se pull scan //patient/name",
     "0x1.e604189374bc7p+1 0x1.b089a02752546p-3 0x1.f141205bc01a4p-3 0x1p+3 0x1.89374bc6a7efap-8 0x1.88395810624dep+3 3641 2880 13 761");
    ("fleet-se pull scan //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275");
    ("fleet-se push index -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se push index //patient/name",
     "0x1.b9fbe76c8b439p+1 0x1.8c7e28240b77fp-3 0x1.a0f9096bb98c8p-4 0x1p+3 0x1.89374bc6a7efap-8 0x1.78240b780346ep+3 3285 2624 14 373");
    ("fleet-se push index //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275");
    ("fleet-se push scan -",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.eecbfb15b573ep-3 0x1p+3 0x1.89374bc6a7efap-9 0x1.b889a02752546p+3 5155 2880 13 2275");
    ("fleet-se push scan //patient/name",
     "0x1.e604189374bc7p+1 0x1.b089a02752546p-3 0x1.f141205bc01a4p-3 0x1p+3 0x1.89374bc6a7efap-8 0x1.88395810624dep+3 3641 2880 13 761");
    ("fleet-se push scan //patient",
     "0x1.53e76c8b43958p+2 0x1.b089a02752546p-3 0x1.f0068db8bac71p-3 0x1p+3 0x1.26e978d4fdf3bp-8 0x1.b89ad42c3c9efp+3 5155 2880 13 2275")
  ]

(* ------------------------------------------------------------------ *)
(* Skipped chunks and the multiproof                                   *)
(* ------------------------------------------------------------------ *)

(* A cold e-gate pull of the hospital under the //patient/name query,
   which skips whole chunks. *)
let evaluate_names ?src w =
  let src = match src with Some s -> s | None -> source w ~doc_id:"hospital" in
  let encrypted_rules =
    Option.get
      (Store.get_rules (World.store w) ~doc_id:"hospital" ~subject:"u")
  in
  Card.evaluate
    (card ~profile:Cost.egate w ~doc_id:"hospital")
    src ~encrypted_rules
    ~query:(Sdds_xpath.Parser.parse "//patient/name")
    ()

let wire outputs = Sdds_core.Output_codec.encode_list outputs

let honest_names =
  lazy (or_fail Card.pp_error (evaluate_names (hospital_world ())))

(* The first chunk the index skips and the last one it consumes. *)
let skipped_and_consumed () =
  let mask = (snd (Lazy.force honest_names)).Card.consumed_mask in
  let indices want =
    List.filter (fun i -> mask.(i) = want) (List.init (Array.length mask) Fun.id)
  in
  match (indices false, List.rev (indices true)) with
  | skipped :: _, consumed :: _ -> (skipped, consumed)
  | _ -> Alcotest.fail "the query should skip some chunks and read others"

let flipped chunk =
  let w = hospital_world () in
  Store.tamper_flip_bit (World.store w) ~doc_id:"hospital" ~chunk ~bit:11;
  w

(* Tampering with a chunk the index skips is invisible: same view, same
   charges. Tampering with one it reads is caught, at that chunk. *)
let test_skipped_chunk () =
  let outputs, report = Lazy.force honest_names in
  let skipped, consumed = skipped_and_consumed () in
  (match evaluate_names (flipped skipped) with
  | Ok (outputs', report') ->
      Alcotest.(check string) "same view" (wire outputs) (wire outputs');
      Alcotest.(check string) "same charges"
        (line report.Card.breakdown ~output_bytes:report.Card.output_bytes)
        (line report'.Card.breakdown ~output_bytes:report'.Card.output_bytes)
  | Error e -> Alcotest.failf "flipped skipped chunk: %a" Card.pp_error e);
  Alcotest.check verdict "flipped consumed chunk"
    (Error (Card.Integrity_failure { chunk = consumed }))
    (Result.map ignore (evaluate_names (flipped consumed)))

(* A DSP that serves a corrupted multiproof for authentic chunks costs
   the card the per-chunk proofs on top, but not the view. With a
   consumed chunk also flipped, the per-chunk proofs name that chunk. *)
let test_bad_multiproof () =
  let outputs, report = Lazy.force honest_names in
  let _, consumed = skipped_and_consumed () in
  let corrupt src =
    let flip d = String.map (fun c -> Char.chr (Char.code c lxor 1)) d in
    { src with
      Card.multiprove =
        (fun wanted ->
          match src.Card.multiprove wanted with
          | d :: rest -> flip d :: rest
          | [] -> [ String.make 32 '\000' ]) }
  in
  let w = hospital_world () in
  (match evaluate_names ~src:(corrupt (source w ~doc_id:"hospital")) w with
  | Ok (outputs', report') ->
      Alcotest.(check string) "same view" (wire outputs) (wire outputs');
      let bytes r = r.Card.breakdown.Cost.bytes_transferred in
      if bytes report' <= bytes report then
        Alcotest.failf "%d bytes transferred, not above the honest %d"
          (bytes report') (bytes report)
  | Error e -> Alcotest.failf "corrupted multiproof: %a" Card.pp_error e);
  let w = flipped consumed in
  Alcotest.check verdict "and a flipped consumed chunk"
    (Error (Card.Integrity_failure { chunk = consumed }))
    (Result.map ignore
       (evaluate_names ~src:(corrupt (source w ~doc_id:"hospital")) w))

let check_exact pins actual =
  Alcotest.(check int) "case count" (List.length pins) (List.length actual);
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "case" name name';
      Alcotest.(check string) name want got)
    pins actual

let plain c src ~encrypted_rules ~query ~use_index =
  Result.map snd (Card.evaluate c src ~encrypted_rules ?query ~use_index ())

let protected c src ~encrypted_rules ~query ~use_index =
  Result.map snd
    (Card.evaluate_protected c src ~encrypted_rules ?query ~use_index ())

let test_evaluate_pins () = check_exact evaluate_pins (evaluate_lines plain)

(* Guard state is card RAM. On the e-gate, a deny predicate on every
   element keeps a region pending per patient field until the patient's
   age is read: the plain evaluation fits, the protected one does not. A
   single pending rule holds one guard and still fits. *)
let test_guard_ram () =
  let w = hospital_world () in
  let run eval rules =
    let encrypted_rules =
      blob w ~doc_id:"hospital" ~subject:"u" (rules ~subject:"u")
    in
    eval
      (card ~profile:Cost.egate w ~doc_id:"hospital")
      (source w ~doc_id:"hospital") ~encrypted_rules ~query:None
      ~use_index:true
  in
  let deny_over_50 ~subject =
    [ Rule.allow ~subject "//patient"; Rule.deny ~subject {|//*[age>"50"]|} ]
  in
  let allow_over_50 ~subject =
    [ Rule.allow ~subject {|//patient[age>"50"]|} ]
  in
  let report = or_fail Card.pp_error (run plain deny_over_50) in
  Alcotest.(check int) "plain RAM" 804 report.Card.ram_peak_bytes;
  (match run protected deny_over_50 with
  | Error (Card.Memory_exceeded _) -> ()
  | Ok r -> Alcotest.failf "protected fits at %d B" r.Card.ram_peak_bytes
  | Error e -> Alcotest.failf "%a" Card.pp_error e);
  ignore (or_fail Card.pp_error (run protected allow_over_50))

let test_disseminate_pins () =
  check_exact disseminate_pins (disseminate_lines ())

let test_protected_pins () =
  check_exact protected_pins (evaluate_lines protected)

(* The root signature binds the plaintext length as well as the root. A
   terminal that serves the first [k] chunks and claims a plaintext of
   [k] whole chunks changes the length alone: a card whose prepared
   cache verified the honest root must check the signature again and
   refuse, as a cold card does. An honest repeat still skips the RSA. *)
let test_warm_truncated_length () =
  let w = ward () in
  let src = source w ~doc_id:"ward" in
  let encrypted_rules =
    Option.get (Store.get_rules (World.store w) ~doc_id:"ward" ~subject:"u")
  in
  let evaluate c s = Card.evaluate c s ~encrypted_rules () in
  let fresh () = card ~profile:Cost.fleet w ~doc_id:"ward" in
  List.iter
    (fun k ->
      let cut =
        { src with
          Card.chunks = Array.sub src.Card.chunks 0 k;
          plain_length = k * src.Card.chunk_plain_bytes }
      in
      Alcotest.check verdict
        (Printf.sprintf "cold card, %d chunks" k)
        (Error Card.Bad_signature)
        (Result.map ignore (evaluate (fresh ()) cut));
      let warm = fresh () in
      ignore (or_fail Card.pp_error (evaluate warm src));
      let _, hit = or_fail Card.pp_error (evaluate warm src) in
      Alcotest.(check bool) "honest repeat hits the cache" true
        hit.Card.prepared_hit;
      Alcotest.(check (float 0.0)) "and pays no RSA" 0.0
        hit.Card.breakdown.Cost.rsa_ms;
      Alcotest.check verdict
        (Printf.sprintf "warm card, %d chunks" k)
        (Error Card.Bad_signature)
        (Result.map ignore (evaluate warm cut)))
    [ 1; 4; 7 ]

let suite =
  [ Alcotest.test_case "forged root signature" `Quick test_forged_root ]
  @ List.map
      (fun ((name, _, _) as t) ->
        Alcotest.test_case name `Quick (test_tamper t))
      tampers
  @ [ Alcotest.test_case "rotated key" `Quick test_rotated;
      Alcotest.test_case "rotated and tampered" `Quick test_rotated_and_flipped;
      Alcotest.test_case "garbage rule blob" `Quick test_garbage_blob;
      Alcotest.test_case "replayed rule blob" `Quick test_replayed_blob;
      Alcotest.test_case "tampered skipped chunk" `Quick test_skipped_chunk;
      Alcotest.test_case "corrupted multiproof" `Quick test_bad_multiproof;
      Alcotest.test_case "evaluate breakdown pins" `Quick test_evaluate_pins;
      Alcotest.test_case "disseminate breakdown pins" `Quick
        test_disseminate_pins;
      Alcotest.test_case "protected breakdown pins" `Quick test_protected_pins;
      Alcotest.test_case "guard state charged as RAM" `Quick test_guard_ram ]
  @ List.map
      (fun ((name, _, _) as t) ->
        Alcotest.test_case name `Quick (test_tamper t))
      splices
  @ [ Alcotest.test_case "warm card, truncated length" `Quick
        test_warm_truncated_length ]
