(* Collaborative work among a community of users (demo application 1).

   A medical team shares a patient database through an untrusted Data
   Service Provider. The full architecture runs: the publisher encrypts
   and signs the indexed document, deposits encrypted per-user rules and
   wrapped key grants on the DSP, and each user pulls their view through
   a terminal proxy driving their personal smart card. Then the sharing
   policy evolves — with no re-encryption of the dataset — and, for
   contrast, the same policy change is priced under a classic
   static-encryption scheme. Run with:

     dune exec examples/collaborative.exe
*)

module Rule = Sdds_core.Rule
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Proxy = Sdds_proxy.Proxy
module Static_enc = Sdds_baseline.Static_enc
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

let section title = Printf.printf "\n== %s ==\n" title

let () =
  let drbg = Drbg.create ~seed:"collaborative-example" in
  let rng = Rng.create 2025L in

  section "Setting: a hospital, three users, one untrusted DSP";
  let doc = Sdds_xml.Generator.hospital rng ~patients:12 in
  let stats = Sdds_xml.Stats.compute doc in
  Printf.printf "document: %d elements, %d bytes serialized, depth %d\n"
    stats.Sdds_xml.Stats.elements stats.Sdds_xml.Stats.serialized_bytes
    stats.Sdds_xml.Stats.max_depth;

  (* Identities. 512-bit RSA keeps the example fast; see DESIGN.md. *)
  let publisher = Rsa.generate drbg ~bits:512 in
  let users =
    List.map
      (fun name ->
        let kp = Rsa.generate drbg ~bits:512 in
        (name, Card.create ~profile:Cost.egate ~subject:name kp))
      [ "doctor"; "nurse"; "researcher" ]
  in

  section "Publishing (compress, index, chunk, encrypt, sign)";
  (* 128-byte plaintext chunks: the e-gate card only has 1 KB of RAM, and
     the chunk buffer lives in it alongside the evaluator's token stack —
     a deployment-time trade-off between RAM and framing overhead. *)
  let published, doc_key =
    Publish.publish drbg ~publisher ~doc_id:"ward-db" ~chunk_bytes:128 doc
  in
  Printf.printf "chunks: %d x %dB plaintext, merkle root %s...\n"
    (Array.length published.Publish.chunks)
    published.Publish.chunk_plain_bytes
    (String.sub (Sdds_util.Hex.encode published.Publish.merkle_root) 0 16);

  let store = Store.create () in
  Store.put_document store published;

  (* Per-user policies: user-specific, dynamic, unpredictable — the
     motivating situation of the paper's introduction. *)
  let policies =
    [
      ( "doctor",
        [ Rule.allow ~subject:"doctor" "//patient";
          Rule.allow ~subject:"doctor" "//department/name" ] );
      ( "nurse",
        [ Rule.allow ~subject:"nurse" "//patient";
          Rule.deny ~subject:"nurse" "//folder";
          Rule.deny ~subject:"nurse" "//ssn" ] );
      ( "researcher",
        [ Rule.allow ~subject:"researcher" {|//patient[age>"60"]/folder|};
          Rule.deny ~subject:"researcher" "//comment" ] );
    ]
  in
  List.iter
    (fun (subject, rules) ->
      Store.put_rules store ~doc_id:"ward-db" ~subject
        (Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"ward-db"
           ~subject rules);
      Store.put_grant store ~doc_id:"ward-db" ~subject
        (Publish.grant drbg ~doc_key ~doc_id:"ward-db"
           ~recipient:(Card.public_key (List.assoc subject users))))
    policies;

  section "Each user pulls their view through their card (e-gate profile)";
  List.iter
    (fun (name, card) ->
      let proxy = Proxy.create ~store ~card in
      match Proxy.run proxy (Proxy.Request.make "ward-db") with
      | Error e -> Format.printf "%-11s ERROR: %a@." name Proxy.pp_error e
      | Ok o ->
          let r = o.Proxy.card_report in
          let b = r.Card.breakdown in
          let view_elems =
            match Lazy.force o.Proxy.view with
            | Some v -> Sdds_xml.Dom.node_count v
            | None -> 0
          in
          Printf.printf
            "%-11s view=%4d elements | %2d/%2d chunks fetched | %6.0f ms \
             (transfer %5.0f, crypto %4.0f, cpu %4.0f) | RAM %4dB/%dB\n"
            name view_elems r.Card.chunks_consumed r.Card.chunks_total
            b.Cost.total_ms b.Cost.transfer_ms b.Cost.crypto_ms b.Cost.cpu_ms
            r.Card.ram_peak_bytes (Card.profile card).Cost.ram_bytes)
    users;

  section "A doctor asks a focused question (query composed on-card)";
  let doctor_card = List.assoc "doctor" users in
  let proxy = Proxy.create ~store ~card:doctor_card in
  (match
     Proxy.run proxy
       (Proxy.Request.make ~xpath:{|//patient[age>"60"]/name|} "ward-db")
   with
  | Error e -> Format.printf "ERROR: %a@." Proxy.pp_error e
  | Ok o -> (
      match o.Proxy.xml with
      | Some xml -> print_endline xml
      | None -> print_endline "(empty result)"));

  section "The policy evolves: the researcher loses prescriptions";
  let new_researcher_rules =
    [ Rule.allow ~subject:"researcher" {|//patient[age>"60"]/folder|};
      Rule.deny ~subject:"researcher" "//comment";
      Rule.deny ~subject:"researcher" "//prescription" ]
  in
  let blob =
    Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id:"ward-db"
      ~subject:"researcher" new_researcher_rules
  in
  Store.put_rules store ~doc_id:"ward-db" ~subject:"researcher" blob;
  Printf.printf
    "our scheme:        rewrote one %d-byte rule blob; the %d encrypted \
     chunks are untouched\n"
    (String.length blob)
    (Array.length published.Publish.chunks);

  (* The same change under static encryption. *)
  let subjects = List.map fst policies in
  let all_rules = List.concat_map snd policies in
  let static = Static_enc.build drbg ~subjects ~rules:all_rules doc in
  let all_rules_v2 =
    List.concat_map
      (fun (s, r) -> if s = "researcher" then new_researcher_rules else r)
      policies
  in
  let _, cost = Static_enc.update drbg static ~rules:all_rules_v2 in
  Format.printf "static encryption: %a@." Static_enc.pp_update_cost cost;

  (* Verify the new policy is enforced end to end. *)
  let researcher_card = List.assoc "researcher" users in
  let proxy = Proxy.create ~store ~card:researcher_card in
  match Proxy.run proxy (Proxy.Request.make ~xpath:"//prescription" "ward-db") with
  | Ok { Proxy.xml = None; _ } ->
      print_endline "researcher now sees no prescriptions - policy enforced"
  | Ok _ -> print_endline "UNEXPECTED: prescriptions still visible"
  | Error e -> Format.printf "ERROR: %a@." Proxy.pp_error e
