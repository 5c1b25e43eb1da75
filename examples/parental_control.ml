(* Parental control (motivating application 3 of the paper's
   introduction).

   "Neither Web site nor Internet Service Provider can predict the
   diversity of access control rules that parents with different
   sensibility are willing to enforce." Here the same encrypted content
   feed reaches a family's devices; each child's card enforces the rules
   *their* parents chose — rating caps, channel blocks, a bedtime window —
   and a parent can tighten the policy locally at any time without asking
   the provider for anything. Run with:

     dune exec examples/parental_control.exe
*)

module Rule = Sdds_core.Rule
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Proxy = Sdds_proxy.Proxy
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

let count_items view =
  match view with
  | None -> 0
  | Some v ->
      List.length
        (Sdds_xml.Dom.find_all (fun _ n -> Sdds_xml.Dom.tag n = Some "item") v)

let show store card label =
  let proxy = Proxy.create ~store ~card in
  match Proxy.run proxy (Proxy.Request.make ~delivery:`Push "kids-feed") with
  | Error e -> Format.printf "%-18s ERROR: %a@." label Proxy.pp_error e
  | Ok o ->
      Printf.printf "%-18s sees %3d items (%d of %d chunks decrypted)\n" label
        (count_items (Lazy.force o.Proxy.view))
        o.Proxy.card_report.Card.chunks_consumed
        o.Proxy.card_report.Card.chunks_total

let () =
  let drbg = Drbg.create ~seed:"parental-control" in
  let rng = Rng.create 99L in

  let feed = Sdds_xml.Generator.feed rng ~events:100 in
  let provider = Rsa.generate drbg ~bits:512 in
  let published, doc_key =
    Publish.publish drbg ~publisher:provider ~doc_id:"kids-feed" feed
  in
  let store = Store.create () in
  Store.put_document store published;

  (* Two families, very different sensibilities, one provider that knows
     nothing about either. *)
  let family =
    [
      ( "teen",
        [ Rule.allow ~subject:"teen" "//item";
          Rule.deny ~subject:"teen" {|//item[rating="R"]|} ] );
      ( "younger-child",
        [ Rule.allow ~subject:"younger-child" {|//item[rating="G"]|};
          Rule.deny ~subject:"younger-child" {|//item[channel="finance"]|} ] );
    ]
  in
  let cards =
    List.map
      (fun (subject, rules) ->
        let kp = Rsa.generate drbg ~bits:512 in
        Store.put_rules store ~doc_id:"kids-feed" ~subject
          (Publish.encrypt_rules_for drbg ~publisher:provider ~doc_key
             ~doc_id:"kids-feed" ~subject rules);
        Store.put_grant store ~doc_id:"kids-feed" ~subject
          (Publish.grant drbg ~doc_key ~doc_id:"kids-feed"
             ~recipient:kp.Rsa.public);
        (subject, Card.create ~profile:Cost.modern ~subject kp))
      family
  in

  print_endline "== Same broadcast, per-child enforcement ==";
  List.iter (fun (subject, card) -> show store card subject) cards;

  (* Exam week: the teen's parents cut everything but the news, by
     swapping one small encrypted rule blob. The provider is not
     involved; siblings are unaffected. *)
  print_endline "\n== Exam week: parents tighten the teen's policy ==";
  let strict =
    [ Rule.allow ~subject:"teen" {|//item[channel="news"]|};
      Rule.deny ~subject:"teen" {|//item[rating="R"]|} ]
  in
  Store.put_rules store ~doc_id:"kids-feed" ~subject:"teen"
    (Publish.encrypt_rules_for drbg ~publisher:provider ~doc_key
       ~doc_id:"kids-feed" ~subject:"teen" strict);
  List.iter (fun (subject, card) -> show store card subject) cards;

  (* The teen's terminal cannot cheat: the rules are MAC-protected under
     the document key that only the card holds, so doctoring the blob
     bricks the evaluation rather than widening the view. *)
  print_endline "\n== A doctored rule blob is rejected by the card ==";
  let blob =
    Option.get (Store.get_rules store ~doc_id:"kids-feed" ~subject:"teen")
  in
  let forged = Bytes.of_string blob in
  Bytes.set_uint8 forged 24 (Bytes.get_uint8 forged 24 lxor 0xff);
  Store.put_rules store ~doc_id:"kids-feed" ~subject:"teen"
    (Bytes.to_string forged);
  let teen_card = List.assoc "teen" cards in
  (match
     Proxy.run
     (Proxy.create ~store ~card:teen_card)
     (Proxy.Request.make ~delivery:`Push "kids-feed")
   with
  | Error e -> Format.printf "card says: %a@." Proxy.pp_error e
  | Ok _ -> print_endline "UNEXPECTED: forged rules accepted");

  (* Restore and confirm. *)
  Store.put_rules store ~doc_id:"kids-feed" ~subject:"teen" blob;
  show store teen_card "teen (restored)"
