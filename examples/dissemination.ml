(* Selective dissemination of streams through unsecured channels (demo
   application 2, the push profile).

   A content provider broadcasts one encrypted feed. Every subscriber's
   terminal receives the same ciphertext stream; each personal card
   decrypts only the items its subscription authorizes — the skip index
   lets it discard the rest without even decrypting. The provider never
   re-encrypts per subscriber, and changing a subscription tier is a rule
   update, not a re-broadcast. Run with:

     dune exec examples/dissemination.exe
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

let subscriptions =
  [
    (* Premium: everything except explicitly adult-rated items. *)
    ( "premium",
      [ Rule.allow ~subject:"premium" "//item";
        Rule.deny ~subject:"premium" {|//item[rating="R"]|} ] );
    (* Sports package: sports channel only. *)
    ( "sports-fan",
      [ Rule.allow ~subject:"sports-fan" {|//item[channel="sports"]|} ] );
    (* Regional teaser: European news items only. *)
    ( "eu-news",
      [ Rule.allow ~subject:"eu-news"
          {|//item[channel="news"][region="eu"]|} ] );
  ]

let () =
  let drbg = Drbg.create ~seed:"dissemination-example" in
  let rng = Rng.create 7L in

  print_endline "== One broadcast, three subscription profiles ==";
  let feed = Sdds_xml.Generator.feed rng ~events:150 in
  let stats = Sdds_xml.Stats.compute feed in
  Printf.printf "feed: %d items, %d bytes serialized\n\n"
    (List.length (Sdds_xml.Dom.children feed))
    stats.Sdds_xml.Stats.serialized_bytes;

  let provider = Rsa.generate drbg ~bits:512 in
  let published, doc_key =
    Publish.publish drbg ~publisher:provider ~doc_id:"feed-2026-07-05" feed
  in
  let store = Store.create () in
  Store.put_document store published;

  let cards =
    List.map
      (fun (subject, rules) ->
        let kp = Rsa.generate drbg ~bits:512 in
        Store.put_rules store ~doc_id:"feed-2026-07-05" ~subject
          (Publish.encrypt_rules_for drbg ~publisher:provider ~doc_key
             ~doc_id:"feed-2026-07-05" ~subject rules);
        Store.put_grant store ~doc_id:"feed-2026-07-05" ~subject
          (Publish.grant drbg ~doc_key ~doc_id:"feed-2026-07-05"
             ~recipient:kp.Rsa.public);
        (subject, Card.create ~profile:Cost.modern ~subject kp))
      subscriptions
  in

  Printf.printf "%-11s %8s %16s %14s %10s\n" "subscriber" "items"
    "decrypted/total" "transfer(B)" "time(ms)";
  List.iter
    (fun (subject, card) ->
      let proxy = Proxy.create ~store ~card in
      match Proxy.run proxy (Proxy.Request.make ~delivery:`Push "feed-2026-07-05") with
      | Error e -> Format.printf "%-11s ERROR: %a@." subject Proxy.pp_error e
      | Ok o ->
          let r = o.Proxy.card_report in
          let b = r.Card.breakdown in
          let items =
            match Lazy.force o.Proxy.view with
            | Some v ->
                List.length
                  (Sdds_xml.Dom.find_all
                     (fun _ n -> Sdds_xml.Dom.tag n = Some "item")
                     v)
            | None -> 0
          in
          Printf.printf "%-11s %8d %10d/%-5d %14d %10.1f\n" subject items
            r.Card.chunks_consumed r.Card.chunks_total
            b.Cost.bytes_transferred b.Cost.total_ms)
    cards;

  (* In push mode every card sees all the ciphertext (it is a broadcast),
     but decryption tracks the subscription: narrow subscribers decrypt a
     fraction of what premium does. *)
  print_endline "\n== A sports fan's view, first items ==";
  let _, sports_card = List.nth cards 1 in
  let proxy = Proxy.create ~store ~card:sports_card in
  match Proxy.run proxy (Proxy.Request.make ~delivery:`Push "feed-2026-07-05") with
  | Error e -> Format.printf "ERROR: %a@." Proxy.pp_error e
  | Ok o -> (
      match Lazy.force o.Proxy.view with
      | Some v ->
          let items =
            Sdds_xml.Dom.find_all
              (fun _ n -> Sdds_xml.Dom.tag n = Some "item")
              v
          in
          List.iteri
            (fun i item ->
              if i < 3 then
                print_endline (Sdds_xml.Serializer.to_string ~indent:true item))
            items
      | None -> print_endline "(nothing matched)")
