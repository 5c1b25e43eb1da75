module Cluster = Sdds_dissem.Cluster
module Fanout = Sdds_dissem.Fanout
module Mux = Sdds_dissem.Mux
module Engine = Sdds_core.Engine
module Rule = Sdds_core.Rule
module Compile = Sdds_core.Compile
module Dom = Sdds_xml.Dom
module Generator = Sdds_xml.Generator
module Random_path = Sdds_xpath.Random_path
module Rng = Sdds_util.Rng

let tags = [| "a"; "b"; "c"; "d"; "e" |]
let values = [| "1"; "2"; "x" |]

let random_doc rng =
  Generator.random_tree rng ~tags ~max_depth:6 ~max_children:4
    ~text_probability:0.3

let path_cfg ~predicate_probability =
  { Random_path.default with max_steps = 3; predicate_probability }

let random_rules rng ~predicate_probability n =
  List.init n (fun _ ->
      let sign = if Rng.float rng 1.0 < 0.5 then Rule.Allow else Rule.Deny in
      {
        Rule.sign;
        subject = "u";
        path =
          Random_path.generate rng
            (path_cfg ~predicate_probability)
            ~tags ~values;
      })

(* A subscriber population with forced sharing: a small pool of rule
   sets, each subscriber drawing from the pool or minting a fresh set.
   [predicate_probability] > 0 exercises the solo path alongside the
   mux. *)
let random_population rng ~predicate_probability =
  let pool_size = 1 + Rng.int rng 3 in
  let pool =
    Array.init pool_size (fun _ ->
        random_rules rng ~predicate_probability (1 + Rng.int rng 4))
  in
  let n = 2 + Rng.int rng 7 in
  List.init n (fun i ->
      let rules =
        if Rng.float rng 1.0 < 0.6 then pool.(Rng.int rng pool_size)
        else random_rules rng ~predicate_probability (1 + Rng.int rng 4)
      in
      (Printf.sprintf "s%02d" i, rules))

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

let run_fanout subscribers events =
  match Fanout.run subscribers events with
  | Ok r -> r
  | Error e -> Alcotest.failf "plan refused: %a" Cluster.pp_error e

(* The tentpole property: clustered output = per-subscriber naive
   oracle, structurally identical, for every subscriber. *)
let differential ~predicate_probability ~name ~count =
  QCheck2.Test.make ~name ~count seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = random_doc rng in
      let events = Dom.to_events doc in
      let subscribers = random_population rng ~predicate_probability in
      let delivered, stats = run_fanout subscribers events in
      List.length delivered = List.length subscribers
      && stats.Fanout.evaluations <= stats.Fanout.naive_evaluations
      && List.for_all
           (fun (subject, outs) ->
             let rules = List.assoc subject subscribers in
             outs = Engine.run rules events)
           delivered)

let test_differential_pred_free =
  differential ~predicate_probability:0.0
    ~name:"clustered = naive oracle (pred-free)" ~count:150

let test_differential_mixed =
  differential ~predicate_probability:0.4
    ~name:"clustered = naive oracle (mixed predicates)" ~count:150

(* Satellite: cluster membership and outputs are stable under
   subscriber insertion order. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let plan_fingerprint (p : Cluster.t) =
  ( Array.to_list
      (Array.map (fun c -> (c.Cluster.digest, c.Cluster.members)) p.Cluster.clusters),
    p.Cluster.assignment,
    p.Cluster.mux,
    p.Cluster.solo )

let test_insertion_order_stable =
  QCheck2.Test.make ~name:"clusters stable under insertion order" ~count:150
    seed_gen (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = random_doc rng in
      let events = Dom.to_events doc in
      let subscribers = random_population rng ~predicate_probability:0.2 in
      let permuted = shuffle rng subscribers in
      let plan l =
        match Cluster.plan l with
        | Ok p -> p
        | Error e -> Alcotest.failf "plan refused: %a" Cluster.pp_error e
      in
      plan_fingerprint (plan subscribers) = plan_fingerprint (plan permuted)
      && run_fanout subscribers events = run_fanout permuted events)

(* Identical rule sets collapse to one shared evaluation. *)
let test_identical_sets_share () =
  let rules = [ Rule.allow ~subject:"u" "//a"; Rule.deny ~subject:"u" "//b" ] in
  let subscribers = List.init 5 (fun i -> (Printf.sprintf "s%d" i, rules)) in
  match Cluster.plan subscribers with
  | Error e -> Alcotest.failf "plan refused: %a" Cluster.pp_error e
  | Ok p ->
      Alcotest.(check int) "one cluster" 1 (Array.length p.Cluster.clusters);
      Alcotest.(check int) "one evaluation" 1 (Cluster.evaluations p);
      Alcotest.(check (list string)) "members"
        [ "s0"; "s1"; "s2"; "s3"; "s4" ]
        p.Cluster.clusters.(0).Cluster.members

(* The realistic card-path shape: each subscriber's rules carry its own
   subject (they were filtered out of a per-subscriber blob). Identical
   policies must still cluster — the canonical key drops the subject. *)
let test_same_policy_different_subjects () =
  let policy s =
    [ Rule.allow ~subject:s "//patient"; Rule.deny ~subject:s "//ssn" ]
  in
  let subscribers =
    [ ("alice", policy "alice"); ("bob", policy "bob");
      ("carol", [ Rule.allow ~subject:"carol" "//department" ]) ]
  in
  match Cluster.plan subscribers with
  | Error e -> Alcotest.failf "plan refused: %a" Cluster.pp_error e
  | Ok p ->
      Alcotest.(check int) "two clusters" 2 (Array.length p.Cluster.clusters);
      Alcotest.(check bool) "alice and bob share" true
        (Cluster.cluster_of p "alice" = Cluster.cluster_of p "bob");
      Alcotest.(check bool) "carol is alone" true
        (Cluster.cluster_of p "carol" <> Cluster.cluster_of p "alice")

(* Satellite: a digest collision between distinct rule sets is a typed
   refusal naming the colliding pair — deterministically, whatever the
   listing order. *)
let test_collision_reported () =
  let a = [ Rule.allow ~subject:"u" "//a" ] in
  let b = [ Rule.deny ~subject:"u" "//b" ] in
  let subscribers =
    [ ("carol", a); ("alice", a); ("bob", b); ("dave", b) ]
  in
  let check l =
    match Cluster.plan ~digest:(fun _ -> 42L) l with
    | Error (Cluster.Collision { subject_a; subject_b; digest }) ->
        Alcotest.(check int64) "digest" 42L digest;
        (* First member (sorted) of each colliding group, in canonical
           cluster order. *)
        Alcotest.(check (pair string string))
          "colliding pair" ("alice", "bob")
          (min subject_a subject_b, max subject_a subject_b)
    | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
    | Ok _ -> Alcotest.fail "collision went undetected"
  in
  check subscribers;
  check (List.rev subscribers)

let test_duplicate_subject () =
  let subscribers =
    [
      ("alice", [ Rule.allow ~subject:"u" "//a" ]);
      ("alice", [ Rule.deny ~subject:"u" "//b" ]);
    ]
  in
  match Cluster.plan subscribers with
  | Error (Cluster.Duplicate_subject "alice") -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "duplicate subject went undetected"

(* Same subject listed twice with the same rules is fine (dedup). *)
let test_duplicate_listing_ok () =
  let rules = [ Rule.allow ~subject:"u" "//a" ] in
  match Cluster.plan [ ("alice", rules); ("alice", rules) ] with
  | Error e -> Alcotest.failf "plan refused: %a" Cluster.pp_error e
  | Ok p ->
      Alcotest.(check int) "one cluster" 1 (Array.length p.Cluster.clusters);
      Alcotest.(check int) "one assignment" 1
        (List.length p.Cluster.assignment)

(* The mux refuses predicate-carrying rule sets outright. *)
let test_mux_rejects_predicates () =
  let compiled =
    Compile.compile [ Rule.allow ~subject:"u" {|//a[b>"1"]|} ]
  in
  Alcotest.check_raises "predicates refused"
    (Invalid_argument "Mux.create: predicate rule set") (fun () ->
      ignore (Mux.create [| compiled |]))

(* Sharing accounting: with guaranteed digest sharing, the shared
   evaluation count is strictly below the naive N. *)
let test_stats_saved () =
  let rng = Rng.create 7L in
  let doc = random_doc rng in
  let events = Dom.to_events doc in
  let rules = [ Rule.allow ~subject:"u" "//a" ] in
  let subscribers = List.init 4 (fun i -> (Printf.sprintf "s%d" i, rules)) in
  let _, stats = run_fanout subscribers events in
  Alcotest.(check int) "naive" 4 stats.Fanout.naive_evaluations;
  Alcotest.(check int) "shared" 1 stats.Fanout.evaluations;
  Alcotest.(check bool) "ratio" true (Fanout.fanout_ratio stats = 4.0)

(* ------------------------------------------------------------------ *)
(* Client.deliver: one view per cluster                                *)
(* ------------------------------------------------------------------ *)

module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Proxy = Sdds_proxy.Proxy
module Client = Sdds_proxy.Client
module World = Sdds_proxy.World
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Oracle = Sdds_core.Oracle
module Reassembler = Sdds_core.Reassembler
module Output_codec = Sdds_core.Output_codec
module Serializer = Sdds_xml.Serializer
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa

let gateway = "#gateway"

(* Three predicate-free policies for the mux walk, and a value predicate
   that forces a solo cluster. *)
let policies =
  [|
    (fun s ->
      [ Rule.allow ~subject:s "//patient"; Rule.deny ~subject:s "//ssn" ]);
    (fun s -> [ Rule.allow ~subject:s "//patient/name" ]);
    (fun s -> [ Rule.allow ~subject:s "//admission" ]);
    (fun s ->
      [ Rule.allow ~subject:s "//patient";
        Rule.deny ~subject:s {|//patient[age>"60"]/folder|} ]);
  |]

(* Subscriber and policy index, clusters interleaved. *)
let members =
  [ ("a1", 0); ("b1", 1); ("c1", 2); ("p1", 3); ("a2", 0); ("b2", 1);
    ("a3", 0); ("c2", 2); ("b3", 1); ("p2", 3) ]

(* The members, plus "nobody", who has no blob on the DSP, and
   "mallory", whose blob is garbage. *)
let listing =
  [ "a1"; "b1"; "c1"; "p1"; "nobody"; "a2"; "b2"; "a3"; "mallory"; "c2";
    "b3"; "p2" ]

let feed_world () =
  let d = Drbg.create ~seed:"deliver-world" in
  let publisher = Rsa.generate d ~bits:512 in
  let user = Rsa.generate d ~bits:512 in
  let doc = Generator.hospital (Rng.create 11L) ~patients:6 in
  let w =
    World.create (Drbg.create ~seed:"deliver-feed") ~publisher ~user
      ~subject:gateway [ ("feed", doc, []) ]
  in
  let store = World.store w in
  List.iter
    (fun (s, k) ->
      Store.put_rules store ~doc_id:"feed" ~subject:s
        (Publish.encrypt_rules_for (World.drbg w) ~publisher
           ~doc_key:(World.doc_key w "feed") ~doc_id:"feed" ~subject:s
           (policies.(k) s)))
    members;
  Store.put_rules store ~doc_id:"feed" ~subject:"mallory" "not a rule blob";
  (w, doc)

let gateway_card w =
  Card.create ~profile:Cost.fleet ~subject:gateway (World.user w)

(* The served record built the way every subscriber used to get its
   own: from the card's outputs, through a fresh gateway card. *)
let reference_served w =
  let store = World.store w in
  let card = gateway_card w in
  let wrapped =
    Option.get (Store.get_grant store ~doc_id:"feed" ~subject:gateway)
  in
  (match Card.install_wrapped_key card ~doc_id:"feed" ~wrapped with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grant: %a" Card.pp_error e);
  let subscribers =
    List.filter_map
      (fun s ->
        Option.map (fun b -> (s, b))
          (Store.get_rules store ~doc_id:"feed" ~subject:s))
      listing
  in
  let source =
    Publish.to_source (Option.get (Store.get_document store "feed"))
      ~delivery:`Push
  in
  match Card.disseminate card source ~subscribers () with
  | Error e -> Alcotest.failf "reference disseminate: %a" Card.pp_error e
  | Ok (results, _) ->
      List.filter_map
        (fun (s, r) ->
          match r with
          | Error _ -> None
          | Ok outs ->
              let view = Reassembler.run ~has_query:false outs in
              let bytes = String.length (Output_codec.encode_list outs) in
              Some
                ( s,
                  {
                    Proxy.Pool.view = Lazy.from_val view;
                    xml = Option.map (Serializer.to_string ~indent:true) view;
                    channel = 0;
                    warm_setup = false;
                    command_frames = 0;
                    response_frames = Apdu.frame_count ~payload_bytes:bytes;
                    wire_bytes = bytes;
                    retries = 0;
                  } ))
        results

let dom = Alcotest.testable Dom.pp Dom.equal

let check_served s (want : Proxy.Pool.served) (got : Proxy.Pool.served) =
  let open Proxy.Pool in
  Alcotest.(check (option dom)) (s ^ " view") (Lazy.force want.view)
    (Lazy.force got.view);
  Alcotest.(check (option string)) (s ^ " xml") want.xml got.xml;
  Alcotest.(check int) (s ^ " channel") want.channel got.channel;
  Alcotest.(check bool) (s ^ " warm_setup") want.warm_setup got.warm_setup;
  Alcotest.(check int) (s ^ " command_frames") want.command_frames
    got.command_frames;
  Alcotest.(check int) (s ^ " response_frames") want.response_frames
    got.response_frames;
  Alcotest.(check int) (s ^ " wire_bytes") want.wire_bytes got.wire_bytes;
  Alcotest.(check int) (s ^ " retries") want.retries got.retries

let test_deliver_differential () =
  let w, doc = feed_world () in
  let client = Client.direct ~store:(World.store w) ~card:(gateway_card w) in
  let per, st =
    match Client.deliver client ~doc_id:"feed" listing with
    | Ok r -> r
    | Error e -> Alcotest.failf "deliver: %a" Proxy.pp_error e
  in
  Alcotest.(check (list string)) "listing order" listing (List.map fst per);
  Alcotest.(check int) "subscribers" 10 st.Fanout.subscribers;
  Alcotest.(check int) "clusters" 4 st.Fanout.clusters;
  Alcotest.(check int) "solo clusters" 1 st.Fanout.solo_clusters;
  (match List.assoc "nobody" per with
  | Error Proxy.No_rules -> ()
  | _ -> Alcotest.fail "nobody: expected No_rules");
  (match List.assoc "mallory" per with
  | Error (Proxy.Card_error (Card.Bad_rules _)) -> ()
  | _ -> Alcotest.fail "mallory: expected Card_error (Bad_rules _)");
  let reference = reference_served w in
  let served =
    List.map
      (fun (s, k) ->
        match List.assoc s per with
        | Ok r ->
            check_served s (List.assoc s reference) r;
            Alcotest.(check (option dom)) (s ^ " = oracle")
              (Oracle.authorized_view ~rules:(policies.(k) s) doc)
              (Lazy.force r.Proxy.Pool.view);
            (k, r)
        | Error e -> Alcotest.failf "%s: %a" s Proxy.pp_error e)
      members
  in
  List.iter
    (fun (k, r) ->
      List.iter
        (fun (k', r') ->
          Alcotest.(check bool) "one record per cluster" (k = k') (r == r'))
        served)
    served

(* A rotation re-keys the feed and every blob, and grants the gateway
   the new key. The gateway card that delivered before still holds the
   old key: the session must fetch the fresh grant once and deliver the
   same views, as a query through [Proxy.run] does. *)
let rotate_feed w =
  let store = World.store w and drbg = World.drbg w in
  let publisher = World.publisher w in
  let rotated, key =
    Publish.rotate drbg ~publisher ~old_key:(World.doc_key w "feed")
      (Option.get (Store.get_document store "feed"))
  in
  Store.put_document store rotated;
  List.iter
    (fun (s, k) ->
      Store.put_rules store ~doc_id:"feed" ~subject:s
        (Publish.encrypt_rules_for drbg ~publisher ~doc_key:key ~doc_id:"feed"
           ~subject:s (policies.(k) s)))
    members;
  Store.put_grant store ~doc_id:"feed" ~subject:gateway
    (Publish.grant drbg ~doc_key:key ~doc_id:"feed"
       ~recipient:(World.user w).Rsa.public)

let test_deliver_after_rotation () =
  let w, _ = feed_world () in
  let client = Client.direct ~store:(World.store w) ~card:(gateway_card w) in
  let views () =
    match Client.deliver client ~doc_id:"feed" listing with
    | Ok (per, _) ->
        List.map
          (fun (s, r) ->
            ( s,
              Result.map_error (Format.asprintf "%a" Proxy.pp_error)
                (Result.map (fun r -> r.Proxy.Pool.xml) r) ))
          per
    | Error e -> Alcotest.failf "deliver: %a" Proxy.pp_error e
  in
  let before = views () in
  rotate_feed w;
  Alcotest.(check (list (pair string (result (option string) string))))
    "same views across the rotation" before (views ())

let suite =
  [
    QCheck_alcotest.to_alcotest test_differential_pred_free;
    QCheck_alcotest.to_alcotest test_differential_mixed;
    QCheck_alcotest.to_alcotest test_insertion_order_stable;
    Alcotest.test_case "identical sets share" `Quick test_identical_sets_share;
    Alcotest.test_case "same policy, different subjects" `Quick
      test_same_policy_different_subjects;
    Alcotest.test_case "collision reported" `Quick test_collision_reported;
    Alcotest.test_case "duplicate subject" `Quick test_duplicate_subject;
    Alcotest.test_case "duplicate listing ok" `Quick test_duplicate_listing_ok;
    Alcotest.test_case "mux rejects predicates" `Quick
      test_mux_rejects_predicates;
    Alcotest.test_case "sharing stats" `Quick test_stats_saved;
    Alcotest.test_case "Client.deliver = per-subscriber reference" `Quick
      test_deliver_differential;
    Alcotest.test_case "Client.deliver refreshes a rotated key" `Quick
      test_deliver_after_rotation;
  ]
