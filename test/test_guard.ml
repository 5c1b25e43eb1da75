module Guard = Sdds_soe.Guard
module Engine = Sdds_core.Engine
module Oracle = Sdds_core.Oracle
module Output = Sdds_core.Output
module Rule = Sdds_core.Rule
module Dom = Sdds_xml.Dom
module Xml_parser = Sdds_xml.Parser
module Generator = Sdds_xml.Generator
module Random_path = Sdds_xpath.Random_path
module Drbg = Sdds_crypto.Drbg
module Rng = Sdds_util.Rng

let dom = Alcotest.testable Dom.pp Dom.equal
let dom_opt = Alcotest.(option dom)

let allow p = Rule.allow ~subject:"u" p
let deny p = Rule.deny ~subject:"u" p

(* Run engine -> protector, returning the protector and all messages. *)
let protect ?query rules doc =
  let drbg = Drbg.create ~seed:"guard-tests" in
  let engine = Engine.create ?query rules in
  let protector = Guard.Protector.create drbg ~has_query:(query <> None) () in
  let messages = ref [] in
  List.iter
    (fun ev ->
      List.iter
        (fun out ->
          messages :=
            List.rev_append (Guard.Protector.feed protector out) !messages)
        (Engine.feed engine ev))
    (Dom.to_events doc);
  Engine.finish engine;
  Guard.Protector.finish protector;
  (protector, List.rev !messages)

let unseal_view ?query messages =
  let u = Guard.Unsealer.create ~has_query:(query <> None) () in
  List.iter (Guard.Unsealer.feed u) messages;
  (Guard.Unsealer.finish u, u)

let clear_texts messages =
  List.filter_map
    (function
      | Guard.Clear (Output.Text_node v) -> Some v
      | Guard.Clear _ | Guard.Sealed _ | Guard.Release _ | Guard.Drop _ ->
          None)
    messages

let count p messages = List.length (List.filter p messages)

let is_sealed = function Guard.Sealed _ -> true | _ -> false
let is_release = function Guard.Release _ -> true | _ -> false
let is_drop = function Guard.Drop _ -> true | _ -> false
let is_clear = function Guard.Clear _ -> true | _ -> false

(* ------------------------------------------------------------------ *)

let test_static_stream_all_clear () =
  let doc = Xml_parser.dom_of_string "<a><b>x</b><c>y</c></a>" in
  let rules = [ allow "//b"; deny "//c" ] in
  let protector, messages = protect rules doc in
  Alcotest.(check int) "no sealed" 0 (count is_sealed messages);
  Alcotest.(check int) "no guards" 0 (Guard.Protector.peak_live_guards protector);
  let view, u = unseal_view messages in
  Alcotest.check dom_opt "view" (Oracle.authorized_view ~rules doc) view;
  Alcotest.(check int) "nothing withheld" 0
    (Guard.Unsealer.sealed_bytes_withheld u)

let test_pending_resolves_true () =
  (* d's text arrives before c: sealed, then released. *)
  let doc = Xml_parser.dom_of_string "<a><b><d>secret</d><c>1</c></b></a>" in
  let rules = [ allow "//b[c]/d" ] in
  let protector, messages = protect rules doc in
  Alcotest.(check bool) "something sealed" true (count is_sealed messages > 0);
  Alcotest.(check bool) "released" true (count is_release messages > 0);
  Alcotest.(check bool) "secret not in clear" true
    (not (List.mem "secret" (clear_texts messages)));
  let view, u = unseal_view messages in
  Alcotest.check dom_opt "view with secret"
    (Oracle.authorized_view ~rules doc)
    view;
  Alcotest.(check int) "nothing withheld" 0
    (Guard.Unsealer.sealed_bytes_withheld u);
  Alcotest.(check int) "guards settled" 0 (Guard.Protector.live_guards protector)

let test_pending_resolves_false () =
  (* No c: the condition fails, the key is destroyed, the terminal holds
     ciphertext only. *)
  let doc = Xml_parser.dom_of_string "<a><b><d>secret</d><e>2</e></b></a>" in
  let rules = [ allow "//b[c]/d" ] in
  let _, messages = protect rules doc in
  Alcotest.(check bool) "sealed" true (count is_sealed messages > 0);
  Alcotest.(check int) "no release" 0 (count is_release messages);
  Alcotest.(check bool) "dropped" true (count is_drop messages > 0);
  Alcotest.(check bool) "secret never clear" true
    (not (List.mem "secret" (clear_texts messages)));
  (* The ciphertext itself must not leak the plaintext. *)
  List.iter
    (function
      | Guard.Sealed { event = Guard.Sealed_text { cipher }; _ } ->
          Alcotest.(check bool) "cipher <> plaintext" true (cipher <> "secret")
      | _ -> ())
    messages;
  let view, u = unseal_view messages in
  Alcotest.check dom_opt "empty view" None view;
  Alcotest.(check bool) "bytes withheld" true
    (Guard.Unsealer.sealed_bytes_withheld u > 0)

let test_determinate_allow_inside_pending_is_clear () =
  (* x is directly allowed: its text is visible regardless of the pending
     predicate on b, so it must flow in clear. *)
  let doc =
    Xml_parser.dom_of_string "<a><b><x>pub</x><d>maybe</d><c>1</c></b></a>"
  in
  let rules = [ allow "//b[c]/d"; allow "//x" ] in
  let _, messages = protect rules doc in
  Alcotest.(check bool) "pub is clear" true
    (List.mem "pub" (clear_texts messages));
  Alcotest.(check bool) "maybe is sealed" true
    (not (List.mem "maybe" (clear_texts messages)));
  let view, _ = unseal_view messages in
  Alcotest.check dom_opt "view" (Oracle.authorized_view ~rules doc) view

let test_shared_guard_for_inherited_pendingness () =
  (* All the children inherit b's single pending condition: one guard. *)
  let doc =
    Xml_parser.dom_of_string
      "<a><b><d>1</d><d>2</d><d>3</d><d>4</d><c>k</c></b></a>"
  in
  let rules = [ allow "//b[c]" ] in
  let protector, messages = protect rules doc in
  Alcotest.(check int) "one guard" 1 (Guard.Protector.peak_live_guards protector);
  Alcotest.(check bool) "several sealed under it" true
    (count is_sealed messages >= 4);
  let view, _ = unseal_view messages in
  Alcotest.check dom_opt "view" (Oracle.authorized_view ~rules doc) view

(* b is denied once x is seen, before y could allow it: "secret" arrives
   under a region already known invisible, so nothing of it is sent,
   neither in clear nor sealed. *)
let test_settled_deny_sends_nothing () =
  let doc = Xml_parser.dom_of_string "<a><b><x/><t>secret</t><y/></b></a>" in
  let rules = [ allow "//b[y]"; deny "//b[x]" ] in
  let _, messages = protect rules doc in
  Alcotest.(check int) "no sealed" 0 (count is_sealed messages);
  Alcotest.(check (list string)) "no clear text" [] (clear_texts messages);
  let view, u = unseal_view messages in
  Alcotest.check dom_opt "view" (Oracle.authorized_view ~rules doc) view;
  Alcotest.(check int) "nothing withheld" 0
    (Guard.Unsealer.sealed_bytes_withheld u)

let expand_case ~with_query seed =
  let rng = Rng.create (Int64.of_int seed) in
  let tags = [| "a"; "b"; "c"; "d"; "e" |] in
  let values = [| "1"; "2"; "x" |] in
  let cfg =
    { Random_path.default with max_steps = 3; predicate_probability = 0.5 }
  in
  let doc =
    Generator.random_tree rng ~tags ~max_depth:6 ~max_children:4
      ~text_probability:0.3
  in
  let rules =
    List.init
      (1 + Rng.int rng 4)
      (fun _ ->
        {
          Rule.sign = (if Rng.bool rng then Rule.Allow else Rule.Deny);
          subject = "u";
          path = Random_path.generate rng cfg ~tags ~values;
        })
  in
  let query =
    if with_query && Rng.bool rng then
      Some (Random_path.generate rng cfg ~tags ~values)
    else None
  in
  (doc, rules, query)

(* A seed and whether the world is open: an open world is the rule +/*
   in front of the case's rules. *)
let gen_case = QCheck2.Gen.(pair (int_bound 1_000_000) bool)

let case_rules ~open_world rules =
  if open_world then allow "/*" :: rules else rules

let qcheck_guard_preserves_view =
  QCheck2.Test.make ~name:"protect/unseal preserves the authorized view"
    ~count:400 gen_case
    (fun (seed, open_world) ->
      let doc, rules, query = expand_case ~with_query:true seed in
      let rules = case_rules ~open_world rules in
      let _, messages = protect ?query rules doc in
      let view, _ = unseal_view ?query messages in
      let expected = Oracle.authorized_view ?query ~rules doc in
      match (expected, view) with
      | None, None -> true
      | Some a, Some b -> Dom.equal a b
      | None, Some _ | Some _, None -> false)

let qcheck_guard_secrecy =
  (* Whatever text the oracle view does NOT contain must never cross the
     boundary in clear. *)
  QCheck2.Test.make ~name:"hidden text never flows in clear" ~count:400
    gen_case
    (fun (seed, open_world) ->
      let doc, rules, query = expand_case ~with_query:true seed in
      let rules = case_rules ~open_world rules in
      let _, messages = protect ?query rules doc in
      let visible_texts =
        match Oracle.authorized_view ?query ~rules doc with
        | None -> []
        | Some v ->
            let acc = ref [] in
            let rec go = function
              | Dom.Text t -> acc := t :: !acc
              | Dom.Element (_, kids) -> List.iter go kids
            in
            go v;
            !acc
      in
      List.for_all
        (fun t -> List.mem t visible_texts)
        (clear_texts messages))

let suite =
  [
    Alcotest.test_case "static stream all clear" `Quick
      test_static_stream_all_clear;
    Alcotest.test_case "pending resolves true" `Quick
      test_pending_resolves_true;
    Alcotest.test_case "pending resolves false" `Quick
      test_pending_resolves_false;
    Alcotest.test_case "determinate allow inside pending" `Quick
      test_determinate_allow_inside_pending_is_clear;
    Alcotest.test_case "shared guard" `Quick
      test_shared_guard_for_inherited_pendingness;
    Alcotest.test_case "settled deny sends nothing" `Quick
      test_settled_deny_sends_nothing;
    QCheck_alcotest.to_alcotest qcheck_guard_preserves_view;
    QCheck_alcotest.to_alcotest qcheck_guard_secrecy;
  ]

let test_wire_bytes_accounts_everything () =
  let doc = Xml_parser.dom_of_string "<a><b><d>x</d><c>1</c></b></a>" in
  let _, messages = protect [ allow "//b[c]/d" ] doc in
  let total = Guard.wire_bytes messages in
  Alcotest.(check bool) "positive" true (total > 0);
  (* Removing any message strictly reduces the size. *)
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) messages in
      Alcotest.(check bool) "monotone" true (Guard.wire_bytes without < total))
    messages

(* Under a static policy nothing is sealed, so the guarded stream is the
   plain stream byte for byte: no framing is charged on clear events. *)
let test_static_wire_bytes_are_plain () =
  let doc = Generator.hospital (Rng.create 11L) ~patients:6 in
  let rules = [ allow "//patient"; deny "//ssn" ] in
  let _, messages = protect rules doc in
  Alcotest.(check int) "sealed messages" 0
    (count (fun m -> not (is_clear m)) messages);
  Alcotest.(check int) "guarded bytes = plain bytes"
    (Sdds_core.Output_codec.size_list (Engine.run rules (Dom.to_events doc)))
    (Guard.wire_bytes messages)

let wire_suite =
  [ Alcotest.test_case "guard wire bytes monotone" `Quick
      test_wire_bytes_accounts_everything;
    Alcotest.test_case "static guard wire bytes are plain" `Quick
      test_static_wire_bytes_are_plain ]
