(* Robustness fuzzing: every decoder that consumes attacker-controlled
   bytes (the card parses data fetched from an untrusted store; the proxy
   parses card frames) must fail with its documented exception — never
   crash with anything else, never succeed silently on garbage it cannot
   have produced. *)

module Rng = Sdds_util.Rng
module Generator = Sdds_xml.Generator
module Dom = Sdds_xml.Dom
module Encode = Sdds_index.Encode
module Reader = Sdds_index.Reader
module Merkle = Sdds_crypto.Merkle

(* Corrupt [s]: flip bytes, truncate, or splice. *)
let mutate rng s =
  let n = String.length s in
  if n = 0 then s
  else
    match Rng.int rng 4 with
    | 0 ->
        (* flip a few bytes *)
        let b = Bytes.of_string s in
        for _ = 0 to Rng.int rng 4 do
          let i = Rng.int rng n in
          Bytes.set_uint8 b i (Rng.int rng 256)
        done;
        Bytes.to_string b
    | 1 -> String.sub s 0 (Rng.int rng n) (* truncate *)
    | 2 -> s ^ Rng.bytes rng (1 + Rng.int rng 8) (* append junk *)
    | _ ->
        (* splice a random window elsewhere *)
        let i = Rng.int rng n and j = Rng.int rng n in
        let len = min (1 + Rng.int rng 16) (n - max i j) in
        if len <= 0 then s
        else begin
          let b = Bytes.of_string s in
          Bytes.blit_string s i b j len;
          Bytes.to_string b
        end

let well_behaved ~name f ~allowed =
  match f () with
  | _ -> ()
  | exception e ->
      if not (allowed e) then
        Alcotest.failf "%s raised unexpected exception: %s" name
          (Printexc.to_string e)

let fuzz_signer =
  lazy
    (Sdds_crypto.Rsa.generate
       (Sdds_crypto.Drbg.create ~seed:"fuzz-signer")
       ~bits:512)

let base_doc seed =
  let rng = Rng.create (Int64.of_int seed) in
  Generator.random_tree rng
    ~tags:[| "a"; "b"; "c"; "d" |]
    ~max_depth:5 ~max_children:3 ~text_probability:0.3

let qcheck_reader_fuzz =
  QCheck2.Test.make ~name:"reader survives corrupted encodings" ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = base_doc seed in
      let mode =
        Rng.pick rng
          [| Encode.Plain; Encode.Indexed { recursive = true };
             Encode.Indexed { recursive = false } |]
      in
      let encoded = mutate rng (Encode.encode ~mode doc) in
      well_behaved ~name:"Reader.to_dom"
        (fun () -> ignore (Reader.to_dom encoded))
        ~allowed:(function Invalid_argument _ -> true | _ -> false);
      true)

(* The skip path: summary decoding and injection, [skip_subtree] on a
   hostile size varint and the skip check's tag predicate all run on
   corrupted bytes here. [-/*] denies everything and [+//t] keeps an
   automaton alive, so subtrees without [t] are skip candidates. *)
let qcheck_skip_path_fuzz =
  QCheck2.Test.make ~name:"indexed engine survives corrupted encodings"
    ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = base_doc seed in
      let tags = [| "a"; "b"; "c"; "d" |] in
      let mode = Encode.Indexed { recursive = Rng.bool rng } in
      let meta_threshold = if Rng.bool rng then Some 0 else None in
      let rules =
        [ Sdds_core.Rule.deny ~subject:"u" "/*";
          Sdds_core.Rule.allow ~subject:"u" ("//" ^ Rng.pick rng tags) ]
      in
      let query =
        if Rng.bool rng then
          Some (Sdds_xpath.Parser.parse ("//" ^ Rng.pick rng tags))
        else None
      in
      let encoded = mutate rng (Encode.encode ?meta_threshold ~mode doc) in
      well_behaved ~name:"Indexed_engine.run"
        (fun () -> ignore (Sdds_index.Indexed_engine.run ?query rules encoded))
        ~allowed:(function Invalid_argument _ -> true | _ -> false);
      true)

let qcheck_xml_parser_fuzz =
  QCheck2.Test.make ~name:"xml parser survives corrupted documents"
    ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let xml = mutate rng (Sdds_xml.Serializer.to_string (base_doc seed)) in
      well_behaved ~name:"Parser.dom_of_string"
        (fun () -> ignore (Sdds_xml.Parser.dom_of_string xml))
        ~allowed:(function
          | Sdds_xml.Parser.Error _ | Invalid_argument _ -> true
          | _ -> false);
      true)

let qcheck_xpath_parser_fuzz =
  QCheck2.Test.make ~name:"xpath parser survives random strings" ~count:500
    QCheck2.Gen.(string_size ~gen:printable (0 -- 40))
    (fun s ->
      well_behaved ~name:"Xpath.parse"
        (fun () -> ignore (Sdds_xpath.Parser.parse s))
        ~allowed:(function Sdds_xpath.Parser.Error _ -> true | _ -> false);
      true)

let qcheck_rule_parse_fuzz =
  QCheck2.Test.make ~name:"rule parser survives random strings" ~count:500
    QCheck2.Gen.(string_size ~gen:printable (0 -- 60))
    (fun s ->
      well_behaved ~name:"Rule.parse"
        (fun () -> ignore (Sdds_core.Rule.parse s))
        ~allowed:(function
          | Invalid_argument _ | Sdds_xpath.Parser.Error _ -> true
          | _ -> false);
      true)

let qcheck_output_codec_fuzz =
  QCheck2.Test.make ~name:"output codec survives random bytes" ~count:500
    QCheck2.Gen.(string_size (0 -- 64))
    (fun s ->
      well_behaved ~name:"Output_codec.decode_list"
        (fun () -> ignore (Sdds_core.Output_codec.decode_list s))
        ~allowed:(function Invalid_argument _ -> true | _ -> false);
      true)

(* The view builder. [Pool.finish] feeds it whatever [decode_list] makes
   of the card's response bytes, so it must refuse a malformed stream
   with [Invalid_argument] and nothing else; the streaming API and its
   DOM sink must agree; and what is released must be the DOM's events. *)
module Output = Sdds_core.Output
module Event = Sdds_xml.Event

let builder_verdict ~has_query outs =
  let released = ref [] in
  let streamed =
    let sv =
      Sdds_core.Stream_view.create ~has_query
        ~emit:(fun ev -> released := ev :: !released)
        ()
    in
    match
      List.iter (Sdds_core.Stream_view.feed sv) outs;
      Sdds_core.Stream_view.finish sv
    with
    | () -> Some (List.rev !released)
    | exception Invalid_argument _ -> None
  in
  let built =
    match Sdds_core.Reassembler.run ~has_query outs with
    | view -> Some view
    | exception Invalid_argument _ -> None
  in
  match (streamed, built) with
  | None, None -> `Refused
  | Some evs, Some view ->
      if not (evs = [] || Event.well_formed evs) then
        Alcotest.fail "released events are not one rooted document";
      let want = match view with None -> [] | Some v -> Dom.to_events v in
      if not (List.equal Event.equal evs want) then
        Alcotest.fail "released events differ from Reassembler.run's view";
      `Accepted
  | Some _, None -> Alcotest.fail "Reassembler.run refused, Stream_view did not"
  | None, Some _ -> Alcotest.fail "Stream_view refused, Reassembler.run did not"

(* One structural fault: a dropped, duplicated or swapped event, a
   flipped [Resolve], a renamed close, or a second root appended. *)
let perturb rng outs =
  let a = Array.of_list outs in
  let n = Array.length a in
  let pick_where p =
    match List.filter (fun i -> p a.(i)) (List.init n Fun.id) with
    | [] -> Rng.int rng n
    | is -> Rng.pick rng (Array.of_list is)
  in
  let i = Rng.int rng (max n 1) in
  let without j = List.filteri (fun k _ -> k <> j) outs in
  match if n = 0 then 5 else Rng.int rng 6 with
  | 0 -> without i
  | 1 -> List.concat (List.mapi (fun k o -> if k = i then [ o; o ] else [ o ]) outs)
  | 2 ->
      let j = Rng.int rng n in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x;
      Array.to_list a
  | 3 -> (
      let i = pick_where (function Output.Resolve _ -> true | _ -> false) in
      match a.(i) with
      | Output.Resolve (v, b) ->
          a.(i) <- Output.Resolve (v, not b);
          Array.to_list a
      | _ -> without i)
  | 4 -> (
      let i = pick_where (function Output.Close_node _ -> true | _ -> false) in
      match a.(i) with
      | Output.Close_node tag ->
          a.(i) <- Output.Close_node (tag ^ "x");
          Array.to_list a
      | _ -> without i)
  | _ ->
      outs
      @ [ Output.Open_node
            { tag = "z"; neg = Sdds_core.Cond.ff; pos = Sdds_core.Cond.tt;
              query = Sdds_core.Cond.ff };
          Output.Close_node "z" ]

(* A few byte flips through the codec, retried until the bytes decode;
   [None] when eight tries fail. *)
let flip_bytes rng outs =
  let bytes = Sdds_core.Output_codec.encode_list outs in
  let rec attempt k =
    if k = 0 || bytes = "" then None
    else begin
      let b = Bytes.of_string bytes in
      for _ = 0 to Rng.int rng 3 do
        Bytes.set_uint8 b (Rng.int rng (Bytes.length b)) (Rng.int rng 256)
      done;
      match Sdds_core.Output_codec.decode_list (Bytes.to_string b) with
      | outs -> Some outs
      | exception Invalid_argument _ -> attempt (k - 1)
    end
  in
  attempt 8

let qcheck_view_builder_fuzz =
  QCheck2.Test.make ~name:"view builder refuses malformed streams" ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let tags = [| "a"; "b"; "c"; "d"; "e" |] and values = [| "1"; "2"; "x" |] in
      let cfg =
        { Sdds_xpath.Random_path.default with
          max_steps = 3; predicate_probability = 0.5 }
      in
      let path () = Sdds_xpath.Random_path.generate rng cfg ~tags ~values in
      let doc =
        Generator.random_tree rng ~tags ~max_depth:6 ~max_children:4
          ~text_probability:0.3
      in
      let rules =
        List.init
          (1 + Rng.int rng 4)
          (fun _ ->
            { Sdds_core.Rule.sign =
                (if Rng.bool rng then Sdds_core.Rule.Allow
                 else Sdds_core.Rule.Deny);
              subject = "u"; path = path () })
      in
      let query = if Rng.bool rng then Some (path ()) else None in
      let outs = Sdds_core.Engine.run ?query rules (Dom.to_events doc) in
      let has_query = query <> None in
      ignore (builder_verdict ~has_query outs);
      (if seed mod 2 = 0 then ignore (builder_verdict ~has_query (perturb rng outs))
       else
         match flip_bytes rng outs with
         | Some outs -> ignore (builder_verdict ~has_query outs)
         | None -> ());
      true)

let test_view_builder_directed () =
  let open Output in
  let node ?(pos = Sdds_core.Cond.tt) tag =
    Open_node { tag; neg = Sdds_core.Cond.ff; pos; query = Sdds_core.Cond.ff }
  in
  List.iter
    (fun (label, outs) ->
      if builder_verdict ~has_query:false outs <> `Refused then
        Alcotest.failf "%s: accepted" label)
    [ ("second root", [ node "a"; Close_node "a"; node "b"; Close_node "b" ]);
      ( "second root, denied",
        [ node ~pos:Sdds_core.Cond.ff "a"; Close_node "a";
          node ~pos:Sdds_core.Cond.ff "b"; Close_node "b" ] );
      ( "repeated resolve",
        [ node ~pos:(Sdds_core.Cond.var 1) "a"; Resolve (1, true);
          Resolve (1, false); Close_node "a" ] ) ]

(* The pool's path: the card's bytes, decoded with a cursor straight into
   the view builder and the XML writer. Whatever the bytes, it refuses
   with [Invalid_argument] (the pool's [Protocol] error) exactly when
   decoding to a list and building the DOM refuses, and otherwise writes
   that DOM's rendering; it never raises anything else. *)
let pool_verdict ~has_query bytes =
  let streamed =
    match
      Sdds_core.Reassembler.xml ~has_query (fun f ->
          Sdds_core.Output_codec.iter f bytes)
    with
    | xml -> Some xml
    | exception Invalid_argument _ -> None
  in
  let built =
    match
      Sdds_core.Reassembler.run ~has_query
        (Sdds_core.Output_codec.decode_list bytes)
    with
    | view -> Some (Option.map (Sdds_xml.Serializer.to_string ~indent:true) view)
    | exception Invalid_argument _ -> None
  in
  match (streamed, built) with
  | None, None -> ()
  | Some a, Some b ->
      if a <> b then Alcotest.fail "streamed xml differs from the DOM's"
  | Some _, None -> Alcotest.fail "the DOM path refused, the stream did not"
  | None, Some _ -> Alcotest.fail "the stream refused, the DOM path did not"

let qcheck_pool_path_random_bytes =
  QCheck2.Test.make ~name:"pool decode-view-xml path on random bytes"
    ~count:500
    QCheck2.Gen.(pair bool (string_size (0 -- 64)))
    (fun (has_query, bytes) ->
      pool_verdict ~has_query bytes;
      true)

let qcheck_pool_path_perturbed =
  QCheck2.Test.make ~name:"pool decode-view-xml path on perturbed streams"
    ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let doc = base_doc seed in
      let rules =
        [ Sdds_core.Rule.allow ~subject:"u" "//a[b]";
          Sdds_core.Rule.deny ~subject:"u" "//c" ]
      in
      let query =
        if Rng.bool rng then Some (Sdds_xpath.Parser.parse "//a") else None
      in
      let outs = Sdds_core.Engine.run ?query rules (Dom.to_events doc) in
      let bytes = Sdds_core.Output_codec.encode_list outs in
      let has_query = query <> None in
      pool_verdict ~has_query bytes;
      pool_verdict ~has_query (mutate rng bytes);
      true)

let qcheck_rule_blob_fuzz =
  QCheck2.Test.make ~name:"encrypted rule blobs reject corruption" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let drbg = Sdds_crypto.Drbg.create ~seed:(string_of_int seed) in
      let key = Sdds_soe.Wire.fresh_doc_key drbg in
      let signer = Lazy.force fuzz_signer in
      let blob =
        Sdds_soe.Wire.encrypt_rules drbg ~key ~doc_id:"d" ~subject:"u"
          ~signer:signer.Sdds_crypto.Rsa.secret
          [ Sdds_core.Rule.allow ~subject:"u" "//a" ]
      in
      let corrupted = mutate rng blob in
      match
        Sdds_soe.Wire.decrypt_rules ~key ~doc_id:"d" ~subject:"u"
          ~publisher:signer.Sdds_crypto.Rsa.public corrupted
      with
      | Error _ -> true
      | Ok (_version, rules) ->
          (* Only acceptable if the mutation was a no-op. *)
          corrupted = blob && List.length rules = 1)

let qcheck_apdu_fuzz =
  QCheck2.Test.make ~name:"apdu decoders survive random bytes" ~count:500
    QCheck2.Gen.(string_size (0 -- 40))
    (fun s ->
      (* Decoders are total: they return options. *)
      ignore (Sdds_soe.Apdu.decode_command s);
      ignore (Sdds_soe.Apdu.decode_response s);
      true)

module Json = Sdds_analysis.Json

(* Bytes drawn half from the JSON alphabet (so number, escape and
   nesting paths are reached deep) and half at random. *)
let json_alphabet =
  List.of_seq (String.to_seq "0123456789-+.eE\"\\u[]{}:,truefalsn ")

let qcheck_json_parse_fuzz =
  QCheck2.Test.make ~name:"json parser survives random bytes" ~count:1000
    QCheck2.Gen.(
      string_size
        ~gen:(frequency [ (1, char); (1, oneofl json_alphabet) ])
        (0 -- 40))
    (fun s ->
      match Json.parse s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "Json.parse %S raised %s" s
            (Printexc.to_string e))

let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [ pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) float;
                 map (fun s -> Json.String s) (string_size (0 -- 12)) ]
           in
           if n <= 1 then scalar
           else
             frequency
               [ (2, scalar);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (0 -- 4) (self (n / 4))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4)
                        (pair (string_size (0 -- 6)) (self (n / 4)))) ) ]))

(* Equal as JSON: numbers by value (an integral float prints, and so
   parses back, as an integer), non-finite floats as the null they
   print as, everything else exactly. *)
let rec json_equiv a b =
  match (a, b) with
  | Json.Float f, Json.Null -> not (Float.is_finite f)
  | Json.Int x, Json.Int y -> x = y
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) ->
      Json.to_float_opt a = Json.to_float_opt b
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equiv xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equiv x y) xs ys
  | _ -> a = b

let qcheck_json_roundtrip =
  QCheck2.Test.make ~name:"json to_string then parse round-trips" ~count:500
    ~print:Json.to_string gen_json (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> json_equiv v v'
      | Error e -> QCheck2.Test.fail_reportf "parse error: %s" e)

(* Inputs the RFC 8259 grammar rejects, each with the byte the error
   must name: truncated exponents, a bad \u escape, a leading zero, and
   a fraction missing its digits on either side. *)
let test_json_parse_rejects () =
  List.iter
    (fun (input, byte) ->
      match Json.parse input with
      | Ok v ->
          Alcotest.failf "Json.parse %S accepted: %s" input (Json.to_string v)
      | Error e ->
          let suffix = Printf.sprintf "at byte %d" byte in
          if not (String.ends_with ~suffix e) then
            Alcotest.failf "Json.parse %S: %S does not end %S" input e suffix
      | exception e ->
          Alcotest.failf "Json.parse %S raised %s" input (Printexc.to_string e))
    [ ("1e", 2); ("-e", 1); ("1E+", 3); ("\"\\uZZZZ\"", 3); ("01", 1);
      ("-.5", 1); ("1.e5", 2) ]

module Fault = Sdds_fault.Fault
module Store_io = Sdds_dsp.Store_io

(* Fault and campaign specs drawn from their grammar (events, random
   fields) and from syntax neither accepts ("#LEN:" segments, a "ramp="
   field), then half of them perturbed by one inserted or deleted byte,
   so both the accepting paths and every error path are reached. *)
let gen_spec =
  let open QCheck2.Gen in
  let num =
    oneofa [| "0"; "1"; "7"; "-1"; "300"; "0x1f"; "9999999999999999999" |]
  in
  let real =
    oneofa [| "0"; "0.05"; "0.5"; "1"; "1.5"; "-0.1"; "1e-9"; "nan"; "inf" |]
  in
  let word =
    oneofa
      [| "tear"; "drop-command"; "duplicate-command"; "spurious-status";
         "kill"; "revive"; "add"; "remove"; "killer"; "none" |]
  in
  let event =
    map3
      (fun at w card -> "@" ^ at ^ ":" ^ w ^ card)
      num word
      (oneof [ pure ""; map (( ^ ) ":") num ])
  in
  let field =
    oneof
      [ map (( ^ ) "seed=") num; map (( ^ ) "rate=") real;
        map (( ^ ) "ramp=") real;
        map
          (fun ks -> "kinds=" ^ String.concat "+" ks)
          (list_size (1 -- 3) word) ]
  in
  let simple =
    oneof
      [ pure "none";
        map (String.concat ",") (list_size (1 -- 4) event);
        map (String.concat ",") (list_size (1 -- 4) field) ]
  in
  let spec =
    map2
      (fun segs tail -> String.concat ";" (segs @ [ tail ]))
      (list_size (0 -- 2) (map2 (fun n s -> "#" ^ n ^ ":" ^ s) num simple))
      simple
  in
  bind spec (fun s ->
      map3
        (fun op i c ->
          let i = min i (String.length s) in
          let before = String.sub s 0 i in
          match op with
          | 0 -> before ^ String.make 1 c ^ String.sub s i (String.length s - i)
          | 1 when i < String.length s ->
              before ^ String.sub s (i + 1) (String.length s - i - 1)
          | _ -> s)
        (int_bound 3) (int_bound 64)
        (oneofl [ ' '; ','; ':'; ';'; '@'; '#'; '='; '+'; 'x'; '0' ]))

(* [of_spec] returns [Ok] or a positioned [Error], never raises, and an
   [Ok] re-parses from its own [to_spec] to the same spec. *)
let spec_round_trips ~of_spec ~to_spec s =
  match of_spec s with
  | Error _ -> true
  | Ok t -> (
      match of_spec (to_spec t) with
      | Ok t' -> to_spec t' = to_spec t
      | Error e ->
          QCheck2.Test.fail_reportf "%S: to_spec %S does not re-parse: %s" s
            (to_spec t)
            (Fault.Schedule.string_of_parse_error e))
  | exception e ->
      QCheck2.Test.fail_reportf "of_spec %S raised %s" s (Printexc.to_string e)

let qcheck_schedule_spec_fuzz =
  QCheck2.Test.make ~name:"fault-spec parser: Ok round-trips or Error"
    ~count:3000 ~print:Fun.id gen_spec
    (spec_round_trips ~of_spec:Fault.Schedule.of_spec
       ~to_spec:Fault.Schedule.to_spec)

let qcheck_campaign_spec_fuzz =
  QCheck2.Test.make ~name:"campaign-spec parser: Ok round-trips or Error"
    ~count:3000 ~print:Fun.id gen_spec
    (spec_round_trips ~of_spec:Fault.Campaign.of_spec
       ~to_spec:Fault.Campaign.to_spec)

let clinical_schema =
  "folder = patient\n\
   patient = name age diagnosis prescription\n\
   name = #text\n\
   age = #text\n\
   diagnosis = symptom note\n\
   symptom = #text\n\
   note = #text\n\
   prescription = drug dose\n"

let qcheck_schema_fuzz =
  QCheck2.Test.make ~name:"schema parser survives corrupted schemas"
    ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let text = mutate (Rng.create (Int64.of_int seed)) clinical_schema in
      well_behaved ~name:"Schema.of_string"
        (fun () ->
          ignore
            (Sdds_core.Schema.depth_bound (Sdds_core.Schema.of_string text)))
        ~allowed:(function Invalid_argument _ -> true | _ -> false);
      true)

(* The card checks its chunks with a multiproof served by the untrusted
   DSP. The verifier gets byte-perturbed honest proofs, random digest
   lists (empty and wrong-length digests included), masks of the wrong
   length and leaf counts <= 0. It never raises, and it accepts only the
   honest proof for the honest mask and leaf count. *)
let qcheck_multiproof_fuzz =
  QCheck2.Test.make ~name:"multiproof verifier accepts only the honest proof"
    ~count:1000
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let n = 1 + Rng.int rng 100 in
      let leaves = List.init n (fun i -> Printf.sprintf "chunk %d/%d" i seed) in
      let tree = Merkle.build leaves in
      let wanted = Array.init n (fun _ -> Rng.bool rng) in
      let honest = Merkle.multiprove tree wanted in
      let proof =
        match Rng.int rng 3 with
        | 0 -> honest
        | 1 ->
            List.map
              (fun d -> if Rng.int rng 3 = 0 then mutate rng d else d)
              honest
        | _ ->
            List.init (Rng.int rng 12) (fun _ ->
                match Rng.int rng 3 with
                | 0 -> ""
                | 1 -> Rng.bytes rng (Rng.int rng 64)
                | _ -> Rng.bytes rng 32)
      in
      let honest_shape, leaf_count, mask =
        match Rng.int rng 4 with
        | 0 -> (false, -Rng.int rng 3, wanted)
        | 1 ->
            let m =
              if n = 1 || Rng.bool rng then n + 1 + Rng.int rng 4
              else Rng.int rng n
            in
            ( false,
              n,
              Array.init m (fun i -> if i < n then wanted.(i) else Rng.bool rng)
            )
        | _ -> (true, n, wanted)
      in
      match
        Merkle.multiverify ~root:(Merkle.root tree) ~leaf_count ~wanted:mask
          ~leaves:(List.filteri (fun i _ -> wanted.(i)) leaves)
          proof
      with
      | exception e ->
          QCheck2.Test.fail_reportf "multiverify raised %s"
            (Printexc.to_string e)
      | verdict ->
          let honest_input = honest_shape && proof = honest in
          if (verdict <> None) <> honest_input then
            QCheck2.Test.fail_reportf "n=%d leaf_count=%d mask of %d: %s"
              n leaf_count (Array.length mask)
              (if honest_input then "honest proof rejected"
               else "tampered proof accepted");
          true)

let rec files_under path =
  if Sys.is_directory path then
    List.concat_map
      (fun f -> files_under (Filename.concat path f))
      (List.sort compare (Array.to_list (Sys.readdir path)))
  else [ path ]

(* A saved store and key files, each file corrupted in turn: the loaders
   return [Ok] or a typed [Error], or raise [Invalid_argument] for
   malformed contents — nothing else. *)
let test_store_io_fuzz () =
  let dir = Filename.temp_dir "sdds-fuzz" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
  @@ fun () ->
  let key = Lazy.force fuzz_signer in
  let world =
    Sdds_proxy.World.create
      (Sdds_crypto.Drbg.create ~seed:"fuzz-store")
      ~publisher:key ~user:key
      (Sdds_proxy.World.wards ~doc_id:(Printf.sprintf "d%d") ~seed:Fun.id 2)
  in
  let store_dir = Filename.concat dir "store" in
  let pub = Filename.concat dir "k.pk" and sec = Filename.concat dir "k.sk" in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail (Store_io.string_of_error e)
  in
  ok (Store_io.save (Sdds_proxy.World.store world) ~dir:store_dir);
  ok (Store_io.Keyfile.save_public key.Sdds_crypto.Rsa.public ~path:pub);
  ok (Store_io.Keyfile.save_keypair key ~path:sec);
  let loaders =
    [ (store_dir, fun () -> ignore (Store_io.load ~dir:store_dir));
      (pub, fun () -> ignore (Store_io.Keyfile.load_public ~path:pub));
      (sec, fun () -> ignore (Store_io.Keyfile.load_keypair ~path:sec)) ]
  in
  let write path data =
    Out_channel.with_open_bin path (fun oc -> output_string oc data)
  in
  let rng = Rng.create 2024L in
  List.iter
    (fun (root, load) ->
      let files = Array.of_list (files_under root) in
      for _ = 1 to 200 do
        let path = Rng.pick rng files in
        let original = In_channel.with_open_bin path In_channel.input_all in
        write path (mutate rng original);
        well_behaved ~name:path load ~allowed:(function
          | Invalid_argument _ -> true
          | _ -> false);
        write path original
      done)
    loaders

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_reader_fuzz;
    QCheck_alcotest.to_alcotest qcheck_skip_path_fuzz;
    QCheck_alcotest.to_alcotest qcheck_xml_parser_fuzz;
    QCheck_alcotest.to_alcotest qcheck_xpath_parser_fuzz;
    QCheck_alcotest.to_alcotest qcheck_rule_parse_fuzz;
    QCheck_alcotest.to_alcotest qcheck_output_codec_fuzz;
    QCheck_alcotest.to_alcotest qcheck_view_builder_fuzz;
    Alcotest.test_case "view builder refuses the directed inputs" `Quick
      test_view_builder_directed;
    QCheck_alcotest.to_alcotest qcheck_pool_path_random_bytes;
    QCheck_alcotest.to_alcotest qcheck_pool_path_perturbed;
    QCheck_alcotest.to_alcotest qcheck_rule_blob_fuzz;
    QCheck_alcotest.to_alcotest qcheck_apdu_fuzz;
    QCheck_alcotest.to_alcotest qcheck_json_parse_fuzz;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    Alcotest.test_case "json parser rejects non-RFC input" `Quick
      test_json_parse_rejects;
    QCheck_alcotest.to_alcotest qcheck_schedule_spec_fuzz;
    QCheck_alcotest.to_alcotest qcheck_campaign_spec_fuzz;
    QCheck_alcotest.to_alcotest qcheck_schema_fuzz;
    QCheck_alcotest.to_alcotest qcheck_multiproof_fuzz;
    Alcotest.test_case "store and key loaders survive corrupted files" `Quick
      test_store_io_fuzz;
  ]
