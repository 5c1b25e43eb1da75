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

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_reader_fuzz;
    QCheck_alcotest.to_alcotest qcheck_xml_parser_fuzz;
    QCheck_alcotest.to_alcotest qcheck_xpath_parser_fuzz;
    QCheck_alcotest.to_alcotest qcheck_rule_parse_fuzz;
    QCheck_alcotest.to_alcotest qcheck_output_codec_fuzz;
    QCheck_alcotest.to_alcotest qcheck_rule_blob_fuzz;
    QCheck_alcotest.to_alcotest qcheck_apdu_fuzz;
    QCheck_alcotest.to_alcotest qcheck_json_parse_fuzz;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    Alcotest.test_case "json parser rejects non-RFC input" `Quick
      test_json_parse_rejects;
  ]
