module Event = Sdds_xml.Event
module Dom = Sdds_xml.Dom
module Parser = Sdds_xml.Parser
module Serializer = Sdds_xml.Serializer
module Generator = Sdds_xml.Generator
module Stats = Sdds_xml.Stats
module Rng = Sdds_util.Rng

let event = Alcotest.testable Event.pp Event.equal
let dom = Alcotest.testable Dom.pp Dom.equal

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_well_formed () =
  let ok = [ Event.Open "a"; Value "x"; Open "b"; Close "b"; Close "a" ] in
  Alcotest.(check bool) "ok" true (Event.well_formed ok);
  Alcotest.(check bool) "mismatch" false
    (Event.well_formed [ Open "a"; Close "b" ]);
  Alcotest.(check bool) "unclosed" false (Event.well_formed [ Open "a" ]);
  Alcotest.(check bool) "two roots" false
    (Event.well_formed [ Open "a"; Close "a"; Open "b"; Close "b" ]);
  Alcotest.(check bool) "top-level text" false
    (Event.well_formed [ Value "x" ]);
  Alcotest.(check bool) "empty" false (Event.well_formed [])

let test_depth_after () =
  Alcotest.(check int) "open" 1 (Event.depth_after 0 (Open "a"));
  Alcotest.(check int) "close" 0 (Event.depth_after 1 (Close "a"));
  Alcotest.(check int) "value" 1 (Event.depth_after 1 (Value "v"))

(* ------------------------------------------------------------------ *)
(* DOM                                                                 *)
(* ------------------------------------------------------------------ *)

let sample =
  Dom.element "a"
    [ Dom.text "hello";
      Dom.element "b" [ Dom.text "world" ];
      Dom.element "c" [];
      Dom.element "b" [ Dom.element "d" [] ] ]

let test_dom_events_roundtrip () =
  Alcotest.check dom "roundtrip" sample (Dom.of_events (Dom.to_events sample))

let test_dom_counts () =
  Alcotest.(check int) "node_count" 5 (Dom.node_count sample);
  Alcotest.(check int) "text_bytes" 10 (Dom.text_bytes sample);
  Alcotest.(check int) "depth" 3 (Dom.depth sample);
  Alcotest.(check (list string)) "tags" [ "a"; "b"; "c"; "d" ]
    (Dom.distinct_tags sample)

let test_dom_of_events_errors () =
  let expect_invalid evs =
    match Dom.of_events evs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid [];
  expect_invalid [ Event.Open "a" ];
  expect_invalid [ Event.Open "a"; Event.Close "b" ];
  expect_invalid [ Event.Value "v" ];
  expect_invalid
    [ Event.Open "a"; Event.Close "a"; Event.Open "b"; Event.Close "b" ]

let test_find_all () =
  let bs = Dom.find_all (fun _ n -> Dom.tag n = Some "b") sample in
  Alcotest.(check int) "two b" 2 (List.length bs);
  let under_root =
    Dom.find_all (fun path _ -> path = [ "a" ]) sample
  in
  Alcotest.(check int) "children of a" 3 (List.length under_root)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let d = Parser.dom_of_string "<a><b>hi</b><c/></a>" in
  Alcotest.check dom "structure"
    (Dom.element "a"
       [ Dom.element "b" [ Dom.text "hi" ]; Dom.element "c" [] ])
    d

let test_parse_attributes () =
  let d = Parser.dom_of_string {|<a id="1" name="x &amp; y"><b/></a>|} in
  Alcotest.check dom "attributes as @-children"
    (Dom.element "a"
       [ Dom.element "@id" [ Dom.text "1" ];
         Dom.element "@name" [ Dom.text "x & y" ];
         Dom.element "b" [] ])
    d

let test_parse_entities () =
  let d = Parser.dom_of_string "<a>&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42;</a>" in
  Alcotest.check dom "entities"
    (Dom.element "a" [ Dom.text "<tag> & \"q\" AB" ])
    d

let test_parse_cdata_comments () =
  let d =
    Parser.dom_of_string
      "<?xml version=\"1.0\"?><!-- top --><a><!-- in --><![CDATA[<raw>&]]></a>"
  in
  Alcotest.check dom "cdata" (Dom.element "a" [ Dom.text "<raw>&" ]) d

let test_parse_whitespace_only_text_dropped () =
  let d = Parser.dom_of_string "<a>\n  <b/>\n  <c/>\n</a>" in
  Alcotest.check dom "no ws text"
    (Dom.element "a" [ Dom.element "b" []; Dom.element "c" [] ])
    d

let test_parse_errors () =
  let expect_error s =
    match Parser.dom_of_string s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %s" s)
  in
  expect_error "";
  expect_error "<a>";
  expect_error "<a></b>";
  expect_error "<a><b></a></b>";
  expect_error "text only";
  expect_error "<a></a><b></b>";
  expect_error "<a attr></a>";
  expect_error "<a>&unknown;</a>";
  expect_error "<a>unclosed <![CDATA[x</a>";
  expect_error "<!DOCTYPE html><a/>"

let test_parse_fold_streaming () =
  let count =
    Parser.fold "<a><b>x</b><b>y</b></a>" (fun n _ -> n + 1) 0
  in
  Alcotest.(check int) "event count" 8 count

(* ------------------------------------------------------------------ *)
(* Serializer                                                          *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let s = Serializer.to_string sample in
  Alcotest.check dom "parse . print = id" sample (Parser.dom_of_string s)

let test_serialize_attributes_roundtrip () =
  let d =
    Dom.element "a"
      [ Dom.element "@k" [ Dom.text "v \"quoted\" & <escaped>" ];
        Dom.element "b" [ Dom.text "x < y" ] ]
  in
  let s = Serializer.to_string d in
  Alcotest.check dom "roundtrip with escaping" d (Parser.dom_of_string s)

let test_serialize_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Serializer.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "&quot;x&quot;" (Serializer.escape_attribute "\"x\"")

let test_serialize_indent_reparses () =
  let s = Serializer.to_string ~indent:true sample in
  Alcotest.check dom "indented reparses" sample (Parser.dom_of_string s)

(* Byte pins: MD5s of [to_string], flat and indented. Generator sizing
   and the benchmark's document choice read these lengths, so every byte
   is behaviour. The directed trees reach each rule of the rendering: an
   [@]-child folds into its parent's open tag wherever it sits, only its
   direct text counts, an element without content closes as [/>], a lone
   text renders inline, and a root tagged [@x] is an ordinary element. *)
let serializer_pins =
  let e = Dom.element and t = Dom.text in
  [ ( "hospital",
      Generator.hospital (Rng.create 5L) ~patients:6,
      "2ee885869ccb5341179129f09ed5291c",
      "9f11aa81faa3e0122087ca22fd4da60b" );
    ( "feed_tagged",
      Generator.feed_tagged (Rng.create 6L) ~events:24,
      "2697a21385ae75171107ed4c51ee876f",
      "b83b534c2ac260a13bcff03fd334ff7b" );
    ( "agenda",
      Generator.agenda (Rng.create 7L) ~courses:12,
      "ece7c9585586b95eaa3b4641d48857f9",
      "fc5ba49bc2bab01f2b5208c1f45e544b" );
    ( "auction",
      Generator.auction (Rng.create 8L) ~items:4,
      "2d512215e445d4243578c07c7fc4135c",
      "0ef1512810b13f0d5e300d0110ed3bad" );
    ( "attribute only",
      e "a" [ e "@k" [ t "v" ] ],
      "663049c02f128aeb0d67594245d5b311",
      "663049c02f128aeb0d67594245d5b311" );
    ( "attribute after text and after an element",
      e "r"
        [ e "p" [ t "x"; e "@a" [ t "1" ] ];
          e "q" [ e "b" []; e "@a" [ t "2" ]; e "@c" [ t "3" ] ];
          e "s" [ t "y"; e "c" [ t "z" ]; e "@a" [ t "4" ]; t "w" ] ],
      "39752bc4fd9711c51a23ab59ed2cb24e",
      "419d5fae267e45660e3b5ccd206055f1" );
    ( "element inside an attribute",
      e "a"
        [ e "@k" [ t "v"; e "b" [ t "hidden"; e "@j" [ t "h" ] ]; t "w" ];
          e "c" [] ],
      "dedd5691b60a53c474b6d326465945e4",
      "8be78e4019db5d174b4be4d7e2438980" );
    ( "root @x",
      e "@x" [ e "@y" [ t "1" ]; t "t"; e "@z" [] ],
      "beab904fb08ab54798f645b071502019",
      "beab904fb08ab54798f645b071502019" );
    ( "bare text",
      t "a & <b>",
      "8d04ac1558baffdcd8139572aa27a73c",
      "8d04ac1558baffdcd8139572aa27a73c" );
    ( "escapes in text and attributes",
      e "a"
        [ e "@k" [ t {|& < > "|} ]; t {|& < > "|};
          e "b" [ e "@q" [ t {|"'"|} ]; t "<&>" ] ],
      "502361ca7aac0d4428e3a5f07f532c0f",
      "86221cc598395bdc8711f5c5141ec089" );
    ( "empty text",
      e "a" [ t ""; e "b" [ t "" ]; e "@k" [ t "" ]; e "c" [ e "@j" [] ] ],
      "3c52db4e5057a6243f0931b48515021d",
      "1003277c2bf2a94b25d81e0d20fa4edd" );
    ( "two adjacent texts",
      e "a" [ t "x"; t "y"; e "b" [ t "p"; t "q" ]; e "c" [ t "r" ] ],
      "2f8d9033bb4d33fe2f53acd9e827b989",
      "20940ad0beacd0b605bd148732f440c9" );
    ( "mixed content",
      sample,
      "934d8d24d5727d9fd5a4f3db34aa3e11",
      "b6c35b9ca8d44bead2028fb8d11793fa" ) ]

let test_serializer_pins () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (label, d, flat, indented) ->
      Alcotest.(check string) (label ^ ", flat") flat
        (md5 (Serializer.to_string d));
      Alcotest.(check string) (label ^ ", indented") indented
        (md5 (Serializer.to_string ~indent:true d)))
    serializer_pins

(* The renderer [Serializer] had before the writer: the reference the
   writer must match byte for byte. *)
module Reference = struct
  let escape buf ~quot s =
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '"' when quot -> Buffer.add_string buf "&quot;"
        | _ -> Buffer.add_char buf c)
      s

  let rec render buf ~indent level node =
    let pad () =
      if indent then begin
        if Buffer.length buf > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * level) ' ')
      end
    in
    match node with
    | Dom.Text v ->
        pad ();
        escape buf ~quot:false v
    | Dom.Element (tag, kids) ->
        let is_attr = function
          | Dom.Element (t, _) -> Event.is_attribute_tag t
          | Dom.Text _ -> false
        in
        let attrs, content = List.partition is_attr kids in
        pad ();
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        List.iter
          (fun a ->
            match a with
            | Dom.Element (atag, avs) ->
                let name = String.sub atag 1 (String.length atag - 1) in
                let value =
                  String.concat ""
                    (List.filter_map
                       (function Dom.Text v -> Some v | Dom.Element _ -> None)
                       avs)
                in
                Buffer.add_char buf ' ';
                Buffer.add_string buf name;
                Buffer.add_string buf "=\"";
                escape buf ~quot:true value;
                Buffer.add_char buf '"'
            | Dom.Text _ -> assert false)
          attrs;
        if content = [] then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          let inline =
            match content with [ Dom.Text _ ] -> true | _ -> false
          in
          if inline then
            List.iter (render buf ~indent:false (level + 1)) content
          else List.iter (render buf ~indent (level + 1)) content;
          if indent && not inline then begin
            Buffer.add_char buf '\n';
            Buffer.add_string buf (String.make (2 * level) ' ')
          end;
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_char buf '>'
        end

  let to_string ?(indent = false) doc =
    let b = Buffer.create 1024 in
    render b ~indent 0 doc;
    Buffer.contents b
end

(* Random trees whose attributes sit anywhere among the children, hold
   elements and other attributes, and need escaping; the root may be a
   text or an attribute tag. *)
let gen_attributed_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "@k"; "@j" ] in
  let text = oneofl [ ""; "x"; "y z"; "&"; "<>"; {|"q"|}; {|a&b<c>"d|} ] in
  sized_size (int_bound 60)
  @@ fix (fun self n ->
         if n = 0 then
           frequency
             [ (1, map Dom.text text); (2, map (fun t -> Dom.element t []) tag) ]
         else
           frequency
             [ (1, map Dom.text text);
               ( 3,
                 map2 Dom.element tag
                   (list_size (int_bound 5) (self (n / 3))) ) ])

let qcheck_writer_matches_reference =
  QCheck2.Test.make ~name:"writer over to_events = the previous renderer"
    ~count:2000 ~print:(Format.asprintf "%a" Dom.pp) gen_attributed_tree
    (fun d ->
      List.for_all
        (fun indent ->
          let w = Serializer.Writer.create ~indent () in
          List.iter (Serializer.Writer.event w) (Dom.to_events d);
          let want = Reference.to_string ~indent d in
          String.equal want (Serializer.Writer.contents w)
          && String.equal want (Serializer.to_string ~indent d))
        [ false; true ])

let qcheck_random_tree_roundtrip =
  QCheck2.Test.make ~name:"random tree: parse(serialize(d)) = d" ~count:200
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let d =
        Generator.random_tree rng
          ~tags:[| "a"; "b"; "c"; "d"; "e" |]
          ~max_depth:5 ~max_children:4 ~text_probability:0.3
      in
      (* Whitespace-only or padded text does not survive the parser's
         trimming; the generator produces plain words so equality holds. *)
      Dom.equal d (Parser.dom_of_string (Serializer.to_string d)))

(* ------------------------------------------------------------------ *)
(* Generators and stats                                                *)
(* ------------------------------------------------------------------ *)

let test_generators_well_formed () =
  let rng = Rng.create 11L in
  let docs =
    [ Generator.hospital rng ~patients:10;
      Generator.hospital_named rng ~patients:10;
      Generator.agenda rng ~courses:20;
      Generator.sigmod rng ~issues:5;
      Generator.auction rng ~items:8;
      Generator.feed rng ~events:30;
      Generator.feed_tagged rng ~events:30 ]
  in
  List.iter
    (fun d -> Alcotest.(check bool) "well formed" true (Event.well_formed (Dom.to_events d)))
    docs

let test_generator_deterministic () =
  let d1 = Generator.hospital (Rng.create 3L) ~patients:5 in
  let d2 = Generator.hospital (Rng.create 3L) ~patients:5 in
  Alcotest.check dom "same seed, same doc" d1 d2

let test_generator_scaled () =
  let rng = Rng.create 21L in
  let d = Generator.scaled Generator.agenda_units rng ~approx_bytes:50_000 in
  let size = String.length (Serializer.to_string d) in
  Alcotest.(check bool)
    (Printf.sprintf "size %d within 40%% of 50000" size)
    true
    (size > 30_000 && size < 70_000)

let test_generator_hospital_structure () =
  let rng = Rng.create 9L in
  let d = Generator.hospital rng ~patients:12 in
  let tags = Dom.distinct_tags d in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " present") true (List.mem t tags))
    [ "hospital"; "department"; "patient"; "folder"; "ssn"; "prescription" ];
  Alcotest.(check bool) "deep" true (Dom.depth d >= 6)

let test_stats () =
  let s = Stats.compute sample in
  Alcotest.(check int) "elements" 5 s.Stats.elements;
  Alcotest.(check int) "text nodes" 2 s.Stats.text_nodes;
  Alcotest.(check int) "text bytes" 10 s.Stats.text_bytes;
  Alcotest.(check int) "tags" 4 s.Stats.distinct_tags;
  Alcotest.(check int) "depth" 3 s.Stats.max_depth;
  Alcotest.(check bool) "bytes > 0" true (s.Stats.serialized_bytes > 0)

let suite =
  [
    Alcotest.test_case "events well_formed" `Quick test_well_formed;
    Alcotest.test_case "events depth_after" `Quick test_depth_after;
    Alcotest.test_case "dom events roundtrip" `Quick test_dom_events_roundtrip;
    Alcotest.test_case "dom counts" `Quick test_dom_counts;
    Alcotest.test_case "dom of_events errors" `Quick test_dom_of_events_errors;
    Alcotest.test_case "dom find_all" `Quick test_find_all;
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse attributes" `Quick test_parse_attributes;
    Alcotest.test_case "parse entities" `Quick test_parse_entities;
    Alcotest.test_case "parse cdata/comments" `Quick test_parse_cdata_comments;
    Alcotest.test_case "parse whitespace" `Quick
      test_parse_whitespace_only_text_dropped;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse fold" `Quick test_parse_fold_streaming;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "serialize attributes" `Quick
      test_serialize_attributes_roundtrip;
    Alcotest.test_case "serialize escape" `Quick test_serialize_escape;
    Alcotest.test_case "serialize indent" `Quick test_serialize_indent_reparses;
    Alcotest.test_case "serializer byte pins" `Quick test_serializer_pins;
    QCheck_alcotest.to_alcotest qcheck_random_tree_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_writer_matches_reference;
    Alcotest.test_case "generators well formed" `Quick
      test_generators_well_formed;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "generator scaled" `Quick test_generator_scaled;
    Alcotest.test_case "generator hospital structure" `Quick
      test_generator_hospital_structure;
    Alcotest.test_case "stats" `Quick test_stats;
  ]
