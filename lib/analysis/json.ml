type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        (* Shortest round-trippable decimal; never "nan"/"inf" (invalid
           JSON) — clamp those to null like most serializers. *)
        if Float.is_finite f then
          let s = Printf.sprintf "%.12g" f in
          Buffer.add_string buf
            (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
        else Buffer.add_string buf "null"
    | String s -> escape buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let rec pp ppf = function
  | List (_ :: _ as l) ->
      Format.fprintf ppf "[@[<v 1>";
      List.iteri
        (fun i x ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,%a" pp x)
        l;
      Format.fprintf ppf "@]@,]"
  | Obj (_ :: _ as fields) ->
      Format.fprintf ppf "{@[<v 1>";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Format.fprintf ppf ",";
          let buf = Buffer.create 16 in
          escape buf k;
          Format.fprintf ppf "@,%s: %a" (Buffer.contents buf) pp x)
        fields;
      Format.fprintf ppf "@]@,}"
  | v -> Format.pp_print_string ppf (to_string v)

(* A recursive-descent RFC 8259 parser, sized for the benchmark
   baselines and CLI snapshots this repo emits: full string escapes
   (including \uXXXX with surrogate pairs), numbers split into [Int]
   when the lexeme is integral and in range, [Float] otherwise. *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "truncated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
          | 'b' ->
              Buffer.add_char buf '\b';
              go ()
          | 'f' ->
              Buffer.add_char buf '\012';
              go ()
          | 'n' ->
              Buffer.add_char buf '\n';
              go ()
          | 'r' ->
              Buffer.add_char buf '\r';
              go ()
          | 't' ->
              Buffer.add_char buf '\t';
              go ()
          | 'u' ->
              let cp = hex4 () in
              let cp =
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* high surrogate: require \uXXXX low surrogate *)
                  if
                    !pos + 2 <= n
                    && s.[!pos] = '\\'
                    && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000
                      + ((cp - 0xD800) lsl 10)
                      + (lo - 0xDC00)
                    else fail "unpaired surrogate"
                  end
                  else fail "unpaired surrogate"
                end
                else cp
              in
              add_utf8 buf cp;
              go ()
          | _ -> fail "bad escape")
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  (* number = [ "-" ] ( "0" / digit1-9 *digit ) [ "." 1*digit ]
     [ ( "e" / "E" ) [ "+" / "-" ] 1*digit ], so every lexeme that
     gets through is one float_of_string accepts. *)
  let parse_number () =
    let start = !pos in
    let integral = ref true in
    let rec more_digits () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          more_digits ()
      | _ -> ()
    in
    let digits () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          more_digits ()
      | _ -> fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits ();
    (match peek () with
    | Some '.' ->
        integral := false;
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    let lexeme = String.sub s start (!pos - start) in
    if !integral then
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> Float (float_of_string lexeme)
    else Float (float_of_string lexeme)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Typed accessors for walking parsed documents. *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
