module Varint = Sdds_util.Varint
module Tags = Hashtbl.Make (String)

(* Event headers, each one varint byte. An open's code is [h_open] plus
   [h_new_tag] when its tag is sent by name, plus the shapes of [neg],
   [pos] and [query] in base 3. *)
let h_text = 0
let h_close = 1
let h_resolve_true = 2
let h_resolve_false = 3
let h_open = 4
let h_new_tag = 27
let h_end = h_open + (2 * h_new_tag)

(* Slot shapes: a constant folds into the header; anything else is an
   expression written after it. *)
let s_true = 0
let s_false = 1
let s_expr = 2

let shape = function Cond.True -> s_true | Cond.False -> s_false | _ -> s_expr

(* Condition expression tags *)
let c_true = 0
let c_false = 1
let c_var = 2
let c_and = 3
let c_or = 4

let write_string buf s =
  Varint.write buf (String.length s);
  Buffer.add_string buf s

let rec write_cond buf = function
  | Cond.True -> Varint.write buf c_true
  | Cond.False -> Varint.write buf c_false
  | Cond.Var v ->
      Varint.write buf c_var;
      Varint.write buf v
  | Cond.And xs ->
      Varint.write buf c_and;
      Varint.write buf (List.length xs);
      List.iter (write_cond buf) xs
  | Cond.Or xs ->
      Varint.write buf c_or;
      Varint.write buf (List.length xs);
      List.iter (write_cond buf) xs

let write_slot buf = function
  | Cond.True | Cond.False -> ()
  | c -> write_cond buf c

(* The stream index of [tag]; on its first use -1, and [tag] joins the
   table. *)
let intern table tag =
  match Tags.find table tag with
  | i -> i
  | exception Not_found ->
      Tags.add table tag (Tags.length table);
      -1

let encode_list outs =
  let buf = Buffer.create 1024 in
  let table = Tags.create 16 in
  let rec go opened = function
    | [] -> ()
    | Output.Open_node { tag; neg; pos; query } :: rest ->
        let i = intern table tag in
        Varint.write buf
          (h_open
          + (if i < 0 then h_new_tag else 0)
          + (9 * shape neg) + (3 * shape pos) + shape query);
        if i < 0 then write_string buf tag else Varint.write buf i;
        write_slot buf neg;
        write_slot buf pos;
        write_slot buf query;
        go (tag :: opened) rest
    | Output.Close_node tag :: rest -> (
        match opened with
        | top :: opened when String.equal top tag ->
            Varint.write buf h_close;
            go opened rest
        | _ -> invalid_arg "Output_codec: close does not match its open")
    | Output.Text_node v :: rest ->
        Varint.write buf h_text;
        write_string buf v;
        go opened rest
    | Output.Resolve (v, b) :: rest ->
        Varint.write buf (if b then h_resolve_true else h_resolve_false);
        Varint.write buf v;
        go opened rest
  in
  go [] outs;
  Buffer.contents buf

let read_string s pos =
  let len, pos = Varint.read s pos in
  if pos + len > String.length s then
    invalid_arg "Output_codec: truncated string";
  (String.sub s pos len, pos + len)

let rec read_cond s pos =
  let tag, pos = Varint.read s pos in
  if tag = c_true then (Cond.tt, pos)
  else if tag = c_false then (Cond.ff, pos)
  else if tag = c_var then begin
    let v, pos = Varint.read s pos in
    (Cond.var v, pos)
  end
  else if tag = c_and || tag = c_or then begin
    let n, pos = Varint.read s pos in
    if n < 0 || n > 100_000 then invalid_arg "Output_codec: absurd arity";
    let rec go acc pos i =
      if i = n then (List.rev acc, pos)
      else begin
        let x, pos = read_cond s pos in
        go (x :: acc) pos (i + 1)
      end
    in
    let xs, pos = go [] pos 0 in
    ((if tag = c_and then Cond.conj xs else Cond.disj xs), pos)
  end
  else invalid_arg "Output_codec: bad condition tag"

let read_slot s pos shape =
  if shape = s_true then (Cond.tt, pos)
  else if shape = s_false then (Cond.ff, pos)
  else read_cond s pos

let decode_list s =
  let n = String.length s in
  (* The first-occurrence table: [names.(i)] for [i < !count]. *)
  let names = ref [||] and count = ref 0 in
  let learn name =
    if !count = Array.length !names then begin
      let grown = Array.make (max 8 (2 * !count)) "" in
      Array.blit !names 0 grown 0 !count;
      names := grown
    end;
    !names.(!count) <- name;
    incr count
  in
  let rec go acc opened pos =
    if pos = n then List.rev acc
    else begin
      let h, pos = Varint.read s pos in
      if h = h_text then begin
        let v, pos = read_string s pos in
        go (Output.Text_node v :: acc) opened pos
      end
      else if h = h_close then begin
        match opened with
        | tag :: opened -> go (Output.Close_node tag :: acc) opened pos
        | [] -> invalid_arg "Output_codec: close without an open"
      end
      else if h = h_resolve_true || h = h_resolve_false then begin
        let v, pos = Varint.read s pos in
        go (Output.Resolve (v, h = h_resolve_true) :: acc) opened pos
      end
      else if h >= h_open && h < h_end then begin
        let code = h - h_open in
        let tag, pos =
          if code >= h_new_tag then begin
            let name, pos = read_string s pos in
            learn name;
            (name, pos)
          end
          else begin
            let i, pos = Varint.read s pos in
            if i < 0 || i >= !count then
              invalid_arg "Output_codec: tag index beyond the table";
            (!names.(i), pos)
          end
        in
        let code = code mod h_new_tag in
        let neg, pos = read_slot s pos (code / 9) in
        let pos_e, pos = read_slot s pos (code / 3 mod 3) in
        let query, pos = read_slot s pos (code mod 3) in
        go
          (Output.Open_node { tag; neg; pos = pos_e; query } :: acc)
          (tag :: opened) pos
      end
      else invalid_arg "Output_codec: bad event header"
    end
  in
  go [] [] 0

(* Sizes by arithmetic, mirroring [encode_list]. Every header and
   condition tag is below 0x80, so each takes one varint byte. *)
let string_size s =
  let n = String.length s in
  Varint.size n + n

let rec cond_size = function
  | Cond.True | Cond.False -> 1
  | Cond.Var v -> 1 + Varint.size v
  | Cond.And xs | Cond.Or xs -> 1 + conds_size 0 0 xs

and conds_size arity acc = function
  | [] -> Varint.size arity + acc
  | x :: xs -> conds_size (arity + 1) (acc + cond_size x) xs

let slot_size = function Cond.True | Cond.False -> 0 | c -> cond_size c

let size_list outs =
  let table = Tags.create 16 in
  let rec go acc = function
    | [] -> acc
    | Output.Open_node { tag; neg; pos; query } :: rest ->
        let i = intern table tag in
        let tag_size = if i < 0 then string_size tag else Varint.size i in
        go
          (acc + 1 + tag_size + slot_size neg + slot_size pos
         + slot_size query)
          rest
    | Output.Close_node _ :: rest -> go (acc + 1) rest
    | Output.Text_node s :: rest -> go (acc + 1 + string_size s) rest
    | Output.Resolve (v, _) :: rest -> go (acc + 1 + Varint.size v) rest
  in
  go 0 outs
