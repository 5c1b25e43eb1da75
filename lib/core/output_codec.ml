module Varint = Sdds_util.Varint

(* Event tags *)
let tag_open = 0
let tag_text = 1
let tag_close = 2
let tag_resolve_true = 3
let tag_resolve_false = 4

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

let encode buf = function
  | Output.Open_node { tag; neg; pos; query } ->
      Varint.write buf tag_open;
      write_string buf tag;
      write_cond buf neg;
      write_cond buf pos;
      write_cond buf query
  | Output.Text_node v ->
      Varint.write buf tag_text;
      write_string buf v
  | Output.Close_node tag ->
      Varint.write buf tag_close;
      write_string buf tag
  | Output.Resolve (v, b) ->
      Varint.write buf (if b then tag_resolve_true else tag_resolve_false);
      Varint.write buf v

let encode_list outs =
  let buf = Buffer.create 1024 in
  List.iter (encode buf) outs;
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

let decode s pos =
  let tag, pos = Varint.read s pos in
  if tag = tag_open then begin
    let name, pos = read_string s pos in
    let neg, pos = read_cond s pos in
    let pos_e, pos = read_cond s pos in
    let query, pos = read_cond s pos in
    (Output.Open_node { tag = name; neg; pos = pos_e; query }, pos)
  end
  else if tag = tag_text then begin
    let v, pos = read_string s pos in
    (Output.Text_node v, pos)
  end
  else if tag = tag_close then begin
    let name, pos = read_string s pos in
    (Output.Close_node name, pos)
  end
  else if tag = tag_resolve_true || tag = tag_resolve_false then begin
    let v, pos = Varint.read s pos in
    (Output.Resolve (v, tag = tag_resolve_true), pos)
  end
  else invalid_arg "Output_codec: bad event tag"

let decode_list s =
  let n = String.length s in
  let rec go acc pos =
    if pos = n then List.rev acc
    else begin
      let ev, pos = decode s pos in
      go (ev :: acc) pos
    end
  in
  go [] 0

(* Sizes by arithmetic, mirroring [encode]. Every event and condition
   tag is below 0x80, so each takes one varint byte. *)
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

let encoded_size = function
  | Output.Open_node { tag; neg; pos; query } ->
      1 + string_size tag + cond_size neg + cond_size pos + cond_size query
  | Output.Text_node s | Output.Close_node s -> 1 + string_size s
  | Output.Resolve (v, _) -> 1 + Varint.size v

let size_list outs = List.fold_left (fun acc o -> acc + encoded_size o) 0 outs
