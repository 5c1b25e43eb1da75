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

(* The decoder's cursor: each read advances [pos] ([Varint.next]), so no
   read returns a (value, position) pair. [names.(i)] and the shared
   [closes.(i)], for [i < count], are the first-occurrence table;
   [opened.(0 .. depth-1)] are the table indices of the elements still
   open. *)
type cursor = {
  s : string;
  pos : int ref;
  mutable names : string array;
  mutable closes : Output.t array;
  mutable count : int;
  mutable opened : int array;
  mutable depth : int;
}

let varint c = Varint.next c.s c.pos

let read_string c =
  let len = varint c in
  let pos = !(c.pos) in
  if pos + len > String.length c.s then
    invalid_arg "Output_codec: truncated string";
  c.pos := pos + len;
  String.sub c.s pos len

let rec read_cond c =
  let tag = varint c in
  if tag = c_true then Cond.tt
  else if tag = c_false then Cond.ff
  else if tag = c_var then Cond.var (varint c)
  else if tag = c_and || tag = c_or then begin
    let n = varint c in
    if n < 0 || n > 100_000 then invalid_arg "Output_codec: absurd arity";
    let xs = read_conds c n [] in
    if tag = c_and then Cond.conj xs else Cond.disj xs
  end
  else invalid_arg "Output_codec: bad condition tag"

and read_conds c n acc =
  if n = 0 then List.rev acc
  else begin
    let x = read_cond c in
    read_conds c (n - 1) (x :: acc)
  end

let read_slot c shape =
  if shape = s_true then Cond.tt
  else if shape = s_false then Cond.ff
  else read_cond c

(* [a], or a copy of its first [n] entries with room for more, so that
   index [n] exists. *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* The table index of the open's tag: a new name joins the table. *)
let read_tag c ~is_new =
  if is_new then begin
    let name = read_string c in
    c.names <- room c.names c.count "";
    c.closes <- room c.closes c.count (Output.Close_node "");
    c.names.(c.count) <- name;
    c.closes.(c.count) <- Output.Close_node name;
    c.count <- c.count + 1;
    c.count - 1
  end
  else begin
    let i = varint c in
    if i < 0 || i >= c.count then
      invalid_arg "Output_codec: tag index beyond the table";
    i
  end

let push_open c i =
  c.opened <- room c.opened c.depth 0;
  c.opened.(c.depth) <- i;
  c.depth <- c.depth + 1

let iter f s =
  let c =
    {
      s;
      pos = ref 0;
      names = [||];
      closes = [||];
      count = 0;
      opened = [||];
      depth = 0;
    }
  in
  while !(c.pos) < String.length s do
    let h = varint c in
    if h = h_text then f (Output.Text_node (read_string c))
    else if h = h_close then begin
      if c.depth = 0 then invalid_arg "Output_codec: close without an open";
      c.depth <- c.depth - 1;
      f c.closes.(c.opened.(c.depth))
    end
    else if h = h_resolve_true || h = h_resolve_false then
      f (Output.Resolve (varint c, h = h_resolve_true))
    else if h >= h_open && h < h_end then begin
      let code = h - h_open in
      let i = read_tag c ~is_new:(code >= h_new_tag) in
      let code = code mod h_new_tag in
      let neg = read_slot c (code / 9) in
      let pos = read_slot c (code / 3 mod 3) in
      let query = read_slot c (code mod 3) in
      push_open c i;
      f (Output.Open_node { tag = c.names.(i); neg; pos; query })
    end
    else invalid_arg "Output_codec: bad event header"
  done

let decode_list s =
  let outs = ref [] in
  iter (fun o -> outs := o :: !outs) s;
  List.rev !outs

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
