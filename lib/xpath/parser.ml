exception Error of int * string

type state = { input : string; mutable pos : int }

let fail st msg = raise (Error (st.pos, msg))

let peek st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.input then Some st.input.[st.pos + 1]
  else None

let advance st = st.pos <- st.pos + 1

let skip_spaces st =
  while (match peek st with Some (' ' | '\t') -> true | _ -> false) do
    advance st
  done

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

let read_name st =
  let start = st.pos in
  (match peek st with
  | Some '@' -> advance st
  | _ -> ());
  (match peek st with
  | Some c when is_name_start c -> advance st
  | _ -> fail st "expected a name");
  while (match peek st with Some c -> is_name_char c | None -> false) do
    advance st
  done;
  String.sub st.input start (st.pos - start)

(* Reads a single or double slash and returns the axis. *)
let read_axis st =
  match peek st with
  | Some '/' ->
      advance st;
      if peek st = Some '/' then begin
        advance st;
        Ast.Descendant
      end
      else Ast.Child
  | _ -> fail st "expected '/' or '//'"

let read_test st =
  match peek st with
  | Some '*' ->
      advance st;
      Ast.Any
  | Some ('@' | 'a' .. 'z' | 'A' .. 'Z' | '_') -> Ast.Name (read_name st)
  | _ -> fail st "expected a node test"

let read_comparison st =
  skip_spaces st;
  match (peek st, peek2 st) with
  | Some '!', Some '=' ->
      advance st;
      advance st;
      Some Ast.Neq
  | Some '=', _ ->
      advance st;
      Some Ast.Eq
  | Some '<', Some '=' ->
      advance st;
      advance st;
      Some Ast.Le
  | Some '<', _ ->
      advance st;
      Some Ast.Lt
  | Some '>', Some '=' ->
      advance st;
      advance st;
      Some Ast.Ge
  | Some '>', _ ->
      advance st;
      Some Ast.Gt
  | _, _ -> None

let read_literal st =
  skip_spaces st;
  match peek st with
  | Some (('"' | '\'') as q) ->
      advance st;
      let start = st.pos in
      let close =
        match String.index_from_opt st.input st.pos q with
        | Some i -> i
        | None -> fail st "unterminated string literal"
      in
      st.pos <- close + 1;
      String.sub st.input start (close - start)
  | Some ('0' .. '9' | '-' | '+') ->
      let start = st.pos in
      (match peek st with Some ('-' | '+') -> advance st | _ -> ());
      while
        (match peek st with Some ('0' .. '9' | '.') -> true | _ -> false)
      do
        advance st
      done;
      if st.pos = start then fail st "expected a literal";
      String.sub st.input start (st.pos - start)
  | _ -> fail st "expected a literal"

let rec read_steps st ~first_axis =
  let rec go acc axis =
    let test = read_test st in
    let preds = read_predicates st in
    let acc = { Ast.axis; test; preds } :: acc in
    match peek st with
    | Some '/' -> go acc (read_axis st)
    | _ -> List.rev acc
  in
  go [] first_axis

and read_predicates st =
  match peek st with
  | Some '[' ->
      advance st;
      skip_spaces st;
      let ppath =
        match peek st with
        | Some '.' ->
            advance st;
            (match peek st with
            | Some '/' ->
                let axis = read_axis st in
                read_steps st ~first_axis:axis
            | _ -> [])
        | Some '/' -> fail st "predicate paths are relative"
        | _ -> read_steps st ~first_axis:Ast.Child
      in
      let target =
        match read_comparison st with
        | None -> Ast.Exists
        | Some op -> Ast.Value (op, read_literal st)
      in
      if ppath = [] && target = Ast.Exists then
        fail st "predicate '.' requires a comparison";
      skip_spaces st;
      (match peek st with
      | Some ']' -> advance st
      | _ -> fail st "expected ']'");
      { Ast.ppath; target } :: read_predicates st
  | _ -> []

let parse input =
  let st = { input; pos = 0 } in
  skip_spaces st;
  let axis =
    match peek st with
    | Some '/' -> read_axis st
    | _ -> fail st "an absolute path starts with '/' or '//'"
  in
  let steps = read_steps st ~first_axis:axis in
  skip_spaces st;
  if st.pos <> String.length input then fail st "trailing characters";
  { Ast.steps }
