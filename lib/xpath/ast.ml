type axis = Child | Descendant
type test = Name of string | Any
type comparison = Eq | Neq | Lt | Le | Gt | Ge

type pred_target = Exists | Value of comparison * string

type step = { axis : axis; test : test; preds : pred list }
and pred = { ppath : step list; target : pred_target }

type t = { steps : step list }

let compare_values op actual literal =
  let numeric =
    match (float_of_string_opt actual, float_of_string_opt literal) with
    | Some a, Some b -> Some (compare a b)
    | None, _ | _, None -> None
  in
  let c =
    match numeric with Some c -> c | None -> String.compare actual literal
  in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let string_of_comparison = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_steps ~leading ppf steps =
  List.iteri
    (fun i { axis; test; preds } ->
      let sep = match axis with Child -> "/" | Descendant -> "//" in
      if i > 0 || leading then Format.pp_print_string ppf sep;
      (match test with
      | Name n -> Format.pp_print_string ppf n
      | Any -> Format.pp_print_char ppf '*');
      List.iter (pp_pred ppf) preds)
    steps

and pp_pred ppf { ppath; target } =
  Format.pp_print_char ppf '[';
  (match ppath with
  | [] -> Format.pp_print_char ppf '.'
  | first :: _ ->
      (* Relative predicate paths print as [p], [.//p], never a bare '/'. *)
      (match first.axis with
      | Child -> ()
      | Descendant -> Format.pp_print_string ppf ".//");
      pp_steps ~leading:false ppf
        ({ first with axis = Child } :: List.tl ppath));
  (match target with
  | Exists -> ()
  | Value (op, lit) ->
      Format.fprintf ppf "%s\"%s\"" (string_of_comparison op) lit);
  Format.pp_print_char ppf ']'

let pp ppf t = pp_steps ~leading:true ppf t.steps

let to_string t = Format.asprintf "%a" pp t

let rec size_steps steps =
  List.fold_left
    (fun acc s ->
      acc + 1
      + List.fold_left (fun a p -> a + size_steps p.ppath) 0 s.preds)
    0 steps

let size t = size_steps t.steps

let rec equal_steps a b = List.equal equal_step a b

and equal_step a b =
  a.axis = b.axis && a.test = b.test && List.equal equal_pred a.preds b.preds

and equal_pred a b = a.target = b.target && equal_steps a.ppath b.ppath

let equal a b = equal_steps a.steps b.steps
