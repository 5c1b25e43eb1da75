type var = int

type t = True | False | Var of var | And of t list | Or of t list

let tt = True
let ff = False
let var v = Var v
let of_bool b = if b then True else False

let to_bool = function
  | True -> Some true
  | False -> Some false
  | Var _ | And _ | Or _ -> None

(* Smart constructors keep expressions flat, constant-free and
   duplicate-free; they do not attempt full BDD-style canonization (the
   engine produces shallow expressions in practice). *)

let rec flatten_and acc = function
  | [] -> Some (List.rev acc)
  | True :: rest -> flatten_and acc rest
  | False :: _ -> None
  | And xs :: rest -> flatten_and acc (xs @ rest)
  | (Var _ | Or _) as x :: rest -> flatten_and (x :: acc) rest

let rec flatten_or acc = function
  | [] -> Some (List.rev acc)
  | False :: rest -> flatten_or acc rest
  | True :: _ -> None
  | Or xs :: rest -> flatten_or acc (xs @ rest)
  | (Var _ | And _) as x :: rest -> flatten_or (x :: acc) rest

let dedup xs =
  let rec go seen = function
    | [] -> []
    | x :: rest ->
        if List.exists (fun y -> y = x) seen then go seen rest
        else x :: go (x :: seen) rest
  in
  go [] xs

let conj xs =
  match flatten_and [] xs with
  | None -> False
  | Some xs -> (
      match dedup xs with [] -> True | [ x ] -> x | xs -> And xs)

let disj xs =
  match flatten_or [] xs with
  | None -> True
  | Some xs -> (
      match dedup xs with [] -> False | [ x ] -> x | xs -> Or xs)

let rec vars_acc acc = function
  | True | False -> acc
  | Var v -> v :: acc
  | And xs | Or xs -> List.fold_left vars_acc acc xs

let vars t = List.sort_uniq compare (vars_acc [] t)

let rec eval lookup = function
  | True -> true
  | False -> false
  | Var v -> lookup v
  | And xs -> List.for_all (eval lookup) xs
  | Or xs -> List.exists (eval lookup) xs

let equal (a : t) (b : t) = a = b

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "T"
  | False -> Format.pp_print_string ppf "F"
  | Var v -> Format.fprintf ppf "c%d" v
  | And xs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
           pp)
        xs
  | Or xs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
           pp)
        xs

let rec size = function
  | True | False | Var _ -> 1
  | And xs | Or xs -> List.fold_left (fun a x -> a + size x) 1 xs
