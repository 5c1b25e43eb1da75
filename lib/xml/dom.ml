type t = Element of string * t list | Text of string

let element tag children = Element (tag, children)
let text s = Text s

let tag = function Element (t, _) -> Some t | Text _ -> None
let children = function Element (_, c) -> c | Text _ -> []

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element (ta, ca), Element (tb, cb) ->
      String.equal ta tb && List.equal equal ca cb
  | Text _, Element _ | Element _, Text _ -> false

let to_events doc =
  let rec go acc = function
    | Text v -> Event.Value v :: acc
    | Element (tag, kids) ->
        let acc = Event.Open tag :: acc in
        let acc = List.fold_left go acc kids in
        Event.Close tag :: acc
  in
  List.rev (go [] doc)

(* One frame per open element; its children are added in place, newest
   first. *)
type frame = { ftag : string; mutable kids : t list }

let of_events evs =
  let rec go stack evs =
    match (evs, stack) with
    | [], [] -> invalid_arg "Dom.of_events: empty stream"
    | [], _ :: _ -> invalid_arg "Dom.of_events: unclosed elements"
    | Event.Open tag :: rest, _ -> go ({ ftag = tag; kids = [] } :: stack) rest
    | Event.Value v :: rest, f :: _ ->
        f.kids <- Text v :: f.kids;
        go stack rest
    | Event.Value _ :: _, [] -> invalid_arg "Dom.of_events: text at top level"
    | Event.Close tag :: rest, f :: up -> (
        if not (String.equal tag f.ftag) then
          invalid_arg "Dom.of_events: mismatched close";
        let node = Element (tag, List.rev f.kids) in
        match (up, rest) with
        | [], [] -> node
        | [], _ :: _ -> invalid_arg "Dom.of_events: trailing events"
        | parent :: _, _ ->
            parent.kids <- node :: parent.kids;
            go up rest)
    | Event.Close _ :: _, [] -> invalid_arg "Dom.of_events: close at top level"
  in
  go [] evs

let rec node_count = function
  | Text _ -> 0
  | Element (_, kids) -> 1 + List.fold_left (fun a k -> a + node_count k) 0 kids

let rec text_bytes = function
  | Text v -> String.length v
  | Element (_, kids) -> List.fold_left (fun a k -> a + text_bytes k) 0 kids

let rec depth = function
  | Text _ -> 0
  | Element (_, kids) ->
      1 + List.fold_left (fun a k -> max a (depth k)) 0 kids

let distinct_tags doc =
  let module S = Set.Make (String) in
  let rec go acc = function
    | Text _ -> acc
    | Element (tag, kids) -> List.fold_left go (S.add tag acc) kids
  in
  S.elements (go S.empty doc)

let find_all p doc =
  let acc = ref [] in
  let rec go rev_path node =
    match node with
    | Text _ -> ()
    | Element (tag, kids) ->
        if p rev_path node then acc := node :: !acc;
        List.iter (go (tag :: rev_path)) kids
  in
  go [] doc;
  List.rev !acc

let rec pp ppf = function
  | Text v -> Format.fprintf ppf "%S" v
  | Element (tag, kids) ->
      Format.fprintf ppf "<%s>%a</%s>" tag
        (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp)
        kids tag
