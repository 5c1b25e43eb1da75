module Ast = Sdds_xpath.Ast

type pred_id = int

type cstep = { axis : Ast.axis; test : Ast.test; step_preds : pred_id list }
type cpath = cstep array
type cpred = { ppath : cpath; target : Ast.pred_target }

type source = Rule_src of int | Query_src

type spine = { source : source; sign : Rule.sign; cpath : cpath }

type token = { key : int; path : int; pos : int; conds : int list }

type t = {
  spines : spine array;
  preds : cpred array;
  paths : cpath array;
  step_tags : int array array;
  tag_ids : (string, int) Hashtbl.t;
  canon : token array array;
}

(* Number every literal tag in first-occurrence order and give each step
   the id its test matches, -1 for [*]; the engine compares ints on its
   hot path instead of strings. *)
let tag_tables paths =
  let tag_ids = Hashtbl.create 16 in
  let id_of n =
    match Hashtbl.find_opt tag_ids n with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tag_ids in
        Hashtbl.add tag_ids n id;
        id
  in
  let step_tags =
    Array.map
      (Array.map (fun step ->
           match step.test with Ast.Any -> -1 | Ast.Name n -> id_of n))
      paths
  in
  (tag_ids, step_tags)

let compile ?query rules =
  let preds = ref [] in
  let npreds = ref 0 in
  let rec compile_steps steps =
    Array.of_list
      (List.map
         (fun { Ast.axis; test; preds = ps } ->
           { axis; test; step_preds = List.map compile_pred ps })
         steps)
  and compile_pred { Ast.ppath; target } =
    let compiled = { ppath = compile_steps ppath; target } in
    let id = !npreds in
    incr npreds;
    preds := compiled :: !preds;
    id
  in
  let rule_spines =
    List.mapi
      (fun i r ->
        {
          source = Rule_src i;
          sign = r.Rule.sign;
          cpath = compile_steps r.Rule.path.Ast.steps;
        })
      rules
  in
  let query_spines =
    match query with
    | None -> []
    | Some q ->
        [ { source = Query_src; sign = Rule.Allow; cpath = compile_steps q.Ast.steps } ]
  in
  let spines = Array.of_list (rule_spines @ query_spines) in
  let preds = Array.of_list (List.rev !preds) in
  let paths =
    Array.append
      (Array.map (fun sp -> sp.cpath) spines)
      (Array.map (fun p -> p.ppath) preds)
  in
  let tag_ids, step_tags = tag_tables paths in
  let canon =
    Array.mapi
      (fun i sp ->
        Array.init (Array.length sp.cpath) (fun pos ->
            { key = i; path = i; pos; conds = [] }))
      spines
  in
  { spines; preds; paths; step_tags; tag_ids; canon }

let tag_id t tag =
  match Hashtbl.find t.tag_ids tag with
  | id -> id
  | exception Not_found -> -1

let can_complete path ~from ~tag_possible ~nonempty =
  let n = Array.length path in
  let i = ref (max 0 from) in
  while
    !i < n
    &&
    match path.(!i).test with
    | Ast.Name tag -> tag_possible tag
    | Ast.Any -> nonempty
  do
    incr i
  done;
  !i >= n

let state_count t =
  let pred_states =
    Array.fold_left (fun acc p -> acc + Array.length p.ppath) 0 t.preds
  in
  Array.fold_left (fun acc s -> acc + Array.length s.cpath) pred_states t.spines
