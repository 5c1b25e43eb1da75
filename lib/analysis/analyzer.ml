module Ast = Sdds_xpath.Ast
module Containment = Sdds_xpath.Containment
module Rule = Sdds_core.Rule
module Rule_opt = Sdds_core.Rule_opt
module Schema = Sdds_core.Schema
module Compile = Sdds_core.Compile

type report = {
  rules : Rule.t array;
  diagnostics : Diag.t list;
  bound : Memory_bound.t;
  kept : int;
}

(* Run one pass, converting an escape into a diagnostic instead of
   aborting the whole analysis. *)
let guarded ~pass f =
  try f () with
  | exn -> [ Diag.Internal_error { pass; message = Printexc.to_string exn } ]

(* All literal tag names a path mentions, predicates included. *)
let rec step_tags acc (s : Ast.step) =
  let acc =
    match s.Ast.test with Ast.Name n -> n :: acc | Ast.Any -> acc
  in
  List.fold_left
    (fun acc (p : Ast.pred) -> List.fold_left step_tags acc p.Ast.ppath)
    acc s.Ast.preds

let path_tags (p : Ast.t) =
  List.sort_uniq String.compare (List.fold_left step_tags [] p.Ast.steps)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let dead_rules rules verdicts =
  let diags = ref [] in
  Array.iteri
    (fun i v ->
      match v with
      | Rule_opt.Kept -> ()
      | Rule_opt.Subsumed { by } ->
          diags :=
            Diag.Dead_rule
              { rule = i; covered_by = by; kept = Rule_opt.representative verdicts i }
            :: !diags)
    verdicts;
  ignore rules;
  List.rev !diags

(* Pairs where the homomorphism test failed but no canonical
   counterexample refutes containment either: the sound-but-incomplete
   test's blind spot, surfaced honestly. Only pairs whose signs would
   make the shadowing meaningful are checked, and pairs already reported
   dead are skipped. *)
let unsure_shadows rules verdicts =
  let n = Array.length rules in
  let sign_compatible r by =
    match (r.Rule.sign, by.Rule.sign) with
    | Rule.Allow, Rule.Allow | Rule.Deny, Rule.Deny | Rule.Allow, Rule.Deny ->
        true
    | Rule.Deny, Rule.Allow -> false
  in
  let diags = ref [] in
  for i = 0 to n - 1 do
    if verdicts.(i) = Rule_opt.Kept then
      for j = 0 to n - 1 do
        if
          j <> i
          && String.equal rules.(i).Rule.subject rules.(j).Rule.subject
          && sign_compatible rules.(i) rules.(j)
        then
          match Containment.decide rules.(j).Rule.path rules.(i).Rule.path with
          | Containment.Contained | Containment.Not_contained _ -> ()
          | Containment.Unknown candidate ->
              diags :=
                Diag.Unsure_shadow { rule = i; by = j; candidate } :: !diags
      done
  done;
  List.rev !diags

let unsat_under_schema schema rules =
  let diags = ref [] in
  Array.iteri
    (fun i r ->
      if not (Schema.satisfiable schema r.Rule.path) then
        diags := Diag.Unsat_schema { rule = i } :: !diags)
    rules;
  List.rev !diags

let unknown_tags dictionary rules =
  let known tag = List.mem tag dictionary in
  let diags = ref [] in
  Array.iteri
    (fun i r ->
      List.iter
        (fun tag ->
          if not (known tag) then
            diags := Diag.Unknown_tag { rule = i; tag } :: !diags)
        (path_tags r.Rule.path))
    rules;
  List.rev !diags

let overlaps rules =
  let n = Array.length rules in
  let diags = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if rules.(i).Rule.sign = Rule.Allow && rules.(j).Rule.sign = Rule.Deny
      then
        match Overlap.find ~allow:rules.(i) ~deny:rules.(j) with
        | None -> ()
        | Some (relation, winner, witness, node) ->
            diags :=
              Diag.Overlap
                { allow = i; deny = j; relation; winner; witness; node }
              :: !diags
    done
  done;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let severity_rank = function
  | Diag.Error -> 0
  | Diag.Warning -> 1
  | Diag.Info -> 2

let run ?schema ?dictionary ?depth ?budget_bytes ?query rules_list =
  let rules = Array.of_list rules_list in
  let verdicts =
    try Rule_opt.analyze rules_list
    with _ -> Array.map (fun _ -> Rule_opt.Kept) rules
  in
  let kept =
    Array.fold_left
      (fun acc v -> if v = Rule_opt.Kept then acc + 1 else acc)
      0 verdicts
  in
  let depth, depth_from_schema =
    match depth with
    | Some d -> (d, false)
    | None -> (
        match schema with
        | Some s -> (
            match Schema.depth_bound s with
            | Some d -> (d, true)
            | None -> (Memory_bound.default_depth, false))
        | None -> (Memory_bound.default_depth, false))
  in
  let tag_possible =
    match (schema, dictionary) with
    | _, Some tags -> Some (fun t -> List.mem t tags)
    | Some s, None -> Some (fun t -> Schema.declared s t)
    | None, None -> None
  in
  let compiled = Compile.compile ?query rules_list in
  let bound =
    Memory_bound.compute ?tag_possible
      ?dict_size:(Option.map List.length dictionary)
      ~depth compiled
  in
  let diagnostics =
    guarded ~pass:"dead-rules" (fun () -> dead_rules rules verdicts)
    @ guarded ~pass:"unsure-shadows" (fun () -> unsure_shadows rules verdicts)
    @ (match schema with
      | None -> []
      | Some s ->
          guarded ~pass:"schema-satisfiability" (fun () ->
              unsat_under_schema s rules))
    @ (match dictionary with
      | None -> []
      | Some tags ->
          guarded ~pass:"dictionary-tags" (fun () -> unknown_tags tags rules))
    @ guarded ~pass:"overlaps" (fun () -> overlaps rules)
    @ [
        Diag.Memory_bound
          {
            bound_bytes = bound.Memory_bound.bound_bytes;
            budget_bytes;
            depth;
            depth_from_schema;
          };
      ]
  in
  let diagnostics =
    List.stable_sort
      (fun a b ->
        compare (severity_rank (Diag.severity a)) (severity_rank (Diag.severity b)))
      diagnostics
  in
  { rules; diagnostics; bound; kept }

let has_errors report =
  List.exists (fun d -> Diag.severity d = Diag.Error) report.diagnostics

let to_json report =
  Json.Obj
    [
      ("rules", Json.Int (Array.length report.rules));
      ("kept", Json.Int report.kept);
      ( "bound",
        Json.Obj
          [
            ("depth", Json.Int report.bound.Memory_bound.depth);
            ("state_words", Json.Int report.bound.Memory_bound.state_words);
            ("reader_words", Json.Int report.bound.Memory_bound.reader_words);
            ("bound_bytes", Json.Int report.bound.Memory_bound.bound_bytes);
          ] );
      ( "diagnostics",
        Json.List
          (List.map (Diag.to_json ~rules:report.rules) report.diagnostics) );
    ]

let pp ppf report =
  Format.fprintf ppf "%d rule(s), %d kept after pruning@."
    (Array.length report.rules) report.kept;
  Format.fprintf ppf
    "static memory bound at depth %d: %d state words, %d reader words, %dB@."
    report.bound.Memory_bound.depth report.bound.Memory_bound.state_words
    report.bound.Memory_bound.reader_words
    report.bound.Memory_bound.bound_bytes;
  List.iter
    (fun d -> Format.fprintf ppf "%a@." (Diag.pp ~rules:report.rules) d)
    report.diagnostics
