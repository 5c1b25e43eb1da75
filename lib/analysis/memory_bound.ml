module Ast = Sdds_xpath.Ast
module Compile = Sdds_core.Compile
module Ram = Sdds_core.Ram

type t = {
  depth : int;
  state_words : int;
  reader_words : int;
  bound_bytes : int;
}

let default_depth = 16

(* Saturating arithmetic over a cap far above any plausible RAM budget:
   an adversarial rule set must yield "too big", never a wrapped small
   number. *)
let cap = 0x3FFFFFFF
let sat_add a b = if a >= cap - b then cap else a + b
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a >= (cap + b - 1) / b then cap else a * b

(* ------------------------------------------------------------------ *)
(* Path contexts                                                       *)
(* ------------------------------------------------------------------ *)

(* Everything the per-frame sums need to know about one compiled path
   (a spine, or the path of a live predicate). Frame depths: 0 is the
   engine's virtual-root frame, an element at document depth d (root =
   1) owns frame d. *)
type ctx = {
  is_pred : bool;
  owner_amb : bool;  (* anchor depth ambiguous (preds under // sites) *)
  anchor_lo : int;  (* minimal anchor frame depth (0 for spines) *)
  steps : Compile.cstep array;
  first_blocked : int;
      (* index of the first step that can never match under
         [tag_possible] ([length] when all can); token positions beyond
         it are unreachable *)
}

let max_pos ctx = min (Array.length ctx.steps - 1) ctx.first_blocked

(* Minimal frame depth where a position-[i] token can wait. *)
let lo ctx i = ctx.anchor_lo + i

(* Whether the frame depth of a position-[i] token is ambiguous: some
   earlier step used the descendant axis, or the anchor itself floats. *)
let amb_before ctx i =
  ctx.owner_amb
  || begin
       let rec scan j =
         j < i
         && (ctx.steps.(j).Compile.axis = Ast.Descendant || scan (j + 1))
       in
       scan 0
     end

(* Match-depth ambiguity of step [j] (where its predicates anchor). *)
let amb_at_match ctx j =
  amb_before ctx j || ctx.steps.(j).Compile.axis = Ast.Descendant

let n_preds ctx j = List.length ctx.steps.(j).Compile.step_preds

(* Distinct condition sets a position-[i] token can carry in a frame at
   depth [d]: each predicate-bearing matched step contributes one
   variable, identified by the step's match depth. *)
let conds_combos ctx ~upto ~d =
  let acc = ref 1 in
  for j = 0 to upto - 1 do
    if n_preds ctx j > 0 && amb_at_match ctx j then
      acc := sat_mul !acc (max 1 (d - lo ctx j))
  done;
  !acc

(* Length bound of those condition sets (words per token above 3). *)
let conds_len ctx ~upto =
  let acc = ref 0 in
  for j = 0 to min upto ctx.first_blocked - 1 do
    acc := sat_add !acc (n_preds ctx j)
  done;
  !acc

(* Simultaneously live instances anchored shallow enough to reach frame
   [d] (one per open anchor depth). *)
let owner_mult ctx ~d =
  if not ctx.is_pred then 1
  else if ctx.owner_amb then max 1 (min d (cap - 1) - ctx.anchor_lo + 1)
  else 1

(* ------------------------------------------------------------------ *)
(* Activity / ambiguity propagation                                    *)
(* ------------------------------------------------------------------ *)

type pred_state = {
  mutable active : bool;
  mutable p_owner_amb : bool;
  mutable p_anchor_lo : int;
}

(* Mark every predicate reachable from the spines with the weakest
   (largest) anchor ambiguity and smallest anchor depth over its
   reference sites, recursively. The site graph is acyclic (predicates
   nest), so the recursion terminates; re-walking on a weakened update
   keeps multi-site references sound. *)
let propagate compiled ~tag_possible =
  let preds =
    Array.map
      (fun _ -> { active = false; p_owner_amb = false; p_anchor_lo = cap })
      compiled.Compile.preds
  in
  let possible step =
    match step.Compile.test with
    | Ast.Any -> true
    | Ast.Name tag -> tag_possible tag
  in
  let first_blocked steps =
    let n = Array.length steps in
    let rec scan j = if j >= n || not (possible steps.(j)) then j else scan (j + 1) in
    scan 0
  in
  let rec walk ctx =
    let fb = ctx.first_blocked in
    Array.iteri
      (fun j step ->
        if j < fb then
          List.iter
            (fun pid ->
              let st = preds.(pid) in
              let site_amb = amb_at_match ctx j in
              let site_lo = lo ctx j + 1 in
              let weakened =
                (not st.active)
                || (site_amb && not st.p_owner_amb)
                || site_lo < st.p_anchor_lo
              in
              if weakened then begin
                st.active <- true;
                st.p_owner_amb <- st.p_owner_amb || site_amb;
                st.p_anchor_lo <- min st.p_anchor_lo site_lo;
                let ppath = compiled.Compile.preds.(pid).Compile.ppath in
                walk
                  {
                    is_pred = true;
                    owner_amb = st.p_owner_amb;
                    anchor_lo = st.p_anchor_lo;
                    steps = ppath;
                    first_blocked = first_blocked ppath;
                  }
              end)
            step.Compile.step_preds)
      ctx.steps
  in
  Array.iter
    (fun sp ->
      let steps = sp.Compile.cpath in
      walk
        {
          is_pred = false;
          owner_amb = false;
          anchor_lo = 0;
          steps;
          first_blocked = first_blocked steps;
        })
    compiled.Compile.spines;
  let spine_ctxs =
    Array.to_list compiled.Compile.spines
    |> List.map (fun sp ->
           let steps = sp.Compile.cpath in
           {
             is_pred = false;
             owner_amb = false;
             anchor_lo = 0;
             steps;
             first_blocked = first_blocked steps;
           })
  in
  let pred_ctxs =
    List.filter_map
      (fun (pid, st) ->
        if not st.active then None
        else
          let ppath = compiled.Compile.preds.(pid).Compile.ppath in
          Some
            ( pid,
              {
                is_pred = true;
                owner_amb = st.p_owner_amb;
                anchor_lo = st.p_anchor_lo;
                steps = ppath;
                first_blocked = first_blocked ppath;
              } ))
      (List.mapi (fun i st -> (i, st)) (Array.to_list preds))
  in
  (spine_ctxs, pred_ctxs)

(* ------------------------------------------------------------------ *)
(* The bound                                                           *)
(* ------------------------------------------------------------------ *)

let compute ?(tag_possible = fun _ -> true) ?(dict_size = 64) ~depth compiled =
  let spine_ctxs, pred_ctxs = propagate compiled ~tag_possible in
  let all_ctxs = spine_ctxs @ List.map snd pred_ctxs in
  let k ctx = Array.length ctx.steps in
  let complete ctx = ctx.first_blocked >= k ctx in
  let comp_lo ctx = ctx.anchor_lo + k ctx in
  let comp_amb ctx = amb_before ctx (k ctx) in
  (* Token words of one frame at depth [d]. A position-[i] token sits
     there when the depth is reachable and either exactly pinned, blurred
     by an earlier descendant axis, or the position itself waits on a
     descendant axis (those self-replicate into every deeper frame). *)
  let frame_tokens d =
    List.fold_left
      (fun acc ctx ->
        let mp = max_pos ctx in
        let words = ref 0 in
        for i = 0 to mp do
          let present =
            d >= lo ctx i
            && (d = lo ctx i
               || amb_before ctx i
               || ctx.steps.(i).Compile.axis = Ast.Descendant)
          in
          if present then
            words :=
              sat_add !words
                (sat_mul
                   (sat_mul (owner_mult ctx ~d) (conds_combos ctx ~upto:i ~d))
                   (3 + conds_len ctx ~upto:i))
        done;
        sat_add acc !words)
      0 all_ctxs
  in
  (* Text watchers at depth [d]: value-target predicates whose path can
     complete there; one watcher per (instance, condition-set)
     completion. *)
  let frame_watchers d =
    List.fold_left
      (fun acc (pid, ctx) ->
        let cpred = compiled.Compile.preds.(pid) in
        match cpred.Compile.target with
        | Ast.Exists -> acc
        | Ast.Value _ ->
            if not (complete ctx) then acc
            else if d >= comp_lo ctx && (comp_amb ctx || d = comp_lo ctx) then
              sat_add acc
                (sat_mul
                   (sat_mul (owner_mult ctx ~d)
                      (conds_combos ctx ~upto:(k ctx) ~d))
                   (2 + conds_len ctx ~upto:(k ctx)))
            else acc)
      0 pred_ctxs
  in
  (* Instances anchored at depth [d] (one word each in the frame). *)
  let frame_anchored d =
    List.fold_left
      (fun acc (_, ctx) ->
        if d >= ctx.anchor_lo && (ctx.owner_amb || d = ctx.anchor_lo) then
          acc + 1
        else acc)
      0 pred_ctxs
  in
  let frames = ref 0 in
  for d = 0 to depth do
    !frames
    |> sat_add (4 + frame_anchored d)
    |> sat_add (frame_tokens d)
    |> sat_add (frame_watchers d)
    |> fun w -> frames := w
  done;
  (* Live instances and their candidate conjunctions: candidates are
     distinct subsets of live condition variables — per predicate-bearing
     step, its depth choices plus one for "already resolved away". *)
  let insts =
    List.fold_left
      (fun acc (_, ctx) ->
        let cand_words =
          if (not (complete ctx)) || comp_lo ctx > depth then 0
          else
            let full = conds_len ctx ~upto:(k ctx) in
            if full = 0 then 0
            else begin
              let combos = ref 1 in
              for j = 0 to k ctx - 1 do
                if n_preds ctx j > 0 then
                  combos :=
                    sat_mul !combos
                      (1
                      +
                      if amb_at_match ctx j then max 1 (depth - lo ctx j)
                      else 1)
              done;
              sat_mul !combos (1 + full)
            end
        in
        sat_add acc (sat_mul (owner_mult ctx ~d:depth) (4 + cand_words)))
      0 pred_ctxs
  in
  let rdeps =
    sat_mul 2
      (List.fold_left
         (fun acc (_, ctx) -> sat_add acc (owner_mult ctx ~d:depth))
         0 pred_ctxs)
  in
  let state_words = sat_add (sat_add !frames insts) rdeps in
  let reader_words =
    sat_mul (depth + 1) (Ram.element_words ~tag_set:dict_size)
  in
  (* The card's charge at the worst case: an unprotected evaluation, the
     publisher's chunk size, and every dictionary tag in the output's
     tag table. Both word counts saturate at [cap], so the sum cannot
     wrap. *)
  let bound_bytes =
    Ram.charge ~state_words ~reader_words ~tags:dict_size ~held_bytes:0
      ~chunk_bytes:Ram.default_chunk_bytes
  in
  { depth; state_words; reader_words; bound_bytes }
