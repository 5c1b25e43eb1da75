module Ast = Sdds_xpath.Ast
module Compile = Sdds_core.Compile
module Rule = Sdds_core.Rule
module Output = Sdds_core.Output
module Cond = Sdds_core.Cond
module Event = Sdds_xml.Event
module Bitset = Sdds_util.Bitset

(* Trie over compiled spine steps, merged across clusters. A node is a
   spine prefix; an edge is one (axis, test) step. [deny_here]/[allow_here]
   mark the clusters owning a spine that ends exactly at the node (the
   firing sets); the [through] masks summarize which clusters still own a
   live spine strictly below the node — what the engine's "is an
   allow-spine token still alive" suppression check needs, per cluster,
   without walking the subtree. *)
type node = {
  id : int;
  mutable edges : (Ast.axis * Ast.test * node) list;  (* insertion order *)
  deny_here : Bitset.t;
  allow_here : Bitset.t;
  mutable allow_through_full : Bitset.t;
      (* clusters with an allow-spine end strictly below this node *)
  mutable allow_through_desc : Bitset.t;
      (* same, but the first step out of the node must be Descendant —
         what a descendant-restricted token can still reach *)
  mutable has_desc_edge : bool;
}

(* A token is a trie node plus a restriction flag. An unrestricted token
   stands for every spine passing through the node (the engine's advanced
   tokens); a restricted one only for spines whose next step is a
   Descendant axis (the engine's self-looping descendant tokens — the
   Child-axis continuations died on a non-matching tag). *)
type frame = {
  ftag : string;
  tokens : (node * bool) list;
  det_allow : Bitset.t;  (* clusters whose inherited decision is Allow *)
  suppressed : Bitset.t;  (* sticky, per cluster *)
}

type t = {
  n : int;  (* clusters *)
  root : node;
  mutable frames : frame list;  (* top first; last = virtual root *)
  outs : Output.t list ref array;  (* reversed accumulation *)
  mutable closed_root : bool;
  mutable visits : int;
  nodes : int;
}

let test_matches test tag =
  match test with
  | Ast.Any -> true
  | Ast.Name n -> String.equal n tag

let build n_clusters compiled_sets =
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    {
      id;
      edges = [];
      deny_here = Bitset.create n_clusters;
      allow_here = Bitset.create n_clusters;
      allow_through_full = Bitset.create n_clusters;
      allow_through_desc = Bitset.create n_clusters;
      has_desc_edge = false;
    }
  in
  let root = fresh () in
  let child node axis test =
    match
      List.find_opt
        (fun (a, t, _) -> a = axis && t = test)
        node.edges
    with
    | Some (_, _, m) -> m
    | None ->
        let m = fresh () in
        node.edges <- node.edges @ [ (axis, test, m) ];
        if axis = Ast.Descendant then node.has_desc_edge <- true;
        m
  in
  Array.iteri
    (fun ci (c : Compile.t) ->
      Array.iter
        (fun (sp : Compile.spine) ->
          (* Empty spines never fire in the engine (no initial token). *)
          if Array.length sp.Compile.cpath > 0 then begin
            let node = ref root in
            Array.iter
              (fun (st : Compile.cstep) ->
                if st.Compile.step_preds <> [] then
                  invalid_arg "Mux.create: predicate rule set";
                node := child !node st.Compile.axis st.Compile.test)
              sp.Compile.cpath;
            match sp.Compile.source with
            | Compile.Query_src ->
                invalid_arg "Mux.create: query spine in a rule set"
            | Compile.Rule_src _ ->
                Bitset.set
                  (if sp.Compile.sign = Rule.Deny then (!node).deny_here
                   else (!node).allow_here)
                  ci
          end)
        c.Compile.spines)
    compiled_sets;
  (* Post-order pass for the through masks. *)
  let rec finalize n =
    List.iter
      (fun (axis, _, m) ->
        finalize m;
        Bitset.union_into n.allow_through_full m.allow_here;
        Bitset.union_into n.allow_through_full m.allow_through_full;
        if axis = Ast.Descendant then begin
          Bitset.union_into n.allow_through_desc m.allow_here;
          Bitset.union_into n.allow_through_desc m.allow_through_full
        end)
      n.edges;
    ()
  in
  finalize root;
  (root, !next_id)

let create compiled_sets =
  Array.iter
    (fun (c : Compile.t) ->
      if Array.length c.Compile.preds > 0 then
        invalid_arg "Mux.create: predicate rule set")
    compiled_sets;
  let n = Array.length compiled_sets in
  let root, nodes = build n compiled_sets in
  let root_frame =
    {
      ftag = "#root";
      tokens = (if root.edges = [] then [] else [ (root, false) ]);
      det_allow = Bitset.create n;
      suppressed = Bitset.create n;
    }
  in
  {
    n;
    root;
    frames = [ root_frame ];
    outs = Array.init n (fun _ -> ref []);
    closed_root = false;
    visits = 0;
    nodes;
  }

let emit t ci out = t.outs.(ci) := out :: !(t.outs.(ci))

let open_tag t tag =
  match t.frames with
  | [] -> invalid_arg "Mux: internal error (no frames)"
  | parent :: _ ->
      if t.closed_root then invalid_arg "Mux: event after document end";
      let fired_deny = Bitset.create t.n in
      let fired_allow = Bitset.create t.n in
      (* New token set: first-add order, with the unrestricted flavour
         dominating (an unrestricted token stands for a superset of the
         restricted one's spines). *)
      let order = ref [] in
      let flag : (int, node * bool ref) Hashtbl.t = Hashtbl.create 16 in
      let add node restricted =
        match Hashtbl.find_opt flag node.id with
        | Some (_, r) -> if not restricted then r := false
        | None ->
            Hashtbl.add flag node.id (node, ref restricted);
            order := node.id :: !order
      in
      List.iter
        (fun (node, restricted) ->
          t.visits <- t.visits + 1;
          if node.has_desc_edge then add node true;
          List.iter
            (fun (axis, test, m) ->
              if
                ((not restricted) || axis = Ast.Descendant)
                && test_matches test tag
              then begin
                Bitset.union_into fired_deny m.deny_here;
                Bitset.union_into fired_allow m.allow_here;
                if m.edges <> [] then add m false
              end)
            node.edges)
        parent.tokens;
      let tokens =
        List.rev_map
          (fun id ->
            let node, r = Hashtbl.find flag id in
            (node, !r))
          !order
      in
      (* Which clusters still hold an allow-spine token in the child
         frame — the engine's suppression liveness check. *)
      let has_allow = Bitset.create t.n in
      List.iter
        (fun (node, restricted) ->
          Bitset.union_into has_allow
            (if restricted then node.allow_through_desc
             else node.allow_through_full))
        tokens;
      (* det' = (parent.det_allow ∪ fired_allow) \ fired_deny;
         Denial-Takes-Precedence at the node, Most-Specific via the
         inherited bit. *)
      let det_allow = Bitset.copy parent.det_allow in
      Bitset.union_into det_allow fired_allow;
      Bitset.iter (fun c -> Bitset.clear det_allow c) fired_deny;
      let suppressed = Bitset.copy parent.suppressed in
      for c = 0 to t.n - 1 do
        if
          (not (Bitset.mem suppressed c))
          && (not (Bitset.mem det_allow c))
          && not (Bitset.mem has_allow c)
        then Bitset.set suppressed c
      done;
      for c = 0 to t.n - 1 do
        if not (Bitset.mem suppressed c) then
          emit t c
            (Output.Open_node
               {
                 tag;
                 neg = Cond.of_bool (Bitset.mem fired_deny c);
                 pos = Cond.of_bool (Bitset.mem fired_allow c);
                 query = Cond.ff;
               })
      done;
      t.frames <- { ftag = tag; tokens; det_allow; suppressed } :: t.frames

let value t v =
  match t.frames with
  | [] -> invalid_arg "Mux: internal error (no frames)"
  | [ _root ] -> invalid_arg "Mux: text at top level"
  | f :: _ ->
      for c = 0 to t.n - 1 do
        if (not (Bitset.mem f.suppressed c)) && Bitset.mem f.det_allow c
        then emit t c (Output.Text_node v)
      done

let close t tag =
  match t.frames with
  | [] -> invalid_arg "Mux: internal error (no frames)"
  | [ _root ] -> invalid_arg "Mux: close without open"
  | f :: rest ->
      if not (String.equal f.ftag tag) then
        invalid_arg
          (Printf.sprintf "Mux: mismatched </%s>, expected </%s>" tag
             f.ftag);
      t.frames <- rest;
      for c = 0 to t.n - 1 do
        if not (Bitset.mem f.suppressed c) then
          emit t c (Output.Close_node tag)
      done;
      match rest with [ _root ] -> t.closed_root <- true | _ -> ()

let feed t = function
  | Event.Open tag -> open_tag t tag
  | Event.Value v -> value t v
  | Event.Close tag -> close t tag

let finish t =
  match t.frames with
  | [ _root ] when t.closed_root -> ()
  | _ -> invalid_arg "Mux.finish: document incomplete"

let outputs t = Array.map (fun r -> List.rev !r) t.outs

let node_count t = t.nodes
let token_visits t = t.visits
