module Dom = Sdds_xml.Dom
module Eval = Sdds_xpath.Eval

let mark_ids doc paths =
  (* One boolean array per path, indexed by preorder id. *)
  let n = Dom.node_count doc in
  let indexed = Eval.index doc in
  List.map
    (fun path ->
      let arr = Array.make n false in
      List.iter (fun id -> arr.(id) <- true) (Eval.select path indexed);
      arr)
    paths

let decisions ~rules doc =
  let n = Dom.node_count doc in
  let marks = mark_ids doc (List.map (fun r -> r.Rule.path) rules) in
  let signed = List.combine (List.map (fun r -> r.Rule.sign) rules) marks in
  let out = Array.make n Rule.Deny in
  let direct id sign =
    List.exists (fun (s, arr) -> s = sign && arr.(id)) signed
  in
  let counter = ref 0 in
  let rec go inherited = function
    | Dom.Text _ -> ()
    | Dom.Element (_, kids) ->
        let id = !counter in
        incr counter;
        let decision =
          if direct id Rule.Deny then Rule.Deny
          else if direct id Rule.Allow then Rule.Allow
          else inherited
        in
        out.(id) <- decision;
        List.iter (go decision) kids
  in
  go Rule.Deny doc;
  out

let selected ~query doc =
  let n = Dom.node_count doc in
  match query with
  | None -> Array.make n true
  | Some q ->
      let matched =
        match mark_ids doc [ q ] with [ m ] -> m | _ -> assert false
      in
      let out = Array.make n false in
      let counter = ref 0 in
      let rec go inherited = function
        | Dom.Text _ -> ()
        | Dom.Element (_, kids) ->
            let id = !counter in
            incr counter;
            let sel = inherited || matched.(id) in
            out.(id) <- sel;
            List.iter (go sel) kids
      in
      go false doc;
      out

let authorized_view ?query ~rules doc =
  let decs = decisions ~rules doc in
  let sels = selected ~query doc in
  let counter = ref 0 in
  let rec build = function
    | Dom.Text _ -> assert false
    | Dom.Element (tag, kids) ->
        let id = !counter in
        incr counter;
        let keep_full = decs.(id) = Rule.Allow && sels.(id) in
        let kids' =
          List.filter_map
            (fun kid ->
              match kid with
              | Dom.Text _ -> if keep_full then Some kid else None
              | Dom.Element _ -> build kid)
            kids
        in
        let has_element_child =
          List.exists
            (function Dom.Element _ -> true | Dom.Text _ -> false)
            kids'
        in
        if keep_full || has_element_child then Some (Dom.Element (tag, kids'))
        else None
  in
  build doc

let allowed_ids ~rules doc =
  let decs = decisions ~rules doc in
  let ids = ref [] in
  Array.iteri (fun i d -> if d = Rule.Allow then ids := i :: !ids) decs;
  List.rev !ids
