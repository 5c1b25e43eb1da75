(* Levels are stored bottom-up: levels.(0) is the leaf-hash layer. An odd
   node at the end of a layer is promoted (paired with itself would allow
   forgeries; promotion does not). *)

type tree = { levels : string array array }

let leaf_hash s = Sha256.digest3 "\x00" s ""
let node_hash l r = Sha256.digest3 "\x01" l r

let build leaves =
  if leaves = [] then invalid_arg "Merkle.build: no leaves";
  let level0 = Array.of_list (List.map leaf_hash leaves) in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let parent = Array.make ((n + 1) / 2) "" in
      for i = 0 to (n / 2) - 1 do
        parent.(i) <- node_hash level.(2 * i) level.((2 * i) + 1)
      done;
      if n land 1 = 1 then parent.((n - 1) / 2) <- level.(n - 1);
      up (level :: acc) parent
    end
  in
  { levels = Array.of_list (up [] level0) }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let leaf_count t = Array.length t.levels.(0)

type proof = string list

let prove t index =
  if index < 0 || index >= leaf_count t then invalid_arg "Merkle.prove";
  let rec go level i acc =
    if level >= Array.length t.levels - 1 then List.rev acc
    else begin
      let layer = t.levels.(level) in
      let n = Array.length layer in
      let sibling = if i land 1 = 0 then i + 1 else i - 1 in
      let acc = if sibling < n then layer.(sibling) :: acc else acc in
      go (level + 1) (i / 2) acc
    end
  in
  go 0 index []

let verify ~root:expected ~leaf_count ~index ~leaf proof =
  if index < 0 || index >= leaf_count then false
  else begin
    (* Recompute the path, tracking position and layer width to know when a
       node was promoted (no sibling) vs. hashed with one. *)
    let rec go digest i width proof =
      if width = 1 then proof = [] && String.equal digest expected
      else begin
        let has_sibling = if i land 1 = 0 then i + 1 < width else true in
        match (has_sibling, proof) with
        | false, _ -> go digest (i / 2) ((width + 1) / 2) proof
        | true, [] -> false
        | true, sib :: rest ->
            let digest =
              if i land 1 = 0 then node_hash digest sib
              else node_hash sib digest
            in
            go digest (i / 2) ((width + 1) / 2) rest
      end
    in
    go (leaf_hash leaf) index leaf_count proof
  end

(* Depth-first, left to right, over the tree of [n = Array.length wanted]
   leaves: [absent level i] stands for a maximal subtree that holds no
   wanted leaf, [leaf ()] for a wanted leaf and [join] for an interior
   node with two children. Node (level, i) covers the leaves
   [i * 2^level, (i + 1) * 2^level) clipped to [n]; its right child exists
   only when it starts before [n], otherwise the node is its promoted
   left child. [before.(j)] counts the wanted leaves below [j]. *)
let fold_wanted wanted ~absent ~leaf ~join =
  let n = Array.length wanted in
  let before = Array.make (n + 1) 0 in
  Array.iteri (fun i w -> before.(i + 1) <- before.(i) + Bool.to_int w) wanted;
  let rec height h = if 1 lsl h >= n then h else height (h + 1) in
  let rec node level i =
    let lo = i lsl level in
    if before.(min n (lo + (1 lsl level))) = before.(lo) then absent level i
    else if level = 0 then leaf ()
    else begin
      let left = node (level - 1) (2 * i) in
      if lo + (1 lsl (level - 1)) >= n then left
      else begin
        let right = node (level - 1) ((2 * i) + 1) in
        join left right
      end
    end
  in
  node (height 0) 0

let multiprove t wanted =
  if Array.length wanted <> leaf_count t then invalid_arg "Merkle.multiprove";
  let digests = ref [] in
  fold_wanted wanted
    ~absent:(fun level i -> digests := t.levels.(level).(i) :: !digests)
    ~leaf:ignore ~join:(fun () () -> ());
  List.rev !digests

let multiverify ~root:expected ~leaf_count ~wanted ~leaves proof =
  if leaf_count <= 0 || Array.length wanted <> leaf_count then None
  else begin
    let leaves = ref leaves and proof = ref proof and hashes = ref 0 in
    let pop r =
      match !r with
      | [] -> raise_notrace Exit
      | x :: rest ->
          r := rest;
          x
    in
    match
      fold_wanted wanted
        ~absent:(fun _ _ -> pop proof)
        ~leaf:(fun () -> leaf_hash (pop leaves))
        ~join:(fun l r ->
          incr hashes;
          node_hash l r)
    with
    | exception Exit -> None
    | digest ->
        if !proof = [] && !leaves = [] && String.equal digest expected then
          Some !hashes
        else None
  end

let proof_size_bytes proof = 32 * List.length proof
