(** Merkle hash tree over document chunks.

    The DSP publishes the root hash with each document (signed by the
    publisher); the SOE checks the chunks it consumes against the root,
    with one multiproof per request ({!multiprove}) or one inclusion proof
    per chunk ({!prove}). This is what makes {e skipping} compatible with
    {e integrity}: a linear MAC chain would force the SOE to read every
    chunk, a Merkle proof authenticates exactly the chunks actually
    decrypted. Leaves are domain-separated from interior nodes to prevent
    second-preimage splicing.

    Shape: level 0 holds the leaf hashes; each level pairs neighbours left
    to right, and an odd node at the end of a level is promoted unchanged
    to the next one. So node [i] of level [l] covers the leaves
    [i * 2{^l}] to [(i + 1) * 2{^l} - 1], clipped to the leaf count. *)

type tree

val build : string list -> tree
(** [build leaves] hashes each leaf (chunk ciphertext) and builds the tree.
    Raises [Invalid_argument] on an empty list. *)

val root : tree -> string
(** 32-byte root digest. *)

val leaf_count : tree -> int

type proof = string list
(** Sibling digests from leaf to root; the index supplies the directions. *)

val prove : tree -> int -> proof
(** Inclusion proof for leaf [i]. Raises [Invalid_argument] if out of
    range. *)

val verify : root:string -> leaf_count:int -> index:int -> leaf:string -> proof -> bool
(** [verify ~root ~leaf_count ~index ~leaf proof] checks that [leaf]'s
    content is at position [index] in the tree committed by [root]. *)

val multiprove : tree -> bool array -> proof
(** [multiprove tree wanted] proves every leaf [i] with [wanted.(i)] at
    once. It holds the digests of the maximal subtrees that contain no
    wanted leaf, once each, in document order: ordered by the first leaf
    they cover. So every digest an inclusion proof of a wanted leaf would
    carry, and that no wanted leaf's path recomputes, crosses the link
    once. With one leaf wanted it holds the digests of {!prove}, in
    another order; with every leaf wanted it is empty; with none, it is
    the root. Raises [Invalid_argument] if [Array.length wanted] is not
    the leaf count. *)

val multiverify :
  root:string ->
  leaf_count:int ->
  wanted:bool array ->
  leaves:string list ->
  proof ->
  int option
(** [multiverify ~root ~leaf_count ~wanted ~leaves proof] checks a
    {!multiprove} proof for the wanted leaves, given as [leaves] in
    document order. It rebuilds the root in one depth-first pass,
    hashing each interior node above a wanted leaf once, and returns
    [Some hashes], the number of interior hashes, if the rebuilt root is
    [root]. [None] if it is not, if [proof] or [leaves] runs out or has
    items left over, if [Array.length wanted] is not [leaf_count], or if
    [leaf_count <= 0]. Never raises. With every leaf wanted, [hashes] is
    [leaf_count - 1]. *)

val proof_size_bytes : proof -> int
(** Transfer cost of a proof, for the cost model. *)
