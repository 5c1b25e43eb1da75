module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Merkle = Sdds_crypto.Merkle
module Encode = Sdds_index.Encode
module Wire = Sdds_soe.Wire

type published = {
  doc_id : string;
  chunks : string array;
  chunk_plain_bytes : int;
  plain_length : int;
  tree : Merkle.tree;
  merkle_root : string;
  root_signature : string;
  publisher : Rsa.public;
}

let default_chunk_bytes = Sdds_core.Ram.default_chunk_bytes

let publish drbg ~publisher ~doc_id ?(chunk_bytes = default_chunk_bytes)
    ?(mode = Encode.Indexed { recursive = true }) ?meta_threshold doc =
  if chunk_bytes < 16 then invalid_arg "Publish.publish: chunk too small";
  let encoded = Encode.encode ?meta_threshold ~mode doc in
  let key = Wire.fresh_doc_key drbg in
  let plain_length = String.length encoded in
  let n_chunks = max 1 ((plain_length + chunk_bytes - 1) / chunk_bytes) in
  let chunks =
    Array.init n_chunks (fun i ->
        let start = i * chunk_bytes in
        let len = min chunk_bytes (plain_length - start) in
        let plain = String.sub encoded start (max 0 len) in
        Wire.encrypt_chunk ~key ~doc_id ~index:i plain)
  in
  let tree = Merkle.build (Array.to_list chunks) in
  let merkle_root = Merkle.root tree in
  let root_signature =
    Rsa.sign publisher.Rsa.secret
      (Wire.signed_root_message ~doc_id ~merkle_root ~plain_length)
  in
  ( {
      doc_id;
      chunks;
      chunk_plain_bytes = chunk_bytes;
      plain_length;
      tree;
      merkle_root;
      root_signature;
      publisher = publisher.Rsa.public;
    },
    key )

let rotate drbg ~publisher ~old_key p =
  let new_key = Wire.fresh_doc_key drbg in
  let chunks =
    Array.mapi
      (fun i cipher ->
        match
          Wire.decrypt_chunk ~key:old_key ~doc_id:p.doc_id ~index:i cipher
        with
        | Some plain ->
            Wire.encrypt_chunk ~key:new_key ~doc_id:p.doc_id ~index:i plain
        | None -> invalid_arg "Publish.rotate: old key does not decrypt")
      p.chunks
  in
  let tree = Merkle.build (Array.to_list chunks) in
  let merkle_root = Merkle.root tree in
  let root_signature =
    Rsa.sign publisher.Rsa.secret
      (Wire.signed_root_message ~doc_id:p.doc_id ~merkle_root
         ~plain_length:p.plain_length)
  in
  ( { p with chunks; tree; merkle_root; root_signature;
      publisher = publisher.Rsa.public },
    new_key )

let grant drbg ~doc_key ~doc_id ~recipient =
  Wire.wrap_doc_key drbg recipient ~doc_id doc_key

let encrypt_rules_for drbg ~publisher ~doc_key ~doc_id ~subject ?version rules =
  Wire.encrypt_rules drbg ~key:doc_key ~doc_id ~subject ?version
    ~signer:publisher.Rsa.secret rules

let to_source p ~delivery =
  {
    Sdds_soe.Card.doc_id = p.doc_id;
    chunks = p.chunks;
    chunk_plain_bytes = p.chunk_plain_bytes;
    plain_length = p.plain_length;
    prove = (fun i -> Sdds_crypto.Merkle.prove p.tree i);
    multiprove = Sdds_crypto.Merkle.multiprove p.tree;
    leaf_count = Sdds_crypto.Merkle.leaf_count p.tree;
    merkle_root = p.merkle_root;
    root_signature = p.root_signature;
    publisher = p.publisher;
    delivery;
  }
