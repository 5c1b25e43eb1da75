(** The untrusted Data Service Provider.

    Hosts "encrypted XML documents shared by users as well as encrypted
    access rules" (§3). The store only ever sees ciphertext: document
    chunks, rule blobs, wrapped key grants. Because it is untrusted, it
    also exposes a tampering interface used by experiment E9 to check that
    the card detects substitution, reordering and truncation of encrypted
    blocks. *)

type t

val create : unit -> t

(** {1 Documents} *)

val put_document : t -> Publish.published -> unit
(** Replaces any previous version under the same id. *)

val get_document : t -> string -> Publish.published option
val list_documents : t -> string list

(** {1 Access rules} *)

val put_rules : t -> doc_id:string -> subject:string -> string -> unit
(** Store a subject's encrypted rule blob for a document. A policy change
    is just another [put_rules] — the document itself is untouched. *)

val get_rules : t -> doc_id:string -> subject:string -> string option

(** {1 Key grants} *)

val put_grant : t -> doc_id:string -> subject:string -> string -> unit
val get_grant : t -> doc_id:string -> subject:string -> string option

(** {1 Enumeration (persistence)} *)

val fold_rules : t -> (doc_id:string -> subject:string -> string -> 'a -> 'a) -> 'a -> 'a
val fold_grants : t -> (doc_id:string -> subject:string -> string -> 'a -> 'a) -> 'a -> 'a

(** {1 Tampering (adversarial experiments)} *)

val tamper_substitute : t -> doc_id:string -> chunk:int -> string -> unit
(** Replace one ciphertext chunk. Raises [Invalid_argument] on a bad id or
    index. *)

val tamper_swap : t -> doc_id:string -> int -> int -> unit
(** Swap two ciphertext chunks (a block-reordering attack). *)

val tamper_truncate : t -> doc_id:string -> keep_chunks:int -> unit
(** Drop trailing chunks. *)

val tamper_flip_bit : t -> doc_id:string -> chunk:int -> bit:int -> unit
