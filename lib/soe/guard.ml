module Output = Sdds_core.Output
module Mode = Sdds_crypto.Mode
module Aes = Sdds_crypto.Aes
module Drbg = Sdds_crypto.Drbg
module Reassembler = Sdds_core.Reassembler
module Settle = Sdds_core.Settle

let seal_key_bytes = 16

type message =
  | Clear of Output.t
  | Sealed of { guard : int; event : sealed_event }
  | Release of { guard : int; key : string }
  | Drop of { guard : int }

and sealed_event = Sealed_text of { cipher : string }

(* Per-message CTR nonce: guard id in the first four bytes, a per-guard
   message counter in the next four, and eight zero bytes left for the
   intra-message block counter. *)
let nonce ~gid ~seq =
  let b = Bytes.make 16 '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int gid);
  Bytes.set_int32_be b 4 (Int32.of_int seq);
  Bytes.to_string b

let seal ~key ~gid ~seq plain =
  Mode.ctr_transform (Aes.expand_key key) ~nonce:(nonce ~gid ~seq) plain

let unseal = seal (* CTR is involutive *)

(* The clear events form one compact sub-stream, each event behind its
   own header byte. A guard message takes one header byte too: a code
   from the codec's unused single-byte range (58-127, above its open
   codes), so a stream with nothing sealed costs what its plain stream
   does. *)
let wire_bytes messages =
  let clear =
    List.filter_map (function Clear ev -> Some ev | _ -> None) messages
  in
  List.fold_left
    (fun acc msg ->
      acc
      +
      match msg with
      | Clear _ -> 0
      | Sealed { event = Sealed_text { cipher }; _ } ->
          1 + 4 + 2 + String.length cipher
      | Release { key; _ } -> 1 + 4 + String.length key
      | Drop _ -> 1 + 4)
    (Sdds_core.Output_codec.size_list clear)
    messages

module Protector = struct
  (* A one-time key. The unsettled node that opened it owns it; its
     descendants whose status is purely inherited share it. *)
  type guard = { gid : int; key : string; mutable seq : int (* sealed *) }

  (* The data of a node settled when it opened. *)
  let no_guard = { gid = -1; key = ""; seq = 0 }

  type book = {
    drbg : Drbg.t;
    mutable out : message list;  (* this event's messages, last first *)
    mutable next_gid : int;
    mutable live : int;
    mutable peak : int;
  }

  type t = {
    book : book;
    settle : guard Settle.t;
    root : guard Settle.node;
    mutable top : guard Settle.node;  (* innermost open element *)
  }

  (* A guard goes when its owner settles; its sharers settle with it. *)
  let on_settle b (n : guard Settle.node) =
    let g = n.data in
    if g != no_guard && g != n.parent.data then begin
      b.out <-
        (if Settle.visible n then Release { guard = g.gid; key = g.key }
         else Drop { guard = g.gid })
        :: b.out;
      b.live <- b.live - 1
    end

  let create drbg ~has_query () =
    let book = { drbg; out = []; next_gid = 0; live = 0; peak = 0 } in
    let on_settle = on_settle book in
    let settle = Settle.create ~has_query ~on_settle no_guard in
    let root = Settle.root settle in
    { book; settle; root; top = root }

  let live_guards t = t.book.live
  let peak_live_guards t = t.book.peak

  let new_guard b =
    let key = Drbg.generate b.drbg seal_key_bytes in
    let g = { gid = b.next_gid; key; seq = 0 } in
    b.next_gid <- b.next_gid + 1;
    b.live <- b.live + 1;
    if b.live > b.peak then b.peak <- b.live;
    g

  let feed t ev =
    let b = t.book and n = t.top in
    (match ev with
    | Output.Text_node _ when n == t.root ->
        invalid_arg "Guard.Protector: text outside elements"
    | Output.Text_node v ->
        if Settle.visible n then b.out <- [ Clear ev ]
        else if not (Settle.settled n) then begin
          let g = n.data in
          let cipher = seal ~key:g.key ~gid:g.gid ~seq:g.seq v in
          g.seq <- g.seq + 1;
          b.out <- [ Sealed { guard = g.gid; event = Sealed_text { cipher } } ]
        end
        (* else determinately invisible: nothing to protect, nothing to
           deliver (the engine drops these anyway). *)
    | Output.Open_node { tag = _; neg; pos; query } ->
        b.out <- [ Clear ev ];
        let c = Settle.add t.settle ~parent:n ~neg ~pos ~query no_guard in
        if not (Settle.settled c) then
          Settle.set_data c
            (if Settle.inherits t.settle c then n.data else new_guard b);
        t.top <- c
    | Output.Close_node _ ->
        if n == t.root then invalid_arg "Guard.Protector: close without open";
        b.out <- [ Clear ev ];
        t.top <- n.parent
    | Output.Resolve (v, value) ->
        b.out <- [ Clear ev ];
        Settle.resolve t.settle v value);
    let messages = List.rev b.out in
    b.out <- [];
    messages

  let finish t =
    if t.top != t.root then
      invalid_arg "Guard.Protector.finish: elements still open";
    if t.book.live > 0 then
      invalid_arg "Guard.Protector.finish: unresolved guards"
end

module Unsealer = struct
  type t = {
    has_query : bool;
    mutable rev_messages : message list;
    keys : (int, string option) Hashtbl.t;
        (* Some key = released, None = dropped *)
    mutable withheld : int;
  }

  let create ~has_query () =
    { has_query; rev_messages = []; keys = Hashtbl.create 16; withheld = 0 }

  let feed t msg =
    (match msg with
    | Release { guard; key } -> Hashtbl.replace t.keys guard (Some key)
    | Drop { guard } -> Hashtbl.replace t.keys guard None
    | Clear _ | Sealed _ -> ());
    t.rev_messages <- msg :: t.rev_messages

  let finish t =
    let seqs = Hashtbl.create 16 in
    let outs =
      List.filter_map
        (fun msg ->
          match msg with
          | Clear ev -> Some ev
          | Sealed { guard; event = Sealed_text { cipher } } -> (
              let seq =
                match Hashtbl.find_opt seqs guard with Some s -> s | None -> 0
              in
              Hashtbl.replace seqs guard (seq + 1);
              match Hashtbl.find_opt t.keys guard with
              | Some (Some key) ->
                  Some (Output.Text_node (unseal ~key ~gid:guard ~seq cipher))
              | Some None | None ->
                  (* Key withheld: the terminal keeps ciphertext only. *)
                  t.withheld <- t.withheld + String.length cipher;
                  None)
          | Release _ | Drop _ -> None)
        (List.rev t.rev_messages)
    in
    Reassembler.run ~has_query:t.has_query outs

  let sealed_bytes_withheld t = t.withheld
end
