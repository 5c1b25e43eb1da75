module Output = Sdds_core.Output
module Cond = Sdds_core.Cond
module Rule = Sdds_core.Rule
module Mode = Sdds_crypto.Mode
module Aes = Sdds_crypto.Aes
module Drbg = Sdds_crypto.Drbg
module Reassembler = Sdds_core.Reassembler

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
  (* A guard record: the one-time key plus everything needed to decide,
     once its conditions resolve, whether the region is visible. *)
  type grecord = {
    gid : int;
    key : string;
    mutable g_neg : Cond.t;
    mutable g_pos : Cond.t;
    mutable g_query : Cond.t;
    parent : parent_link;
    mutable outcome : (Rule.sign * bool) option;
        (* (decision, in_scope) once finalized *)
    mutable seq : int;  (* sealed-message counter *)
  }

  and parent_link = P_det of Rule.sign * bool | P_rec of grecord

  type frame_status = F_det of Rule.sign * bool | F_pending of grecord

  type t = {
    drbg : Drbg.t;
    has_query : bool;
    mutable frames : frame_status list;  (* top first; root sentinel last *)
    mutable live : grecord list;
    mutable next_gid : int;
    mutable peak : int;
    values : (Cond.var, bool) Hashtbl.t;
  }

  let create drbg ?(default = Rule.Deny) ~has_query () =
    {
      drbg;
      has_query;
      frames = [ F_det (default, not has_query) ];
      live = [];
      next_gid = 0;
      peak = 0;
      values = Hashtbl.create 32;
    }

  let live_guards t = List.length t.live
  let peak_live_guards t = t.peak

  let lookup t v = Hashtbl.find_opt t.values v

  let parent_outcome = function
    | F_det (d, s) -> Some (d, s)
    | F_pending r -> r.outcome

  (* Status of a node being opened, given its (already substituted)
     expressions and its parent's status. Creates a guard record when the
     visibility is not yet determined by this node's own conditions. *)
  let open_status t parent ~neg ~pos ~query =
    let pout = parent_outcome parent in
    let decision =
      match (Cond.to_bool neg, Cond.to_bool pos) with
      | Some true, _ -> Some Rule.Deny
      | Some false, Some true -> Some Rule.Allow
      | Some false, Some false -> Option.map fst pout
      | Some false, None | None, _ -> None
    in
    let scope =
      if not t.has_query then Some true
      else
        match (pout, Cond.to_bool query) with
        | Some (_, true), _ -> Some true
        | _, Some true -> Some true
        | Some (_, false), Some false -> Some false
        | _, _ -> None
    in
    match (decision, scope) with
    | Some d, Some s -> F_det (d, s)
    | _ -> (
        let own_trivial =
          Cond.to_bool neg = Some false
          && Cond.to_bool pos = Some false
          && ((not t.has_query) || Cond.to_bool query = Some false)
        in
        match (parent, own_trivial) with
        | F_pending r, true ->
            (* Pendingness is purely inherited: same condition, same key. *)
            F_pending r
        | (F_det _ | F_pending _), _ ->
            let r =
              {
                gid = t.next_gid;
                key = Drbg.generate t.drbg seal_key_bytes;
                g_neg = neg;
                g_pos = pos;
                g_query = query;
                parent =
                  (match parent with
                  | F_det (d, s) -> P_det (d, s)
                  | F_pending p -> P_rec p);
                outcome = None;
                seq = 0;
              }
            in
            t.next_gid <- t.next_gid + 1;
            t.live <- r :: t.live;
            if List.length t.live > t.peak then t.peak <- List.length t.live;
            F_pending r)

  (* Try to finalize [r]: possible when its own expressions are constant
     and its parent is decided. Cascades into records whose parent was
     [r]. *)
  let rec finalize t out r =
    if r.outcome = None then begin
      let pout =
        match r.parent with P_det (d, s) -> Some (d, s) | P_rec p -> p.outcome
      in
      match
        (Cond.to_bool r.g_neg, Cond.to_bool r.g_pos, Cond.to_bool r.g_query, pout)
      with
      | Some neg, Some pos, query_const, Some (pdec, pscope) ->
          let query_known =
            (not t.has_query) || pscope || query_const <> None
          in
          if query_known then begin
            let decision =
              if neg then Rule.Deny else if pos then Rule.Allow else pdec
            in
            let in_scope =
              (not t.has_query) || pscope || query_const = Some true
            in
            r.outcome <- Some (decision, in_scope);
            t.live <- List.filter (fun x -> x.gid <> r.gid) t.live;
            let visible = decision = Rule.Allow && in_scope in
            out :=
              (if visible then Release { guard = r.gid; key = r.key }
               else Drop { guard = r.gid })
              :: !out;
            (* Children waiting on this outcome can now settle. *)
            List.iter (fun child -> finalize t out child) t.live
          end
      | _, _, _, _ -> ()
    end

  let on_resolve t out v b =
    Hashtbl.replace t.values v b;
    let subst = Cond.subst (fun v' -> if v' = v then Some b else None) in
    List.iter
      (fun r ->
        r.g_neg <- subst r.g_neg;
        r.g_pos <- subst r.g_pos;
        r.g_query <- subst r.g_query)
      t.live;
    List.iter (fun r -> finalize t out r) t.live

  let feed t ev =
    let out = ref [] in
    (match ev with
    | Output.Open_node { tag = _; neg; pos; query } -> (
        match t.frames with
        | [] -> invalid_arg "Guard.Protector: no frames"
        | parent :: _ ->
            (* Conditions may have resolved since the engine emitted the
               event; substitute with everything seen so far. *)
            let neg = Cond.subst (lookup t) neg in
            let pos = Cond.subst (lookup t) pos in
            let query = Cond.subst (lookup t) query in
            let status = open_status t parent ~neg ~pos ~query in
            t.frames <- status :: t.frames;
            out := Clear ev :: !out)
    | Output.Text_node v -> (
        match t.frames with
        | [] | [ _ ] -> invalid_arg "Guard.Protector: text outside elements"
        | top :: _ -> (
            match top with
            | F_det (Rule.Allow, true) -> out := Clear ev :: !out
            | F_det (_, _) ->
                (* Determinately invisible: nothing to protect, nothing to
                   deliver (the engine drops these anyway). *)
                ()
            | F_pending r -> (
                match r.outcome with
                | Some (Rule.Allow, true) -> out := Clear ev :: !out
                | Some _ -> ()
                | None ->
                    let cipher = seal ~key:r.key ~gid:r.gid ~seq:r.seq v in
                    r.seq <- r.seq + 1;
                    out :=
                      Sealed { guard = r.gid; event = Sealed_text { cipher } }
                      :: !out)))
    | Output.Close_node _ -> (
        match t.frames with
        | [] | [ _ ] -> invalid_arg "Guard.Protector: close without open"
        | _ :: rest ->
            t.frames <- rest;
            out := Clear ev :: !out)
    | Output.Resolve (v, b) ->
        out := Clear ev :: !out;
        on_resolve t out v b);
    List.rev !out

  let finish t =
    (match t.frames with
    | [ F_det _ ] -> ()
    | _ -> invalid_arg "Guard.Protector.finish: elements still open");
    (* On a complete stream every condition has resolved, so no live
       record can remain. *)
    if t.live <> [] then
      invalid_arg "Guard.Protector.finish: unresolved guards";
    []
end

module Unsealer = struct
  type t = {
    default : Rule.sign option;
    has_query : bool;
    mutable rev_messages : message list;
    keys : (int, string option) Hashtbl.t;
        (* Some key = released, None = dropped *)
    mutable withheld : int;
  }

  let create ?default ~has_query () =
    { default; has_query; rev_messages = []; keys = Hashtbl.create 16; withheld = 0 }

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
    Reassembler.run ?default:t.default ~has_query:t.has_query outs

  let sealed_bytes_withheld t = t.withheld
end
