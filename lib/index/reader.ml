module Varint = Sdds_util.Varint
module Bitset = Sdds_util.Bitset
module Event = Sdds_xml.Event

type kind = Open | Text | Close | End

type t = {
  input : string;
  rmode : Encode.mode;
  rdict : Dict.t;
  pos : int ref;
  opens : Event.t array;  (** [Event.Open] of each dictionary id *)
  closes : Event.t array;  (** [Event.Close] of each dictionary id *)
  full : Bitset.t;  (** every tag: the projection basis above the root *)
  elem_words : int;  (** {!peak_stack_words}' charge per open element *)
  (* The open stack, for depths [0 .. depth-1]: [ids.(d)] is the element's
     dictionary id, [sets.(d)] the summary it carried (if it did; the slot
     is that depth's own set, allocated with the slot), and [basis.(d)]
     the depth whose set its children are projected onto: [d] itself when
     it carried a summary, its parent's basis otherwise, [-1] for
     [full]. *)
  mutable ids : int array;
  mutable basis : int array;
  mutable sets : Bitset.t array;
  mutable depth : int;
  mutable started : bool;  (** the root element has been entered *)
  (* The facts of the last step. *)
  mutable step : kind;
  mutable id : int;
  mutable text_pos : int;
  mutable text_len : int;
  mutable has_summary : bool;
      (** the element just opened carried a summary and was not skipped *)
  mutable skip_target : int;
  mutable subtree_bytes : int;
  mutable meta_bytes : int;
  mutable peak_stack_words : int;
  header_bytes : int;
}

(* A depth's tag set. A [Plain] encoding carries no summary, so its slots
   all share [full], which nothing writes. *)
let new_slot rmode dict full =
  match rmode with
  | Encode.Plain -> full
  | Encode.Indexed _ -> Bitset.create (Dict.size dict)

let create input =
  let mlen = String.length Encode.magic in
  if
    String.length input < mlen + 1
    || not (String.equal (String.sub input 0 mlen) Encode.magic)
  then invalid_arg "Reader.create: bad magic";
  let rmode =
    match Encode.mode_of_byte input.[mlen] with
    | Some m -> m
    | None -> invalid_arg "Reader.create: unknown mode"
  in
  let rdict, pos = Dict.decode input (mlen + 1) in
  let n = Dict.size rdict in
  let full = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.set full i
  done;
  let slots = 8 in
  {
    input;
    rmode;
    rdict;
    pos = ref pos;
    opens = Array.init n (fun i -> Event.Open (Dict.tag_of_id rdict i));
    closes = Array.init n (fun i -> Event.Close (Dict.tag_of_id rdict i));
    full;
    elem_words =
      Sdds_core.Ram.element_words
        ~tag_set:(match rmode with Encode.Plain -> 0 | Encode.Indexed _ -> n);
    ids = Array.make slots 0;
    basis = Array.make slots 0;
    sets = Array.init slots (fun _ -> new_slot rmode rdict full);
    depth = 0;
    started = false;
    step = End;
    id = 0;
    text_pos = 0;
    text_len = 0;
    has_summary = false;
    skip_target = 0;
    subtree_bytes = 0;
    meta_bytes = 0;
    peak_stack_words = 0;
    header_bytes = pos;
  }

let mode t = t.rmode
let dict t = t.rdict
let byte_pos t = !(t.pos)
let peak_stack_words t = t.peak_stack_words

let grow t =
  let n = Array.length t.ids in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.ids <- extend t.ids 0;
  t.basis <- extend t.basis 0;
  t.sets <-
    Array.init (2 * n) (fun d ->
        if d < n then t.sets.(d) else new_slot t.rmode t.rdict t.full)

(* Push the element [id]; in [Indexed] mode, read its summary when its
   token carries the metadata flag. *)
let open_elem t ~with_meta id =
  if id >= Array.length t.opens then
    invalid_arg "Reader: tag id beyond the dictionary";
  let d = t.depth in
  if d = Array.length t.ids then grow t;
  t.ids.(d) <- id;
  t.id <- id;
  (match t.rmode with
  | Encode.Plain -> ()
  | Encode.Indexed { recursive } ->
      let parent = if d = 0 then -1 else t.basis.(d - 1) in
      if not with_meta then
        (* Below the indexing threshold: summarized by the nearest indexed
           ancestor; not individually skippable. *)
        t.basis.(d) <- parent
      else begin
        let meta_start = !(t.pos) in
        let size = Varint.next t.input t.pos in
        let p = !(t.pos) in
        let set = t.sets.(d) in
        let p' =
          if recursive then
            Bitset.inject_into set
              ~parent:(if parent < 0 then t.full else t.sets.(parent))
              t.input p
          else Bitset.decode_into set t.input p
        in
        t.pos := p';
        t.meta_bytes <- t.meta_bytes + (p' - meta_start);
        t.basis.(d) <- d;
        t.has_summary <- true;
        (* [size] counts from just after the size varint. *)
        t.skip_target <- p + size;
        t.subtree_bytes <- p + size - meta_start
      end);
  t.depth <- d + 1;
  t.started <- true;
  let words = t.depth * t.elem_words in
  if words > t.peak_stack_words then t.peak_stack_words <- words

let next_step t =
  let len = String.length t.input in
  let pos = !(t.pos) in
  if t.started && t.depth = 0 then begin
    if pos <> len then invalid_arg "Reader: trailing bytes after root";
    End
  end
  else if pos >= len then invalid_arg "Reader: truncated document"
  else begin
    (* Checked access: a hostile size varint can send a skip anywhere. *)
    let byte = t.input.[pos] in
    if byte = Encode.close_marker then begin
      if t.depth = 0 then invalid_arg "Reader: close marker at top level";
      t.pos := pos + 1;
      t.depth <- t.depth - 1;
      t.id <- t.ids.(t.depth);
      Close
    end
    else if byte = Encode.text_marker then begin
      if t.depth = 0 then invalid_arg "Reader: text at top level";
      t.pos := pos + 1;
      let n = Varint.next t.input t.pos in
      let p = !(t.pos) in
      if n < 0 || n > len - p then invalid_arg "Reader: truncated text";
      t.text_pos <- p;
      t.text_len <- n;
      t.pos := p + n;
      Text
    end
    else begin
      let token = Varint.next t.input t.pos in
      if token < Encode.tag_token_offset then
        invalid_arg "Reader: invalid tag token";
      let v = token - Encode.tag_token_offset in
      open_elem t ~with_meta:(v land 1 = 1) (v lsr 1);
      Open
    end
  end

let advance t =
  t.has_summary <- false;
  let k = next_step t in
  t.step <- k;
  k

let tag_id t =
  match t.step with
  | Open | Close -> t.id
  | Text | End -> invalid_arg "Reader.tag_id: not on an open or a close"

let tag t = Dict.tag_of_id t.rdict (tag_id t)

let text t =
  match t.step with
  | Text -> String.sub t.input t.text_pos t.text_len
  | Open | Close | End -> invalid_arg "Reader.text: not on a text"

let event t =
  match t.step with
  | Open -> t.opens.(t.id)
  | Close -> t.closes.(t.id)
  | Text -> Event.Value (text t)
  | End -> invalid_arg "Reader.event: at the end"

let has_summary t = t.has_summary

let summary t =
  if not t.has_summary then invalid_arg "Reader.summary: no summary here";
  t.sets.(t.depth - 1)

let subtree_bytes t =
  if not t.has_summary then
    invalid_arg "Reader.subtree_bytes: no summary here";
  t.subtree_bytes

let skip_subtree t =
  if not t.has_summary then
    invalid_arg "Reader.skip_subtree: not positioned on a just-opened element";
  let skipped = t.skip_target - !(t.pos) in
  t.pos := t.skip_target;
  t.has_summary <- false;
  t.depth <- t.depth - 1;
  skipped

let to_events encoded =
  let r = create encoded in
  let rec go acc =
    match advance r with
    | End -> List.rev acc
    | Open | Text | Close -> go (event r :: acc)
  in
  go []

let to_dom encoded = Sdds_xml.Dom.of_events (to_events encoded)

type size_stats = {
  total_bytes : int;
  header_bytes : int;
  metadata_bytes : int;
  payload_bytes : int;
}

let size_stats encoded =
  let r = create encoded in
  while advance r <> End do
    ()
  done;
  let total = String.length encoded in
  {
    total_bytes = total;
    header_bytes = r.header_bytes;
    metadata_bytes = r.meta_bytes;
    payload_bytes = total - r.header_bytes - r.meta_bytes;
  }
