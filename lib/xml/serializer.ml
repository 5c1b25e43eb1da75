let escape buf ~quot s =
  let flushed = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('&' | '<' | '>' | '"') as c when c <> '"' || quot ->
        Buffer.add_substring buf s !flushed (i - !flushed);
        Buffer.add_string buf
          (match c with
          | '&' -> "&amp;"
          | '<' -> "&lt;"
          | '>' -> "&gt;"
          | _ -> "&quot;");
        flushed := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf s !flushed (String.length s - !flushed)

let escape_text s =
  let b = Buffer.create (String.length s) in
  escape b ~quot:false s;
  Buffer.contents b

let escape_attribute s =
  let b = Buffer.create (String.length s) in
  escape b ~quot:true s;
  Buffer.contents b

module Writer = struct
  (* What an open element has written so far. *)
  let bare = 0 (* no content child: its open tag is unterminated *)
  let held = 1 (* one text child, held back: it may be inline *)
  let full = 2 (* its open tag ends in '>' and content follows it *)

  (* An open element. Frames are reused from one element to the next at
     the same depth, so a stream allocates none per event. *)
  type frame = {
    mutable tag : string;
    mutable at : int;  (** where its open tag ends, before any '>' *)
    mutable state : int;
    mutable text : string;  (** the held text *)
  }

  type t = {
    buf : Buffer.t;
    indent : bool;
    mutable frames : frame array;  (** the open elements, root first *)
    mutable depth : int;
    mutable attr : int;
        (** 0 outside an attribute; inside one, 1 + the depth of nesting
            below it (only the attribute's own text counts) *)
    attr_buf : Buffer.t;  (** the attribute being read *)
  }

  let create ?(indent = false) () =
    {
      buf = Buffer.create 1024;
      indent;
      frames = [||];
      depth = 0;
      attr = 0;
      attr_buf = Buffer.create 64;
    }

  let contents t = Buffer.contents t.buf

  let spaces = String.make 64 ' '

  (* A node at [level] starts on its own indented line. *)
  let pad t level =
    if t.indent then begin
      if Buffer.length t.buf > 0 then Buffer.add_char t.buf '\n';
      let n = ref (2 * level) in
      while !n > 64 do
        Buffer.add_string t.buf spaces;
        n := !n - 64
      done;
      Buffer.add_substring t.buf spaces 0 !n
    end

  (* A content child of the element at [level] arrives: terminate its
     open tag and write the text held back, which is now not inline. *)
  let content t level =
    let f = t.frames.(level) in
    if f.state <> full then begin
      Buffer.add_char t.buf '>';
      if f.state = held then begin
        pad t (level + 1);
        escape t.buf ~quot:false f.text;
        f.text <- ""
      end;
      f.state <- full
    end

  let push t tag =
    if t.depth = Array.length t.frames then
      t.frames <-
        Array.init
          (max 8 (2 * t.depth))
          (fun i ->
            if i < t.depth then t.frames.(i)
            else { tag = ""; at = 0; state = bare; text = "" });
    let f = t.frames.(t.depth) in
    f.tag <- tag;
    f.at <- Buffer.length t.buf;
    f.state <- bare;
    t.depth <- t.depth + 1

  let open_element t tag =
    if t.attr > 0 then t.attr <- t.attr + 1
    else if t.depth > 0 && Event.is_attribute_tag tag then begin
      t.attr <- 1;
      Buffer.add_char t.attr_buf ' ';
      Buffer.add_substring t.attr_buf tag 1 (String.length tag - 1);
      Buffer.add_string t.attr_buf "=\""
    end
    else begin
      if t.depth > 0 then content t (t.depth - 1);
      pad t t.depth;
      Buffer.add_char t.buf '<';
      Buffer.add_string t.buf tag;
      push t tag
    end

  let text t v =
    if t.attr = 1 then escape t.attr_buf ~quot:true v
    else if t.attr = 0 then
      if t.depth = 0 then escape t.buf ~quot:false v
      else begin
        let level = t.depth - 1 in
        let f = t.frames.(level) in
        if f.state = bare then begin
          f.state <- held;
          f.text <- v
        end
        else begin
          content t level;
          pad t (level + 1);
          escape t.buf ~quot:false v
        end
      end

  (* The attribute joins its element's open tag. Until content follows
     the tag, the tag is the buffer's end; after, the attribute is
     spliced in at the tag's recorded end. *)
  let close_attribute t =
    let f = t.frames.(t.depth - 1) in
    Buffer.add_char t.attr_buf '"';
    if f.state = full then begin
      let tail = Buffer.sub t.buf f.at (Buffer.length t.buf - f.at) in
      Buffer.truncate t.buf f.at;
      Buffer.add_buffer t.buf t.attr_buf;
      Buffer.add_string t.buf tail
    end
    else Buffer.add_buffer t.buf t.attr_buf;
    f.at <- f.at + Buffer.length t.attr_buf;
    Buffer.clear t.attr_buf

  let close_element t =
    if t.depth = 0 then invalid_arg "Serializer.Writer: close without open";
    t.depth <- t.depth - 1;
    let f = t.frames.(t.depth) in
    if f.state = bare then Buffer.add_string t.buf "/>"
    else begin
      if f.state = held then begin
        Buffer.add_char t.buf '>';
        escape t.buf ~quot:false f.text;
        f.text <- ""
      end
      else pad t t.depth;
      Buffer.add_string t.buf "</";
      Buffer.add_string t.buf f.tag;
      Buffer.add_char t.buf '>'
    end

  let close t =
    if t.attr > 0 then begin
      t.attr <- t.attr - 1;
      if t.attr = 0 then close_attribute t
    end
    else close_element t

  let event t = function
    | Event.Open tag -> open_element t tag
    | Event.Value v -> text t v
    | Event.Close _ -> close t
end

let to_string ?indent doc =
  let w = Writer.create ?indent () in
  let rec walk = function
    | Dom.Text v -> Writer.text w v
    | Dom.Element (tag, kids) ->
        Writer.open_element w tag;
        List.iter walk kids;
        Writer.close w
  in
  walk doc;
  Writer.contents w
