let escape buf ~quot s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | _ -> Buffer.add_char buf c)
    s

let escape_text s =
  let b = Buffer.create (String.length s) in
  escape b ~quot:false s;
  Buffer.contents b

let escape_attribute s =
  let b = Buffer.create (String.length s) in
  escape b ~quot:true s;
  Buffer.contents b

(* Render from the DOM: attributes need lookahead (they must be folded into
   the opening tag), which is awkward event-by-event, so the event entry
   point goes through the DOM. *)

let rec render buf ~indent level node =
  let pad () =
    if indent then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ')
    end
  in
  match node with
  | Dom.Text v ->
      pad ();
      escape buf ~quot:false v
  | Dom.Element (tag, kids) ->
      let is_attr = function
        | Dom.Element (t, _) -> Event.is_attribute_tag t
        | Dom.Text _ -> false
      in
      let attrs, content = List.partition is_attr kids in
      pad ();
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun a ->
          match a with
          | Dom.Element (atag, avs) ->
              let name = String.sub atag 1 (String.length atag - 1) in
              let value =
                String.concat ""
                  (List.filter_map
                     (function Dom.Text v -> Some v | Dom.Element _ -> None)
                     avs)
              in
              Buffer.add_char buf ' ';
              Buffer.add_string buf name;
              Buffer.add_string buf "=\"";
              escape buf ~quot:true value;
              Buffer.add_char buf '"'
          | Dom.Text _ -> assert false)
        attrs;
      if content = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let inline =
          match content with [ Dom.Text _ ] -> true | _ -> false
        in
        if inline then
          List.iter (render buf ~indent:false (level + 1)) content
        else List.iter (render buf ~indent (level + 1)) content;
        if indent && not inline then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (2 * level) ' ')
        end;
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>'
      end

let to_string ?(indent = false) doc =
  let b = Buffer.create 1024 in
  render b ~indent 0 doc;
  Buffer.contents b
