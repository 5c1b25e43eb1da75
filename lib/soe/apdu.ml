type command = { cla : int; ins : int; p1 : int; p2 : int; data : string }
type response = { sw1 : int; sw2 : int; payload : string }

let max_data = 255
let base_cla = 0x80
let max_channels = 4

let channel_of_cla cla = cla land 0x03

let cla_of_channel ch =
  if ch < 0 || ch >= max_channels then invalid_arg "Apdu.cla_of_channel";
  base_cla lor ch

let valid_cla cla = cla land lnot 0x03 = base_cla

let check_byte name v =
  if v < 0 || v > 0xff then invalid_arg ("Apdu: " ^ name ^ " out of range")

let command_bytes c =
  check_byte "cla" c.cla;
  check_byte "ins" c.ins;
  check_byte "p1" c.p1;
  check_byte "p2" c.p2;
  if String.length c.data > max_data then invalid_arg "Apdu: data too long";
  5 + String.length c.data

let encode_command c =
  ignore (command_bytes c);
  let b = Buffer.create (5 + String.length c.data) in
  Buffer.add_char b (Char.chr c.cla);
  Buffer.add_char b (Char.chr c.ins);
  Buffer.add_char b (Char.chr c.p1);
  Buffer.add_char b (Char.chr c.p2);
  Buffer.add_char b (Char.chr (String.length c.data));
  Buffer.add_string b c.data;
  Buffer.contents b

let decode_command s =
  if String.length s < 5 then None
  else begin
    let lc = Char.code s.[4] in
    if String.length s <> 5 + lc then None
    else
      Some
        {
          cla = Char.code s.[0];
          ins = Char.code s.[1];
          p1 = Char.code s.[2];
          p2 = Char.code s.[3];
          data = String.sub s 5 lc;
        }
  end

let response_bytes r =
  check_byte "sw1" r.sw1;
  check_byte "sw2" r.sw2;
  String.length r.payload + 2

let encode_response r =
  ignore (response_bytes r);
  r.payload ^ String.init 2 (fun i -> Char.chr (if i = 0 then r.sw1 else r.sw2))

let decode_response s =
  let n = String.length s in
  if n < 2 then None
  else
    Some
      {
        payload = String.sub s 0 (n - 2);
        sw1 = Char.code s.[n - 2];
        sw2 = Char.code s.[n - 1];
      }

let segment ~cla ~ins payload =
  let n = String.length payload in
  if n = 0 then [ { cla; ins; p1 = 0; p2 = 0; data = "" } ]
  else begin
    let frames = (n + max_data - 1) / max_data in
    List.init frames (fun i ->
        let start = i * max_data in
        let len = min max_data (n - start) in
        {
          cla;
          ins;
          p1 = (if i = frames - 1 then 0 else 1);
          p2 = i land 0xff;
          data = String.sub payload start len;
        })
  end

let reassemble commands =
  let rec go acc i = function
    | [] -> invalid_arg "Apdu.reassemble: missing final frame"
    | [ c ] ->
        if c.p1 <> 0 then invalid_arg "Apdu.reassemble: missing final frame";
        if c.p2 <> i land 0xff then
          invalid_arg "Apdu.reassemble: bad sequence number";
        String.concat "" (List.rev (c.data :: acc))
    | c :: rest ->
        if c.p1 <> 1 then invalid_arg "Apdu.reassemble: early final frame";
        if c.p2 <> i land 0xff then
          invalid_arg "Apdu.reassemble: bad sequence number";
        go (c.data :: acc) (i + 1) rest
  in
  go [] 0 commands

let frame_count ~payload_bytes =
  if payload_bytes <= 0 then 1
  else (payload_bytes + max_data - 1) / max_data
