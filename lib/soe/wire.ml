module Aes = Sdds_crypto.Aes
module Mode = Sdds_crypto.Mode
module Sha256 = Sdds_crypto.Sha256
module Hmac = Sdds_crypto.Hmac
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rule = Sdds_core.Rule

let key_bytes = 16

let fresh_doc_key drbg = Drbg.generate drbg key_bytes

(* SHA-256("chunk-iv|" ^ doc_id ^ "|" ^ decimal index), first 16 bytes. *)
let chunk_iv ~doc_id ~index =
  String.sub
    (Sha256.digest3 "chunk-iv|" doc_id ("|" ^ string_of_int index))
    0 16

let encrypt_chunk ~key ~doc_id ~index plain =
  let k = Aes.expand_key key in
  Mode.encrypt_cbc k ~iv:(chunk_iv ~doc_id ~index) plain

let decrypt_chunk_into k ~doc_id ~index cipher dst pos len =
  Mode.decrypt_cbc_into k ~iv:(chunk_iv ~doc_id ~index) cipher dst pos len

let decrypt_chunk ~key ~doc_id ~index cipher =
  Mode.decrypt_cbc (Aes.expand_key key) ~iv:(chunk_iv ~doc_id ~index) cipher

let wrap_doc_key drbg pub ~doc_id key =
  Rsa.encrypt drbg pub (doc_id ^ "\x00" ^ key)

let unwrap_doc_key sec ~doc_id wrapped =
  match Rsa.decrypt sec wrapped with
  | None -> None
  | Some plain -> (
      match String.index_opt plain '\x00' with
      | None -> None
      | Some i ->
          let id = String.sub plain 0 i in
          let key = String.sub plain (i + 1) (String.length plain - i - 1) in
          if String.equal id doc_id && String.length key = key_bytes then
            Some key
          else None)

let encode_rules rules = String.concat "\n" (List.map Rule.to_string rules)

let decode_rules blob =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' blob)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Rule.parse line with
        | rule -> go (rule :: acc) rest
        | exception Invalid_argument msg -> Error msg
        | exception Sdds_xpath.Parser.Error (_, msg) ->
            Error ("bad rule path: " ^ msg))
  in
  go [] lines

let rule_mac_key key = Sha256.digest ("rule-mac|" ^ key)

let rule_authority_message ~doc_id ~subject ~version rules_text =
  Printf.sprintf "sdds-rules|%s|%s|%d|" doc_id subject version
  ^ Sha256.digest rules_text

(* Plaintext layout inside the CBC envelope: [version varint]
   [sig length (2 bytes BE)] [signature] [rules text]. *)
let encrypt_rules drbg ~key ~doc_id ~subject ?(version = 0) ~signer rules =
  if String.length key <> key_bytes then invalid_arg "Wire.encrypt_rules: key";
  if version < 0 then invalid_arg "Wire.encrypt_rules: negative version";
  let rules_text = encode_rules rules in
  let signature =
    Rsa.sign signer
      (rule_authority_message ~doc_id ~subject ~version rules_text)
  in
  let siglen = String.length signature in
  if siglen > 0xffff then invalid_arg "Wire.encrypt_rules: signature too long";
  let vbuf = Buffer.create 4 in
  Sdds_util.Varint.write vbuf version;
  let plain =
    Buffer.contents vbuf
    ^ String.init 2 (fun i ->
          Char.chr ((siglen lsr (8 * (1 - i))) land 0xff))
    ^ signature ^ rules_text
  in
  let iv = Drbg.generate drbg 16 in
  let cipher = Mode.encrypt_cbc (Aes.expand_key key) ~iv plain in
  let mac = Hmac.mac ~key:(rule_mac_key key) (iv ^ cipher) in
  iv ^ cipher ^ mac

let decrypt_rules ~key ~doc_id ~subject ~publisher blob =
  if String.length key <> key_bytes then invalid_arg "Wire.decrypt_rules: key";
  let n = String.length blob in
  if n < 16 + 32 then Error "rule blob too short"
  else begin
    let iv = String.sub blob 0 16 in
    let cipher = String.sub blob 16 (n - 16 - 32) in
    let mac = String.sub blob (n - 32) 32 in
    if not (Hmac.verify ~key:(rule_mac_key key) (iv ^ cipher) ~tag:mac) then
      Error "rule blob failed integrity check"
    else
      match Mode.decrypt_cbc (Aes.expand_key key) ~iv cipher with
      | None -> Error "rule blob failed to decrypt"
      | Some plain -> (
          match Sdds_util.Varint.read plain 0 with
          | exception Invalid_argument _ -> Error "rule blob malformed"
          | version, off ->
              if String.length plain < off + 2 then Error "rule blob malformed"
              else begin
                let siglen =
                  (Char.code plain.[off] lsl 8) lor Char.code plain.[off + 1]
                in
                if String.length plain < off + 2 + siglen then
                  Error "rule blob malformed"
                else begin
                  let signature = String.sub plain (off + 2) siglen in
                  let rules_text =
                    String.sub plain
                      (off + 2 + siglen)
                      (String.length plain - off - 2 - siglen)
                  in
                  if
                    not
                      (Rsa.verify publisher
                         (rule_authority_message ~doc_id ~subject ~version
                            rules_text)
                         ~signature)
                  then Error "rule blob not signed by the publisher"
                  else
                    Result.map (fun rules -> (version, rules))
                      (decode_rules rules_text)
                end
              end)
  end

let signed_root_message ~doc_id ~merkle_root ~plain_length =
  Printf.sprintf "sdds-doc|%s|%d|" doc_id plain_length ^ merkle_root
