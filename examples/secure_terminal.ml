(* The terminal <-> card wire, made visible.

   Everything between the proxy and the SOE crosses an ISO 7816 link in
   255-byte APDU frames; this example runs a pull query through the
   proxy's channel pool (Proxy.Pool) over the real framed protocol
   (Remote_card), with a tracing transport printing every command and
   status word — the exchange the demo's Figure 3 labels "APDU". Run
   with:

     dune exec examples/secure_terminal.exe
*)

module Remote_card = Sdds_soe.Remote_card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Proxy = Sdds_proxy.Proxy
module World = Sdds_proxy.World
module Rule = Sdds_core.Rule
module Drbg = Sdds_crypto.Drbg
module Rsa = Sdds_crypto.Rsa
module Rng = Sdds_util.Rng

let ins_name ins =
  if ins = Remote_card.Ins.select then "SELECT "
  else if ins = Remote_card.Ins.grant then "GRANT  "
  else if ins = Remote_card.Ins.rules then "RULES  "
  else if ins = Remote_card.Ins.query then "QUERY  "
  else if ins = Remote_card.Ins.evaluate then "EVAL   "
  else if ins = Remote_card.Ins.get_response then "GETRESP"
  else Printf.sprintf "INS %02X" ins

let () =
  let drbg = Drbg.create ~seed:"secure-terminal" in
  let publisher = Rsa.generate drbg ~bits:512 in
  let user = Rsa.generate drbg ~bits:512 in
  let doc = Sdds_xml.Generator.hospital (Rng.create 5L) ~patients:3 in
  let rules =
    [ Rule.allow ~subject:"nurse" "//patient"; Rule.deny ~subject:"nurse" "//ssn" ]
  in
  let w =
    World.create drbg ~publisher ~user ~subject:"nurse" [ ("ward", doc, rules) ]
  in
  let host = World.host ~profile:Cost.egate w in

  print_endline "== APDU trace (terminal -> card -> terminal) ==";
  let frame_no = ref 0 in
  let tracing cmd =
    incr frame_no;
    let resp = Remote_card.Host.process host cmd in
    Printf.printf "#%02d  > %s p1=%d p2=%3d | %3dB data\n" !frame_no
      (ins_name cmd.Apdu.ins) cmd.Apdu.p1 cmd.Apdu.p2
      (String.length cmd.Apdu.data);
    Printf.printf "     <          SW %02X%02X | %3dB payload\n"
      resp.Apdu.sw1 resp.Apdu.sw2
      (String.length resp.Apdu.payload);
    resp
  in
  let pool =
    Proxy.Pool.create ~store:(World.store w) ~transport:tracing
      ~subject:"nurse" ()
  in
  match
    Proxy.Pool.serve pool [ Proxy.Request.make ~xpath:"//patient/name" "ward" ]
  with
  | [ Ok s ] -> (
      Printf.printf
        "\n%d command frames, %d response frames, %d bytes on the wire\n"
        s.Proxy.Pool.command_frames s.Proxy.Pool.response_frames
        s.Proxy.Pool.wire_bytes;
      print_endline "\n== Reassembled view ==";
      match s.Proxy.Pool.xml with
      | Some xml -> print_endline xml
      | None -> print_endline "(nothing authorized)")
  | [ Error e ] ->
      prerr_endline (Format.asprintf "exchange failed: %a" Proxy.pp_error e)
  | _ -> assert false (* one request, one result *)
