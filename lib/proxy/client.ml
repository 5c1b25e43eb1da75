(* The dissemination gateway session. See client.mli for the contract. *)

module Store = Sdds_dsp.Store
module Publish = Sdds_dsp.Publish
module Card = Sdds_soe.Card
module Apdu = Sdds_soe.Apdu
module Reassembler = Sdds_core.Reassembler
module Output_codec = Sdds_core.Output_codec

type t = { store : Store.t; card : Card.t }

let direct ~store ~card = { store; card }

let served_of_outputs outs =
  let out_bytes = Output_codec.size_list outs in
  {
    Proxy.Pool.view = lazy (Reassembler.run ~has_query:false outs);
    xml = Reassembler.xml ~has_query:false (fun f -> List.iter f outs);
    channel = 0;
    warm_setup = false;
    command_frames = 0;
    response_frames = Apdu.frame_count ~payload_bytes:out_bytes;
    wire_bytes = out_bytes;
    retries = 0;
  }

(* The DSP is read as a ticket is: the document, the subscribers' rule
   blobs, then the gateway's own grant; the publish runs under the key
   rule, so a rotation costs one grant refresh and one retry. *)
let deliver { store; card } ~doc_id subscribers =
  match Store.get_document store doc_id with
  | None -> Error (Proxy.Unknown_document doc_id)
  | Some published -> (
      let source = Publish.to_source published ~delivery:`Push in
      let blobs =
        List.map
          (fun s -> (s, Store.get_rules store ~doc_id ~subject:s))
          subscribers
      in
      let present =
        List.filter_map (fun (s, b) -> Option.map (fun b -> (s, b)) b) blobs
      in
      let grant = Store.get_grant store ~doc_id ~subject:(Card.subject card) in
      match
        Proxy.keyed card ~doc_id ~grant (fun () ->
            Card.disseminate card source ~subscribers:present ())
      with
      | Error e -> Error e
      | Ok (results, report) ->
          (* Members of a cluster share one output list, and [served]
             depends on the list alone: build one record per list. *)
          let built = ref [] in
          let served outs =
            match List.assq_opt outs !built with
            | Some r -> r
            | None ->
                let r = served_of_outputs outs in
                built := (outs, r) :: !built;
                r
          in
          let per =
            List.map
              (fun (s, blob) ->
                match blob with
                | None -> (s, Error Proxy.No_rules)
                | Some _ -> (
                    match List.assoc_opt s results with
                    | Some (Ok outs) -> (s, Ok (served outs))
                    | Some (Error e) -> (s, Error (Proxy.Card_error e))
                    | None -> (s, Error Proxy.No_rules)))
              blobs
          in
          Ok (per, report.Card.sharing))
