(* The unified client session: one API over a local card, a channel
   pool and a multi-card fleet. See client.mli for the contract. *)

module Store = Sdds_dsp.Store
module Publish = Sdds_dsp.Publish
module Card = Sdds_soe.Card
module Apdu = Sdds_soe.Apdu
module Reassembler = Sdds_core.Reassembler
module Output_codec = Sdds_core.Output_codec
module Serializer = Sdds_xml.Serializer
module Fanout = Sdds_dissem.Fanout

(* A local card behind {!Proxy.run}, presented through the streaming
   BACKEND contract. The request is synchronous, so the "stream" is the
   finished result; the served record is synthesized: channel 0 (the
   basic channel a lone terminal would use), warm_setup is the card's
   prepared-cache hit, frames and bytes are the request upload and the
   output download of the direct exchange. *)
module Direct_backend = struct
  type t = Proxy.t
  type stream = (Proxy.Pool.served, Proxy.error) result

  let served_of_outcome (o : Proxy.outcome) =
    let out_bytes = o.Proxy.card_report.Card.output_bytes in
    {
      Proxy.Pool.view = o.Proxy.view;
      xml = o.Proxy.xml;
      channel = 0;
      warm_setup = o.Proxy.card_report.Card.prepared_hit;
      command_frames = o.Proxy.request_apdu_frames;
      response_frames = Apdu.frame_count ~payload_bytes:out_bytes;
      wire_bytes = out_bytes;
      retries = 0;
    }

  let start t req = Result.map served_of_outcome (Proxy.run t req)
  let step _ _ = ()
  let result st = Some st
end

module Fleet_backend = struct
  type t = Fleet.t
  type stream = Fleet.stream

  let start = Fleet.start
  let step = Fleet.step

  let result st =
    Option.map (fun (o : Fleet.outcome) -> o.Fleet.result) (Fleet.result st)
end

type t =
  | Direct of { proxy : Proxy.t; store : Store.t; card : Card.t }
  | Pooled of Proxy.Pool.t
  | Fleeted of Fleet.t

type packed =
  | Session : (module Proxy.BACKEND with type t = 'b) * 'b -> packed

let packed = function
  | Direct { proxy; _ } -> Session ((module Direct_backend), proxy)
  | Pooled p -> Session ((module Proxy.Pool), p)
  | Fleeted f -> Session ((module Fleet_backend), f)

let direct ~store ~card =
  Direct { proxy = Proxy.create ~store ~card; store; card }

let pooled p = Pooled p
let fleet f = Fleeted f

let backend_name = function
  | Direct _ -> "direct"
  | Pooled _ -> "pool"
  | Fleeted _ -> "fleet"

let fleet_handle = function
  | Fleeted f -> Some f
  | Direct _ | Pooled _ -> None

let serve t reqs =
  let (Session ((module B), b)) = packed t in
  let streams = List.map (B.start b) reqs in
  let unfinished s = Option.is_none (B.result s) in
  while List.exists unfinished streams do
    List.iter (fun s -> if unfinished s then B.step b s) streams
  done;
  List.map (fun s -> Option.get (B.result s)) streams

let query t ?xpath ?protect ?subject doc_id =
  match serve t [ Proxy.Request.make ?xpath ?protect ?subject doc_id ] with
  | [ r ] -> r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Dissemination                                                       *)
(* ------------------------------------------------------------------ *)

let served_of_outputs outs =
  let view = Reassembler.run ~has_query:false outs in
  let out_bytes = Output_codec.size_list outs in
  {
    Proxy.Pool.view;
    xml = Option.map (Serializer.to_string ~indent:true) view;
    channel = 0;
    warm_setup = false;
    command_frames = 0;
    response_frames = Apdu.frame_count ~payload_bytes:out_bytes;
    wire_bytes = out_bytes;
    retries = 0;
  }

let deliver_direct ~proxy ~store ~card ~doc_id subscribers =
  match Store.get_document store doc_id with
  | None -> Error (Proxy.Unknown_document doc_id)
  | Some published -> (
      match Proxy.ensure_key proxy ~doc_id ~subject:(Card.subject card) with
      | Error e -> Error e
      | Ok () -> (
          let source = Publish.to_source published ~delivery:`Push in
          let blobs =
            List.map
              (fun s -> (s, Store.get_rules store ~doc_id ~subject:s))
              subscribers
          in
          let present =
            List.filter_map
              (fun (s, b) -> Option.map (fun b -> (s, b)) b)
              blobs
          in
          match Card.disseminate card source ~subscribers:present () with
          | Error e -> Error (Proxy.Card_error e)
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
              Ok (per, Some report.Card.sharing)))

let deliver t ~doc_id subscribers =
  match t with
  | Direct { proxy; store; card } -> (
      (* A rotation leaves the gateway holding the old key: refresh the
         grant and retry once, as [Proxy.run] does for a query. *)
      match deliver_direct ~proxy ~store ~card ~doc_id subscribers with
      | Error (Proxy.Card_error e) as stale when Proxy.stale_evidence e -> (
          match
            Proxy.refresh_key proxy ~doc_id ~subject:(Card.subject card)
          with
          | Ok () -> deliver_direct ~proxy ~store ~card ~doc_id subscribers
          | Error () -> stale)
      | result -> result)
  | Pooled _ | Fleeted _ ->
      (* Rule blobs are MAC-bound per subject, so a remote card cannot
         share one evaluation across subscribers: dissemination over the
         wire is one push stream per subscriber, interleaved by the
         backend. No sharing stats to report. *)
      let reqs =
        List.map
          (fun s -> Proxy.Request.make ~delivery:`Push ~subject:s doc_id)
          subscribers
      in
      Ok (List.combine subscribers (serve t reqs), None)
