module Engine = Sdds_core.Engine
module Bitset = Sdds_util.Bitset
module Obs = Sdds_obs.Obs

type result = {
  outputs : Sdds_core.Output.t list;
  skipped_subtrees : int;
  skipped_bytes : int;
  skipped_ranges : (int * int) list;
  consumed_bytes : int;
  events_fed : int;
  engine_stats : Engine.stats;
  reader_peak_words : int;
}

let run ?obs ?query ?dispatch ?(use_index = true) ?compiled rules encoded =
  let tr = Obs.tracer obs in
  let reader = Reader.create encoded in
  let indexed =
    use_index && (match Reader.mode reader with Encode.Indexed _ -> true | Encode.Plain -> false)
  in
  let engine = Engine.create ?obs ?query ?dispatch ?compiled rules in
  let dict = Reader.dict reader in
  let outputs = ref [] in
  let skipped_subtrees = ref 0 in
  let skipped_bytes = ref 0 in
  let skipped_ranges = ref [] in
  let events_fed = ref 0 in
  let feed ev =
    incr events_fed;
    outputs := List.rev_append (Engine.feed engine ev) !outputs
  in
  (* One predicate for every skip check: it reads the summary of the
     element just opened. *)
  let tag_possible tag =
    match Dict.id_of_tag dict tag with
    | Some id -> Bitset.mem (Reader.summary reader) id
    | None -> false
  in
  let skippable () =
    indexed && Reader.has_summary reader
    && begin
         Obs.inc obs "skip.considered" 1;
         Engine.subtree_skippable engine ~tag:(Reader.tag reader)
           ~tag_possible ~nonempty:true
       end
  in
  let rec loop () =
    match Reader.advance reader with
    | Reader.End -> ()
    | Reader.Open when skippable () ->
        let start = Reader.byte_pos reader in
        let len = Reader.skip_subtree reader in
        skipped_bytes := !skipped_bytes + len;
        skipped_ranges := (start, len) :: !skipped_ranges;
        incr skipped_subtrees;
        Obs.inc obs "skip.pruned_subtrees" 1;
        Obs.inc obs "skip.pruned_bytes" len;
        Obs.observe obs "skip.subtree_bytes" len;
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant tr
            ~args:
              [ ("tag", Reader.tag reader); ("offset", string_of_int start);
                ("bytes", string_of_int len) ]
            "skip.prune";
        loop ()
    | Reader.Open | Reader.Text | Reader.Close ->
        feed (Reader.event reader);
        loop ()
  in
  let span = Obs.Tracer.start tr "engine.stream" in
  Obs.Tracer.with_parent tr span (fun () ->
      loop ();
      (* The root subtree itself may have been skipped — the engine then
         saw nothing at all, and the view is empty. *)
      if !events_fed > 0 then Engine.finish engine);
  if Obs.Tracer.enabled tr then
    Obs.Tracer.stop tr
      ~args:
        [ ("events", string_of_int !events_fed);
          ("skipped_subtrees", string_of_int !skipped_subtrees);
          ("skipped_bytes", string_of_int !skipped_bytes) ]
      span;
  {
    outputs = List.rev !outputs;
    skipped_subtrees = !skipped_subtrees;
    skipped_bytes = !skipped_bytes;
    skipped_ranges = List.rev !skipped_ranges;
    consumed_bytes = String.length encoded - !skipped_bytes;
    events_fed = !events_fed;
    engine_stats = Engine.stats engine;
    reader_peak_words = Reader.peak_stack_words reader;
  }
