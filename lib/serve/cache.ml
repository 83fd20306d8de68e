module J = Vio_util.Json
module Fsio = Vio_util.Fsio

let codec_version =
  Printf.sprintf "%s+%s%d" Recorder.Codec.magic Recorder.Codec.magic_v2
    Recorder.Codec.binary_version

let key ~trace_sha256 ~(model : Verifyio.Model.t) ~flags =
  Vio_util.Sha256.digest_string
    (String.concat "\n"
       [
         trace_sha256;
         model.Verifyio.Model.name;
         Verifyio.Model.msc_digest model;
         flags;
         codec_version;
       ])

let entry_path ~dir ~key =
  Filename.concat (Filename.concat dir (String.sub key 0 2)) (key ^ ".json")

let lookup ~dir ~key =
  let path = entry_path ~dir ~key in
  if Sys.file_exists path then Some (Fsio.read_file path) else None

let store ~dir ~key contents =
  Vio_util.Failpoint.hit "cache.store";
  let path = entry_path ~dir ~key in
  Fsio.ensure_dir (Filename.dirname path);
  Fsio.atomic_write ~path contents

let max_race_pairs = 500

let confidence_name = function
  | Verifyio.Verify.Definite -> "definite"
  | Verifyio.Verify.Under_partial_order -> "under_partial_order"
  | Verifyio.Verify.Under_degradation -> "under_degradation"

let verdict_json ~flags ~trace_sha256 ~lenient ~partial
    ~(model : Verifyio.Model.t) (o : Verifyio.Pipeline.outcome) =
  let races = o.Verifyio.Pipeline.races in
  let count_conf c =
    List.length
      (List.filter (fun (r : Verifyio.Verify.race) -> r.confidence = c) races)
  in
  let listed =
    List.filteri (fun i _ -> i < max_race_pairs) races
    |> List.map (fun (r : Verifyio.Verify.race) ->
           J.List
             [
               J.Int r.Verifyio.Verify.rx;
               J.Int r.Verifyio.Verify.ry;
               J.Str (confidence_name r.Verifyio.Verify.confidence);
             ])
  in
  J.Obj
    [
      ("model", J.Str model.Verifyio.Model.name);
      ("trace_sha256", J.Str trace_sha256);
      ("flags", J.Str flags);
      ("codec", J.Str codec_version);
      ( "verdict",
        J.Obj
          [
            ("races", J.Int o.Verifyio.Pipeline.race_count);
            ("conflicts", J.Int o.Verifyio.Pipeline.conflicts);
            ("unmatched", J.Int (List.length o.Verifyio.Pipeline.unmatched));
            ("inventory", J.Int (List.length o.Verifyio.Pipeline.inventory));
            ("dropped_events", J.Int o.Verifyio.Pipeline.dropped_events);
            ("graph_nodes", J.Int o.Verifyio.Pipeline.graph_nodes);
            ("graph_edges", J.Int o.Verifyio.Pipeline.graph_edges);
            ( "confidence",
              J.Obj
                [
                  ("definite", J.Int (count_conf Verifyio.Verify.Definite));
                  ( "under_partial_order",
                    J.Int (count_conf Verifyio.Verify.Under_partial_order) );
                  ( "under_degradation",
                    J.Int (count_conf Verifyio.Verify.Under_degradation) );
                ] );
            ("race_pairs", J.List listed);
            ( "race_pairs_truncated",
              J.Bool (o.Verifyio.Pipeline.race_count > max_race_pairs) );
          ] );
      ("exit", J.Int (Verifyio.Pipeline.exit_code ~lenient ~partial o));
    ]

let render doc = J.to_string doc ^ "\n"
