module J = Vio_util.Json
module Fsio = Vio_util.Fsio

type t = {
  root : string;
  incoming : string;
  claimed : string;
  responses : string;
  quarantine : string;
  cache : string;
  journal : string;
}

let layout root =
  let sub name = Filename.concat root name in
  let t =
    {
      root;
      incoming = sub "incoming";
      claimed = sub "claimed";
      responses = sub "responses";
      quarantine = sub "quarantine";
      cache = sub "cache";
      journal = sub "journal.jsonl";
    }
  in
  List.iter Fsio.ensure_dir
    [ t.incoming; t.claimed; t.responses; t.quarantine; t.cache ];
  ignore (Fsio.sweep_tmp t.incoming);
  ignore (Fsio.sweep_tmp t.responses);
  (* Cache entries stage-then-rename inside two-hex-digit shard dirs; a
     crash mid-store leaves .tmp debris one level down. *)
  if Sys.file_exists t.cache && Sys.is_directory t.cache then
    Array.iter
      (fun sub -> ignore (Fsio.sweep_tmp (Filename.concat t.cache sub)))
      (Sys.readdir t.cache);
  t

type jobspec = {
  id : string;
  trace : string;
  models : string list;
  lenient : bool;
  partial : bool;
  budget : int option;
  timeout_ms : int option;
}

let jobspec_to_json s =
  J.Obj
    [
      ("id", J.Str s.id);
      ("trace", J.Str s.trace);
      ("models", J.List (List.map (fun m -> J.Str m) s.models));
      ("lenient", J.Bool s.lenient);
      ("partial", J.Bool s.partial);
      ("budget", match s.budget with Some b -> J.Int b | None -> J.Null);
      ( "timeout_ms",
        match s.timeout_ms with Some t -> J.Int t | None -> J.Null );
    ]

let jobspec_of_json doc =
  let str key =
    match Option.bind (J.member key doc) J.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "job spec: missing or non-string %S" key)
  in
  let flag key =
    match J.member key doc with
    | None -> Ok false
    | Some v -> (
      match J.to_bool v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "job spec: non-bool %S" key))
  in
  (* Both optional ints are bounds, so only a positive one is a spec:
     [Batch.job] and [Budget.create] refuse anything below 1. *)
  let opt_int key =
    match J.member key doc with
    | None | Some J.Null -> Ok None
    | Some v -> (
      match J.to_int v with
      | Some i when i >= 1 -> Ok (Some i)
      | Some i ->
        Error (Printf.sprintf "job spec: %S must be >= 1, got %d" key i)
      | None -> Error (Printf.sprintf "job spec: non-int %S" key))
  in
  let ( let* ) = Result.bind in
  let* id = str "id" in
  let* trace = str "trace" in
  let* models =
    match Option.bind (J.member "models" doc) J.to_list with
    | Some items ->
      let names = List.filter_map J.to_str items in
      if List.length names = List.length items && names <> [] then Ok names
      else Error "job spec: \"models\" must be a non-empty string list"
    | None -> Error "job spec: missing \"models\" list"
  in
  let* lenient = flag "lenient" in
  let* partial = flag "partial" in
  let* budget = opt_int "budget" in
  let* timeout_ms = opt_int "timeout_ms" in
  Ok { id; trace; models; lenient; partial; budget; timeout_ms }

let flags_string s =
  Printf.sprintf "lenient=%b;partial=%b;budget=%s" s.lenient s.partial
    (match s.budget with Some b -> string_of_int b | None -> "none")

let submit t spec =
  let path = Filename.concat t.incoming (spec.id ^ ".job") in
  Fsio.atomic_write ~path (J.to_string (jobspec_to_json spec) ^ "\n");
  path

type response = {
  r_id : string;
  r_status : string;
  r_exit : int;
  r_cached : bool;
  r_wall_ms : int;
  r_attempts : int;
  r_error : string option;
  r_verdicts : (string * J.t) list;
}

let response_path t ~id = Filename.concat t.responses (id ^ ".json")

let write_response t r =
  let doc =
    J.Obj
      [
        ("id", J.Str r.r_id);
        ("status", J.Str r.r_status);
        ("exit", J.Int r.r_exit);
        ("cached", J.Bool r.r_cached);
        ("wall_ms", J.Int r.r_wall_ms);
        ("attempts", J.Int r.r_attempts);
        ("error", match r.r_error with Some e -> J.Str e | None -> J.Null);
        ( "verdicts",
          J.List
            (List.map
               (fun (model, verdict) ->
                 J.Obj [ ("model", J.Str model); ("result", verdict) ])
               r.r_verdicts) );
      ]
  in
  Fsio.atomic_write ~path:(response_path t ~id:r.r_id) (J.to_string doc ^ "\n")

let read_response t ~id =
  let path = response_path t ~id in
  if not (Sys.file_exists path) then Error ("no response at " ^ path)
  else
    let ( let* ) = Result.bind in
    let* doc = J.of_string (String.trim (Fsio.read_file path)) in
    let str key =
      match Option.bind (J.member key doc) J.to_str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "response: missing %S" key)
    in
    let int key =
      match Option.bind (J.member key doc) J.to_int with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "response: missing %S" key)
    in
    let* r_id = str "id" in
    let* r_status = str "status" in
    let* r_exit = int "exit" in
    let* r_wall_ms = int "wall_ms" in
    let* r_attempts = int "attempts" in
    let r_cached =
      Option.value ~default:false
        (Option.bind (J.member "cached" doc) J.to_bool)
    in
    let r_error = Option.bind (J.member "error" doc) J.to_str in
    let r_verdicts =
      match Option.bind (J.member "verdicts" doc) J.to_list with
      | None -> []
      | Some items ->
        List.filter_map
          (fun item ->
            match
              ( Option.bind (J.member "model" item) J.to_str,
                J.member "result" item )
            with
            | Some m, Some v -> Some (m, v)
            | _ -> None)
          items
    in
    Ok { r_id; r_status; r_exit; r_cached; r_wall_ms; r_attempts; r_error;
         r_verdicts }

let pending_depth t =
  List.length (Fsio.files_with_suffix t.claimed ~suffix:".job")
