module J = Vio_util.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
}

type workload = { w_name : string; why : string }

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let chars_ok ok s = String.for_all ok s

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let check cond msg = if cond then Ok () else Error msg

let name_ok s =
  s <> "" && String.length s <= 64
  && is_alnum s.[0]
  && chars_ok (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let unit_ok s =
  s <> "" && String.length s <= 16
  && chars_ok (fun c -> is_alnum c || String.contains "_/%.-" c) s

let path_ok s =
  s <> "" && String.length s <= 200 && s.[0] <> '/'
  && chars_ok (fun c -> is_alnum c || String.contains "_.-/" c) s
  && not (List.mem ".." (String.split_on_char '/' s))

let keys_exactly want = function
  | J.Obj fields ->
    let have = List.sort compare (List.map fst fields) in
    check (have = List.sort compare want)
      (Printf.sprintf "keys must be exactly %s" (String.concat ", " want))
  | _ -> Error "expected an object"

let field k j =
  match J.member k j with Some v -> Ok v | None -> Error ("missing " ^ k)

let str k j =
  let* v = field k j in
  match J.to_str v with Some s -> Ok s | None -> Error (k ^ " must be a string")

let list k j =
  let* v = field k j in
  match J.to_list v with Some l -> Ok l | None -> Error (k ^ " must be a list")

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let string_item = function
  | J.Str s -> Ok s
  | _ -> Error "expected a string"

let metric ~bounded j =
  let* () =
    keys_exactly
      ([ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else [])
      j
  in
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* better =
    let* b = str "better" j in
    match b with
    | "lower" -> Ok Lower
    | "higher" -> Ok Higher
    | _ -> Error (name ^ ": better must be lower or higher")
  in
  let* () = check (name_ok name) ("bad metric name " ^ name) in
  let* () = check (unit_ok unit_) (name ^ ": bad unit " ^ unit_) in
  let* bound =
    if not bounded then Ok None
    else
      let* b = field "bound" j in
      let* f =
        match b with
        | J.Float f -> Ok f
        | J.Int i -> Ok (float_of_int i)
        | _ -> Error (name ^ ": bound must be a number")
      in
      let* () = check (f > 0. && f <= 0.25) (name ^ ": bound outside (0, 0.25]") in
      Ok (Some f)
  in
  Ok { name; unit_; better; bound }

let workload j =
  let* () = keys_exactly [ "name"; "why" ] j in
  let* w_name = str "name" j in
  let* why = str "why" j in
  let* () = check (name_ok w_name) ("bad workload name " ^ w_name) in
  let* () =
    check
      (why <> "" && String.length why <= 200 && not (String.contains why '\n'))
      (w_name ^ ": why must be one line of at most 200 characters")
  in
  Ok { w_name; why }

let in_range lo hi what l =
  check
    (List.length l >= lo && List.length l <= hi)
    (Printf.sprintf "%s: %d to %d entries" what lo hi)

let of_json j =
  let* () =
    keys_exactly
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      j
  in
  let* command = Result.bind (list "command" j) (map_result string_item) in
  let* paths = Result.bind (list "paths" j) (map_result string_item) in
  let* run_seconds =
    let* v = field "run_seconds" j in
    match J.to_int v with
    | Some n when n >= 1 && n <= 60 -> Ok n
    | _ -> Error "run_seconds must be a whole number from 1 to 60"
  in
  let* workloads = Result.bind (list "workloads" j) (map_result workload) in
  let* end_to_end =
    Result.bind (list "end_to_end" j) (map_result (metric ~bounded:true))
  in
  let* per_layer =
    Result.bind (list "per_layer" j) (map_result (metric ~bounded:false))
  in
  let* () = in_range 1 32 "command" command in
  let* () =
    check
      (List.for_all (fun s -> s <> "" && String.length s <= 200) command)
      "command arguments must be 1 to 200 characters"
  in
  let* () = in_range 1 16 "paths" paths in
  let* () = check (List.for_all path_ok paths) "bad path in paths" in
  let* () = in_range 2 8 "workloads" workloads in
  let* () = in_range 1 16 "end_to_end" end_to_end in
  let* () = in_range 1 128 "per_layer" per_layer in
  let names =
    List.map (fun w -> w.w_name) workloads
    @ List.map (fun m -> m.name) (end_to_end @ per_layer)
  in
  let* () =
    check
      (List.length (List.sort_uniq compare names) = List.length names)
      "names must be unique"
  in
  let* () =
    check
      (List.exists
         (fun m -> m.name = "setup_s" && m.unit_ = "s" && m.better = Lower)
         end_to_end)
      "end_to_end must hold setup_s in s, lower is better"
  in
  Ok { command; paths; run_seconds; workloads; end_to_end; per_layer }

let metric_json m =
  J.Obj
    ([
       ("name", J.Str m.name);
       ("unit", J.Str m.unit_);
       ("better", J.Str (match m.better with Lower -> "lower" | Higher -> "higher"));
     ]
    @ match m.bound with Some b -> [ ("bound", J.Float b) ] | None -> [])

let to_json t =
  J.Obj
    [
      ("command", J.List (List.map (fun s -> J.Str s) t.command));
      ("paths", J.List (List.map (fun s -> J.Str s) t.paths));
      ("run_seconds", J.Int t.run_seconds);
      ( "workloads",
        J.List
          (List.map
             (fun w -> J.Obj [ ("name", J.Str w.w_name); ("why", J.Str w.why) ])
             t.workloads) );
      ("end_to_end", J.List (List.map metric_json t.end_to_end));
      ("per_layer", J.List (List.map metric_json t.per_layer));
    ]

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let* j = J.of_string text in
    of_json j
