type failure = { f_tag : string; f_index : int; f_exn : string }

let to_string f =
  Printf.sprintf "%s: worker %d died: %s" f.f_tag f.f_index f.f_exn

let run_workers ~tag ~domains body =
  let domains = max 1 domains in
  let failures = Array.make domains None in
  let guarded w () =
    try body w
    with exn ->
      failures.(w) <-
        Some { f_tag = tag; f_index = w; f_exn = Printexc.to_string exn }
  in
  if domains = 1 then guarded 0 ()
  else begin
    let spawned =
      Array.init (domains - 1) (fun i -> Domain.spawn (guarded (i + 1)))
    in
    guarded 0 ();
    Array.iter Domain.join spawned
  end;
  Array.to_list failures |> List.filter_map Fun.id

let note_fallback ~tag failures =
  match failures with
  | [] -> ()
  | first :: _ ->
    Metrics.incr "supervisor/fallbacks";
    Metrics.incr ("supervisor/fallback/" ^ tag);
    Printf.eprintf
      "verifyio: [supervisor] %s: %d domain failure(s) (%s); retrying \
       sequentially\n%!"
      tag (List.length failures) first.f_exn
