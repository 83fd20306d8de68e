(* Helpers shared by the benchmark's processes. *)

module J = Vio_util.Json

let now = Unix.gettimeofday

let ms s = s *. 1000.

(* Peak resident set of a process in MiB, from the kernel's VmHWM. *)
let vmhwm_mb status_path =
  let line =
    In_channel.with_open_text status_path In_channel.input_lines
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let shuffle ~seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run this executable again with [args]; its stdout joins our stderr so
   that our stdout carries only the result line. *)
let spawn_self args =
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: args))
    Unix.stdin Unix.stderr Unix.stderr

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128

let run_self args = wait_exit (spawn_self args)

(* How many times a run sets up: at least three times, and until about
   five seconds of set-up have been measured, so that a cheap set-up is
   not a few short samples of a noisy host. The run reports the median.
   [first] is the first set-up's time; smoke runs set up once. *)
let setup_reps ~smoke ~first =
  if smoke then 1 else max 3 (min 15 (int_of_float (Float.ceil (5. /. first))))

(* Results pass from a child process to its parent through a file; both
   run this same executable, so Marshal is safe. *)
let write_value path v = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])

let read_value path = In_channel.with_open_bin path Marshal.from_channel

let num = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> failwith "expected a number"

let ratio a b = if b = 0. then 0. else a /. b

type gc = { minor : int; major : int; alloc_words : float }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
  }

let gc_metrics ~per (a : gc) (b : gc) =
  let per x = x /. float_of_int (max 1 per) in
  [
    ("gc.alloc_mb", per ((b.alloc_words -. a.alloc_words) *. 8. /. 1048576.));
    ("gc.major_collections", per (float_of_int (b.major - a.major)));
    ("gc.minor_collections", per (float_of_int (b.minor - a.minor)));
  ]
