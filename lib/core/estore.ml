module R = Recorder.Record
module I = Vio_util.Interval
module D = Recorder.Diagnostic
module Strpool = Vio_util.Strpool

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* Handle-tracking failures get their own (internal) exception so lenient
   decoding can classify them as orphaned descriptors rather than generic
   argument corruption. *)
exception Orphan of string

let orphan fmt = Format.kasprintf (fun s -> raise (Orphan s)) fmt

type api = Fd | Stream | Mpiio_handle

type kind =
  | Data of { fid : int; write : bool; iv : I.t }
  | File_open of { fid : int; api : api }
  | File_close of { fid : int; api : api }
  | File_sync of { fid : int; api : api }
  | Mpi_call
  | Meta
  | Other

(* Column tag encodings. Kind tags are dense and exposed so hot loops can
   switch on the raw byte without materializing the variant. *)
let tag_data = 0
let tag_open = 1
let tag_close = 2
let tag_sync = 3
let tag_mpi = 4
let tag_meta = 5
let tag_other = 6

let api_tag = function Fd -> 0 | Stream -> 1 | Mpiio_handle -> 2
let api_of_tag = [| Fd; Stream; Mpiio_handle |]
let no_api = 255

let layer_tag = function
  | R.App -> 0
  | R.Hdf5 -> 1
  | R.Netcdf -> 2
  | R.Pnetcdf -> 3
  | R.Mpiio -> 4
  | R.Mpi -> 5
  | R.Posix -> 6

let layer_of_tag =
  [| R.App; R.Hdf5; R.Netcdf; R.Pnetcdf; R.Mpiio; R.Mpi; R.Posix |]

(* Call-path entries pack (layer, func) into one int. *)
let path_pack ~layer ~func_id = (layer lsl 24) lor func_id
let path_layer p = p lsr 24
let path_func p = p land 0xFFFFFF

type t = {
  nranks : int;
  n : int;
  (* record columns (index = op index, sorted by (rank, seq)) *)
  rank_c : int array;
  seq_c : int array;
  tstart_c : int array;
  tend_c : int array;
  layer_c : Bytes.t;
  func_c : int array;  (* pool ids *)
  ret_c : int array;  (* pool ids *)
  args_off : int array;  (* n + 1 offsets into args_v *)
  args_v : string array;
  path_off : int array;  (* n + 1 offsets into path_v *)
  path_v : int array;  (* packed (layer, func-pool-id) *)
  (* classification columns *)
  kind_c : Bytes.t;
  api_c : Bytes.t;
  fid_c : int array;  (* -1 when the op is not file-scoped *)
  write_c : Bytes.t;
  lo_c : int array;  (* data interval [lo, hi); 0/0 otherwise *)
  hi_c : int array;
  degraded_c : Bytes.t;
  by_rank : int array array;
  files : (string * int) list;
  diagnostics : D.t list;
  pool : Strpool.t;
  in_flight_id : int;  (* pool id of Trace.in_flight_ret *)
}

(* ---------------------------------------------------------------- *)
(* Accessors                                                          *)
(* ---------------------------------------------------------------- *)

let length e = e.n
let nranks e = e.nranks
let files e = e.files
let diagnostics e = e.diagnostics
let degraded e i = Bytes.unsafe_get e.degraded_c i <> '\000'
let rank e i = e.rank_c.(i)
let seq e i = e.seq_c.(i)
let tstart e i = e.tstart_c.(i)
let tend e i = e.tend_c.(i)
let layer e i = layer_of_tag.(Char.code (Bytes.get e.layer_c i))
let func e i = Strpool.get e.pool e.func_c.(i)
let func_id e i = e.func_c.(i)

let func_id_of_name e name =
  match Strpool.find_opt e.pool name with Some id -> id | None -> -1

let ret e i = Strpool.get e.pool e.ret_c.(i)
let in_flight e i = e.ret_c.(i) = e.in_flight_id
let kind_tag e i = Char.code (Bytes.get e.kind_c i)
let is_data e i = Bytes.unsafe_get e.kind_c i = '\000'
let is_write e i = Bytes.unsafe_get e.write_c i <> '\000'
let fid e i = e.fid_c.(i)
let iv_lo e i = e.lo_c.(i)
let iv_hi e i = e.hi_c.(i)
let rank_chain e r = e.by_rank.(r)

let api_of e i =
  let t = Char.code (Bytes.get e.api_c i) in
  if t = no_api then None else Some api_of_tag.(t)

let nargs e i = e.args_off.(i + 1) - e.args_off.(i)

let arg e i j =
  let off = e.args_off.(i) in
  let len = e.args_off.(i + 1) - off in
  if j < len then e.args_v.(off + j)
  else
    failwith
      (Format.asprintf "malformed trace: %s has %d args, wanted index %d"
         (func e i) len j)

let int_arg e i j =
  let s = arg e i j in
  match int_of_string s with
  | n -> n
  | exception Failure _ ->
    failwith
      (Format.asprintf "malformed trace: %s arg %d is %S, expected an int"
         (func e i) j s)

let iv e i = I.make ~os:e.lo_c.(i) ~oe:e.hi_c.(i)

let kind e i =
  let fid = e.fid_c.(i) in
  match kind_tag e i with
  | 0 -> Data { fid; write = is_write e i; iv = iv e i }
  | 1 -> File_open { fid; api = api_of_tag.(Char.code (Bytes.get e.api_c i)) }
  | 2 -> File_close { fid; api = api_of_tag.(Char.code (Bytes.get e.api_c i)) }
  | 3 -> File_sync { fid; api = api_of_tag.(Char.code (Bytes.get e.api_c i)) }
  | 4 -> Mpi_call
  | 5 -> Meta
  | _ -> Other

let fid_opt e i = if e.fid_c.(i) >= 0 then Some e.fid_c.(i) else None

let fid_of_path e path = List.assoc_opt path e.files

(* Materialize one op as a boxed record — cold paths only (reports,
   DOT export, error rendering). *)
let record e i : R.t =
  let off = e.args_off.(i) in
  let args = Array.sub e.args_v off (e.args_off.(i + 1) - off) in
  let p0 = e.path_off.(i) in
  let call_path =
    List.init
      (e.path_off.(i + 1) - p0)
      (fun k ->
        let p = e.path_v.(p0 + k) in
        (layer_of_tag.(path_layer p), Strpool.get e.pool (path_func p)))
  in
  {
    R.rank = e.rank_c.(i);
    seq = e.seq_c.(i);
    tstart = e.tstart_c.(i);
    tend = e.tend_c.(i);
    layer = layer e i;
    func = func e i;
    args;
    ret = ret e i;
    call_path;
  }

let pp e ppf i =
  let k =
    match kind e i with
    | Data { fid; write; iv } ->
      Printf.sprintf "%s fid=%d %s"
        (if write then "WRITE" else "READ")
        fid (I.to_string iv)
    | File_open { fid; _ } -> Printf.sprintf "OPEN fid=%d" fid
    | File_close { fid; _ } -> Printf.sprintf "CLOSE fid=%d" fid
    | File_sync { fid; _ } -> Printf.sprintf "SYNC fid=%d" fid
    | Mpi_call -> "MPI"
    | Meta -> "META"
    | Other -> "OTHER"
  in
  Format.fprintf ppf "@[<h>#%d r%d %s (%s)@]" i e.rank_c.(i) (func e i) k

(* ---------------------------------------------------------------- *)
(* Builder: growable unsorted columns                                  *)
(* ---------------------------------------------------------------- *)

module Ivec = struct
  (* Chunked growable int column. Fixed-size chunks instead of a
     doubling array keep the builder's peak heap tight: capacity waste
     is bounded by one chunk per column, and growing never holds an
     old-plus-new copy of the whole store live at once. 1k-slot chunks
     keep the fixed cost of a small store (one first chunk per column)
     at 8 KiB a column. *)
  let chunk_bits = 10

  let chunk_size = 1 lsl chunk_bits

  type t = { mutable chunks : int array array; mutable n : int }

  let create () = { chunks = [||]; n = 0 }

  let push v x =
    if v.n land (chunk_size - 1) = 0 then begin
      let c = v.n lsr chunk_bits in
      if c >= Array.length v.chunks then begin
        (* Spine doubling is cheap: one pointer per 1k elements. *)
        let spine = Array.make (max 8 (2 * Array.length v.chunks)) [||] in
        Array.blit v.chunks 0 spine 0 (Array.length v.chunks);
        v.chunks <- spine
      end;
      v.chunks.(c) <- Array.make chunk_size 0
    end;
    v.chunks.(v.n lsr chunk_bits).(v.n land (chunk_size - 1)) <- x;
    v.n <- v.n + 1

  let get v i = v.chunks.(i lsr chunk_bits).(i land (chunk_size - 1))

  (* Final column in push order, one blit per chunk. *)
  let flatten v =
    let a = Array.make v.n 0 in
    Array.iteri
      (fun c chunk ->
        let off = c lsl chunk_bits in
        if off < v.n then Array.blit chunk 0 a off (min chunk_size (v.n - off)))
      v.chunks;
    a

  (* Final column: elements permuted so slot i holds element [perm.(i)]. *)
  let permuted v perm = Array.map (fun i -> get v i) perm

  (* Drop the backing store so [finish] can shed builder capacity as
     soon as each column has been materialized — the peak heap of a
     large load is set by how many of these stay reachable at once. *)
  let release v =
    v.chunks <- [||];
    v.n <- 0
end

module Svec = struct
  type t = { mutable chunks : string array array; mutable n : int }

  let create () = { chunks = [||]; n = 0 }

  let push v x =
    if v.n land (Ivec.chunk_size - 1) = 0 then begin
      let c = v.n lsr Ivec.chunk_bits in
      if c >= Array.length v.chunks then begin
        let spine = Array.make (max 8 (2 * Array.length v.chunks)) [||] in
        Array.blit v.chunks 0 spine 0 (Array.length v.chunks);
        v.chunks <- spine
      end;
      v.chunks.(c) <- Array.make Ivec.chunk_size ""
    end;
    v.chunks.(v.n lsr Ivec.chunk_bits).(v.n land (Ivec.chunk_size - 1)) <- x;
    v.n <- v.n + 1

  let get v i = v.chunks.(i lsr Ivec.chunk_bits).(i land (Ivec.chunk_size - 1))

  let flatten v =
    let a = Array.make v.n "" in
    Array.iteri
      (fun c chunk ->
        let off = c lsl Ivec.chunk_bits in
        if off < v.n then
          Array.blit chunk 0 a off (min Ivec.chunk_size (v.n - off)))
      v.chunks;
    a

  let release v =
    v.chunks <- [||];
    v.n <- 0
end

type builder = {
  b_mode : D.mode;
  b_nranks : int;
  b_pool : Strpool.t;
  mutable b_n : int;
  b_rank : Ivec.t;
  b_seq : Ivec.t;
  b_tstart : Ivec.t;
  b_tend : Ivec.t;
  b_layer : Ivec.t;
  b_func : Ivec.t;
  b_ret : Ivec.t;
  b_args_off : Ivec.t;
  b_args : Svec.t;
  b_path_off : Ivec.t;
  b_path : Ivec.t;
  mutable b_rev_diags : D.t list;
}

let builder ?(mode = D.Strict) ~nranks () =
  let b =
    {
      b_mode = mode;
      b_nranks = nranks;
      b_pool = Strpool.create ~capacity:256 ();
      b_n = 0;
      b_rank = Ivec.create ();
      b_seq = Ivec.create ();
      b_tstart = Ivec.create ();
      b_tend = Ivec.create ();
      b_layer = Ivec.create ();
      b_func = Ivec.create ();
      b_ret = Ivec.create ();
      b_args_off = Ivec.create ();
      b_args = Svec.create ();
      b_path_off = Ivec.create ();
      b_path = Ivec.create ();
      b_rev_diags = [];
    }
  in
  Ivec.push b.b_args_off 0;
  Ivec.push b.b_path_off 0;
  b

let add b (r : R.t) =
  (* Records attributed to ranks the trace does not have cannot be placed
     in any per-rank program order; lenient decoding drops them. *)
  if b.b_mode = D.Lenient && (r.rank < 0 || r.rank >= b.b_nranks) then
    b.b_rev_diags <-
      D.make ~seq:r.seq ~fault:D.Unreadable_record
        (Printf.sprintf "rank %d out of range [0, %d)" r.rank b.b_nranks)
      :: b.b_rev_diags
  else begin
    Ivec.push b.b_rank r.rank;
    Ivec.push b.b_seq r.seq;
    Ivec.push b.b_tstart r.tstart;
    Ivec.push b.b_tend r.tend;
    Ivec.push b.b_layer (layer_tag r.layer);
    Ivec.push b.b_func (Strpool.intern b.b_pool r.func);
    Ivec.push b.b_ret (Strpool.intern b.b_pool r.ret);
    Array.iter (fun a -> Svec.push b.b_args a) r.args;
    Ivec.push b.b_args_off b.b_args.Svec.n;
    List.iter
      (fun (l, f) ->
        Ivec.push b.b_path
          (path_pack ~layer:(layer_tag l) ~func_id:(Strpool.intern b.b_pool f)))
      r.call_path;
    Ivec.push b.b_path_off b.b_path.Ivec.n;
    b.b_n <- b.b_n + 1
  end

(* ---------------------------------------------------------------- *)
(* Classification state (§IV-B FP/EOF reconstruction)                  *)
(* ---------------------------------------------------------------- *)

type handle = {
  h_fid : int;
  h_api : api;
  mutable h_pos : int;  (* reconstructed file pointer *)
  h_append : bool;
}

type state = {
  mutable next_fid : int;
  fids : (string, int) Hashtbl.t;
  eof : (int, int) Hashtbl.t;  (* fid -> reconstructed EOF *)
  (* Per (rank, number-space, number): live handles. *)
  handles : (int * api * int, handle) Hashtbl.t;
}

let intern_fid st path =
  match Hashtbl.find_opt st.fids path with
  | Some fid -> fid
  | None ->
    let fid = st.next_fid in
    st.next_fid <- fid + 1;
    Hashtbl.replace st.fids path fid;
    Hashtbl.replace st.eof fid 0;
    fid

let eof st fid = Option.value ~default:0 (Hashtbl.find_opt st.eof fid)

let grow_eof st fid upto =
  if upto > eof st fid then Hashtbl.replace st.eof fid upto

let handle st ~rank ~api n =
  match Hashtbl.find_opt st.handles (rank, api, n) with
  | Some h -> h
  | None -> orphan "rank %d: I/O on unknown/closed handle %d" rank n

let open_handle st ~rank ~api ~n ~fid ~append ~at_end =
  let h =
    { h_fid = fid; h_api = api; h_pos = (if at_end then eof st fid else 0); h_append = append }
  in
  Hashtbl.replace st.handles (rank, api, n) h;
  h

let close_handle st ~rank ~api n =
  let h = handle st ~rank ~api n in
  Hashtbl.remove st.handles (rank, api, n);
  h

let finish b =
  let n = b.b_n in
  let lenient = b.b_mode = D.Lenient in
  let pool = b.b_pool in
  let in_flight_id = Strpool.intern pool Recorder.Trace.in_flight_ret in
  (* Op index order is (rank, seq, arrival): a stable sort by (rank, seq),
     exactly the order the boxed decoder produced. Both codecs deliver
     records in that order; the columns are then flattened chunk by
     chunk, and only out-of-order input pays for a permutation. *)
  let rec in_order i =
    i >= n
    ||
    let r0 = Ivec.get b.b_rank (i - 1) and r1 = Ivec.get b.b_rank i in
    (r0 < r1 || (r0 = r1 && Ivec.get b.b_seq (i - 1) <= Ivec.get b.b_seq i))
    && in_order (i + 1)
  in
  let perm =
    if in_order 1 then None
    else begin
      (* Two stable passes: by seq, then by rank. *)
      let by_seq = Vio_util.Intsort.order (Ivec.flatten b.b_seq) in
      let by_rank =
        Vio_util.Intsort.order (Array.map (Ivec.get b.b_rank) by_seq)
      in
      Some (Array.map (fun k -> by_seq.(k)) by_rank)
    end
  in
  let column v =
    let c =
      match perm with None -> Ivec.flatten v | Some p -> Ivec.permuted v p
    in
    Ivec.release v;
    c
  in
  let rank_c = column b.b_rank in
  let seq_c = column b.b_seq in
  let tstart_c = column b.b_tstart in
  let tend_c = column b.b_tend in
  let func_c = column b.b_func in
  let ret_c = column b.b_ret in
  let layer_c = Bytes.create (max 1 n) in
  let src i = match perm with None -> i | Some p -> p.(i) in
  for i = 0 to n - 1 do
    Bytes.set layer_c i (Char.chr (Ivec.get b.b_layer (src i)))
  done;
  Ivec.release b.b_layer;
  let args_off, args_v, path_off, path_v =
    match perm with
    | None ->
      ( Ivec.flatten b.b_args_off,
        Svec.flatten b.b_args,
        Ivec.flatten b.b_path_off,
        Ivec.flatten b.b_path )
    | Some perm ->
      (* Variable-length columns: permute the per-op slices. *)
      let args_off = Array.make (n + 1) 0 in
      let path_off = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        let src = perm.(i) in
        args_off.(i + 1) <-
          args_off.(i)
          + (Ivec.get b.b_args_off (src + 1) - Ivec.get b.b_args_off src);
        path_off.(i + 1) <-
          path_off.(i)
          + (Ivec.get b.b_path_off (src + 1) - Ivec.get b.b_path_off src)
      done;
      let args_v = Array.make args_off.(n) "" in
      let path_v = Array.make path_off.(n) 0 in
      for i = 0 to n - 1 do
        let src = perm.(i) in
        let a0 = Ivec.get b.b_args_off src in
        for k = 0 to Ivec.get b.b_args_off (src + 1) - a0 - 1 do
          args_v.(args_off.(i) + k) <- Svec.get b.b_args (a0 + k)
        done;
        let p0 = Ivec.get b.b_path_off src in
        for k = 0 to Ivec.get b.b_path_off (src + 1) - p0 - 1 do
          path_v.(path_off.(i) + k) <- Ivec.get b.b_path (p0 + k)
        done
      done;
      (args_off, args_v, path_off, path_v)
  in
  Ivec.release b.b_args_off;
  Svec.release b.b_args;
  Ivec.release b.b_path_off;
  Ivec.release b.b_path;
  (* Every builder column is garbage now, but the incremental major GC
     lags behind the allocation burst above and would grow the heap
     rather than reuse that space. One major cycle reclaims it before the
     classification columns are allocated. The cycle also runs for small
     stores: without it, the corpus benchmark's peak RSS rose past its
     bound, because the harness keeps a sample per request and its heap
     grew with throughput. Look at it again once the harness stops
     retaining per-request samples. *)
  Gc.major ();
  (* Classification columns, written in global timestamp order so the
     per-file EOF reconstruction sees writes in execution order. *)
  let kind_c = Bytes.make (max 1 n) (Char.chr tag_other) in
  let api_c = Bytes.make (max 1 n) (Char.chr no_api) in
  let write_c = Bytes.make (max 1 n) '\000' in
  let degraded_c = Bytes.make (max 1 n) '\000' in
  let fid_c = Array.make (max 1 n) (-1) in
  let lo_c = Array.make (max 1 n) 0 in
  let hi_c = Array.make (max 1 n) 0 in
  let diags = ref [] in
  let add_diag d = diags := d :: !diags in
  let st =
    {
      next_fid = 0;
      fids = Hashtbl.create 16;
      eof = Hashtbl.create 16;
      handles = Hashtbl.create 32;
    }
  in
  let fname i = Strpool.get pool func_c.(i) in
  let argf i j =
    let off = args_off.(i) in
    let len = args_off.(i + 1) - off in
    if j < len then args_v.(off + j)
    else
      failwith
        (Format.asprintf "malformed trace: %s has %d args, wanted index %d"
           (fname i) len j)
  in
  let int_argf i j =
    let s = argf i j in
    match int_of_string_opt s with
    | Some x -> x
    | None ->
      failwith
        (Format.asprintf "malformed trace: %s arg %d is %S, expected an int"
           (fname i) j s)
  in
  let set_data i ~fid ~write ~(iv : I.t) =
    Bytes.set kind_c i (Char.chr tag_data);
    fid_c.(i) <- fid;
    if write then Bytes.set write_c i '\001';
    lo_c.(i) <- iv.I.os;
    hi_c.(i) <- iv.I.oe
  in
  let set_file i tag ~fid ~api =
    Bytes.set kind_c i (Char.chr tag);
    fid_c.(i) <- fid;
    Bytes.set api_c i (Char.chr (api_tag api))
  in
  let set_tag i tag = Bytes.set kind_c i (Char.chr tag) in
  (* The per-record classification state machine, ported case-for-case
     from the boxed decoder (diagnostic messages included). *)
  let classify i =
    let rank = rank_c.(i) in
    let f = fname i in
    let int_ret () =
      let ret = Strpool.get pool ret_c.(i) in
      match int_of_string_opt ret with
      | Some x -> x
      | None -> malformed "record %s: non-integer return %S" f ret
    in
    match (Char.code (Bytes.get layer_c i), f) with
    | 6, "open" ->
      let path = argf i 0 in
      let flags = String.split_on_char '|' (argf i 1) in
      let fid = intern_fid st path in
      if List.mem "O_TRUNC" flags then Hashtbl.replace st.eof fid 0;
      let fd = int_ret () in
      ignore
        (open_handle st ~rank ~api:Fd ~n:fd ~fid
           ~append:(List.mem "O_APPEND" flags) ~at_end:false);
      set_file i tag_open ~fid ~api:Fd
    | 6, "close" ->
      let h = close_handle st ~rank ~api:Fd (int_argf i 0) in
      set_file i tag_close ~fid:h.h_fid ~api:Fd
    | 6, "fopen" ->
      let path = argf i 0 and mode = argf i 1 in
      let fid = intern_fid st path in
      if mode = "w" || mode = "w+" then Hashtbl.replace st.eof fid 0;
      let append = mode = "a" || mode = "a+" in
      let sid = int_ret () in
      ignore (open_handle st ~rank ~api:Stream ~n:sid ~fid ~append ~at_end:false);
      set_file i tag_open ~fid ~api:Stream
    | 6, "fclose" ->
      let h = close_handle st ~rank ~api:Stream (int_argf i 0) in
      set_file i tag_close ~fid:h.h_fid ~api:Stream
    | 6, "pwrite" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      let count = int_argf i 1 and off = int_argf i 2 in
      grow_eof st h.h_fid (off + count);
      set_data i ~fid:h.h_fid ~write:true ~iv:(I.of_len ~off ~len:count)
    | 6, "pread" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      let count = int_argf i 1 and off = int_argf i 2 in
      set_data i ~fid:h.h_fid ~write:false ~iv:(I.of_len ~off ~len:count)
    | 6, "write" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      let count = int_argf i 1 in
      let off = if h.h_append then eof st h.h_fid else h.h_pos in
      h.h_pos <- off + count;
      grow_eof st h.h_fid (off + count);
      set_data i ~fid:h.h_fid ~write:true ~iv:(I.of_len ~off ~len:count)
    | 6, "read" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      let count = int_argf i 1 in
      let actual = int_ret () in
      let off = h.h_pos in
      h.h_pos <- off + actual;
      set_data i ~fid:h.h_fid ~write:false ~iv:(I.of_len ~off ~len:count)
    | 6, "fwrite" ->
      let h = handle st ~rank ~api:Stream (int_argf i 0) in
      let bytes = int_argf i 1 * int_argf i 2 in
      let off = if h.h_append then eof st h.h_fid else h.h_pos in
      h.h_pos <- off + bytes;
      grow_eof st h.h_fid (off + bytes);
      set_data i ~fid:h.h_fid ~write:true ~iv:(I.of_len ~off ~len:bytes)
    | 6, "fread" ->
      let h = handle st ~rank ~api:Stream (int_argf i 0) in
      let size = int_argf i 1 in
      let bytes = size * int_argf i 2 in
      let items = int_ret () in
      let off = h.h_pos in
      h.h_pos <- off + (items * size);
      set_data i ~fid:h.h_fid ~write:false ~iv:(I.of_len ~off ~len:bytes)
    | 6, "lseek" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      let off = int_argf i 1 in
      (h.h_pos <-
        (match argf i 2 with
        | "SEEK_SET" -> off
        | "SEEK_CUR" -> h.h_pos + off
        | "SEEK_END" -> eof st h.h_fid + off
        | w -> malformed "lseek: unknown whence %s" w));
      set_tag i tag_meta
    | 6, "fseek" ->
      let h = handle st ~rank ~api:Stream (int_argf i 0) in
      let off = int_argf i 1 in
      (h.h_pos <-
        (match argf i 2 with
        | "SEEK_SET" -> off
        | "SEEK_CUR" -> h.h_pos + off
        | "SEEK_END" -> eof st h.h_fid + off
        | w -> malformed "fseek: unknown whence %s" w));
      set_tag i tag_meta
    | 6, "ftell" -> set_tag i tag_meta
    | 6, "fsync" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      set_file i tag_sync ~fid:h.h_fid ~api:Fd
    | 6, "fflush" ->
      let h = handle st ~rank ~api:Stream (int_argf i 0) in
      set_file i tag_sync ~fid:h.h_fid ~api:Stream
    | 6, "ftruncate" ->
      let h = handle st ~rank ~api:Fd (int_argf i 0) in
      Hashtbl.replace st.eof h.h_fid (int_argf i 1);
      set_tag i tag_meta
    | 6, "unlink" -> set_tag i tag_meta
    | 6, f -> malformed "unknown POSIX function %s in trace" f
    | 4, "MPI_File_open" ->
      let path = argf i 1 in
      let fid = intern_fid st path in
      let hid = int_ret () in
      ignore
        (open_handle st ~rank ~api:Mpiio_handle ~n:hid ~fid ~append:false
           ~at_end:false);
      set_file i tag_open ~fid ~api:Mpiio_handle
    | 4, "MPI_File_close" ->
      let h = close_handle st ~rank ~api:Mpiio_handle (int_argf i 1) in
      set_file i tag_close ~fid:h.h_fid ~api:Mpiio_handle
    | 4, "MPI_File_sync" ->
      let h = handle st ~rank ~api:Mpiio_handle (int_argf i 1) in
      set_file i tag_sync ~fid:h.h_fid ~api:Mpiio_handle
    | 4, _ -> set_tag i tag_other
    | 5, _ -> set_tag i tag_mpi
    | (0 | 1 | 2 | 3), _ -> set_tag i tag_other
    | _ -> assert false
  in
  (* Timestamp ties fall in op index, i.e. (rank, seq), order. Each rank
     chain is usually already in timestamp order, so the run merge takes
     about log2 nranks passes. *)
  Array.iter
    (fun i ->
      let never_returned = ret_c.(i) = in_flight_id in
      let layer6 = Char.code (Bytes.get layer_c i) in
      let in_flight = never_returned && layer6 <> 5 in
      if never_returned && lenient then begin
        Bytes.set degraded_c i '\001';
        add_diag
          (D.make ~rank:rank_c.(i) ~seq:seq_c.(i) ~fault:D.Incomplete_epilogue
             (Printf.sprintf "%s never returned" (fname i)))
      end;
      (* Argument-access failures from the record layer are trace
         malformations too. *)
      try
        if layer6 = 5 then set_tag i tag_mpi
        else if in_flight then
          (* In-flight records never completed; handle-returning calls
             without a return value cannot be decoded as I/O. *)
          match (layer6, fname i) with
          | 6, ("open" | "fopen") | 4, "MPI_File_open" -> set_tag i tag_other
          | _ -> classify i
        else classify i
      with
      | Orphan msg ->
        if lenient then begin
          Bytes.set degraded_c i '\001';
          add_diag
            (D.make ~rank:rank_c.(i) ~seq:seq_c.(i) ~fault:D.Orphan_handle msg);
          set_tag i tag_other
        end
        else raise (Malformed msg)
      | (Malformed msg | Failure msg) when lenient ->
        Bytes.set degraded_c i '\001';
        add_diag (D.make ~rank:rank_c.(i) ~seq:seq_c.(i) ~fault:D.Bad_argument msg);
        set_tag i tag_other
      | Invalid_argument msg when lenient ->
        Bytes.set degraded_c i '\001';
        add_diag
          (D.make ~rank:rank_c.(i) ~seq:seq_c.(i) ~fault:D.Bad_argument
             ("invalid value in trace: " ^ msg));
        set_tag i tag_other
      | Failure msg -> raise (Malformed msg)
      | Invalid_argument msg ->
        (* e.g. negative lengths reaching interval construction *)
        raise (Malformed ("invalid value in trace: " ^ msg)))
    (Vio_util.Intsort.order tstart_c);
  let by_rank = Array.make b.b_nranks [||] in
  let counts = Array.make b.b_nranks 0 in
  for i = 0 to n - 1 do
    let r = rank_c.(i) in
    if r >= 0 && r < b.b_nranks then counts.(r) <- counts.(r) + 1
  done;
  for r = 0 to b.b_nranks - 1 do
    by_rank.(r) <- Array.make counts.(r) 0;
    counts.(r) <- 0
  done;
  for i = 0 to n - 1 do
    let r = rank_c.(i) in
    if r >= 0 && r < b.b_nranks then begin
      by_rank.(r).(counts.(r)) <- i;
      counts.(r) <- counts.(r) + 1
    end
  done;
  let files =
    Hashtbl.fold (fun path fid acc -> (path, fid) :: acc) st.fids []
    |> List.sort (fun (_, a) (_, b') -> compare a b')
  in
  {
    nranks = b.b_nranks;
    n;
    rank_c;
    seq_c;
    tstart_c;
    tend_c;
    layer_c;
    func_c;
    ret_c;
    args_off;
    args_v;
    path_off;
    path_v;
    kind_c;
    api_c;
    fid_c;
    write_c;
    lo_c;
    hi_c;
    degraded_c;
    by_rank;
    files;
    diagnostics = List.rev (!diags @ b.b_rev_diags);
    pool;
    in_flight_id;
  }

let of_records ?mode ~nranks records =
  let b = builder ?mode ~nranks () in
  List.iter (add b) records;
  finish b

(* A streaming load is a bulk-allocation phase: every parsed record is
   garbage as soon as its columns are copied out, so run it with the
   major GC tracking the live set closely rather than letting the heap
   balloon to the default 120% space overhead. The GC settings are
   process-wide while [Batch] may decode several files at once, so the
   override is reference-counted: the first load in saves and sets, the
   last one out restores. *)
let gc_lock = Mutex.create ()

let gc_loads = ref 0

let gc_saved = ref (Gc.get ())

let with_load_gc f =
  Mutex.protect gc_lock (fun () ->
      if !gc_loads = 0 then begin
        let gc = Gc.get () in
        gc_saved := gc;
        Gc.set { gc with Gc.space_overhead = 40 }
      end;
      incr gc_loads);
  Fun.protect f ~finally:(fun () ->
      Mutex.protect gc_lock (fun () ->
          decr gc_loads;
          if !gc_loads = 0 then Gc.set !gc_saved))

let of_file ?(mode = D.Strict) path =
  with_load_gc @@ fun () ->
  (* The codec hands records to the builder one at a time; no
     [Record.t list] is ever materialized. The lenient rank filter needs
     [nranks], which the codec reports only at the end — but the codec
     itself rejects out-of-range ranks whenever the header is readable,
     and with an unreadable header it infers nranks = max rank + 1, which
     admits every non-negative rank. The only records the streaming pass
     must hold back are negative-rank ones under an unreadable header;
     their (rare) filter diagnostics are emitted once nranks is known. *)
  let b = builder ~mode ~nranks:max_int () in
  let pending = ref [] in
  let folded =
    Recorder.Codec.fold_records ~mode path ~init:() ~f:(fun () (r : R.t) ->
        if mode = D.Lenient && r.rank < 0 then pending := r :: !pending
        else add b r)
  in
  let nranks = folded.Recorder.Codec.f_nranks in
  let b = { b with b_nranks = nranks } in
  (* [!pending] is in reverse input order, which is what b_rev_diags holds. *)
  b.b_rev_diags <-
    List.map
      (fun (r : R.t) ->
        D.make ~seq:r.seq ~fault:D.Unreadable_record
          (Printf.sprintf "rank %d out of range [0, %d)" r.rank nranks))
      !pending;
  let e = finish b in
  { e with diagnostics = folded.Recorder.Codec.f_diagnostics @ e.diagnostics }
