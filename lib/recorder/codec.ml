let magic = "VERIFYIO-TRACE 1"

(* [byte] is the offset of the offending line's first byte in the input
   and [record] the 1-based index of the offending record line; both are
   [-1] when unknown (e.g. header errors, or errors raised by {!unescape}
   outside any trace context). *)
exception
  Malformed of { line : int; byte : int; record : int; reason : string }

let () =
  Printexc.register_printer (function
    | Malformed { line; byte; record; reason } ->
      let ctx =
        (if byte >= 0 then Printf.sprintf ", byte %d" byte else "")
        ^ if record >= 0 then Printf.sprintf ", record %d" record else ""
      in
      Some (Printf.sprintf "Codec.Malformed (line %d%s: %s)" line ctx reason)
    | _ -> None)

let malformed ?(byte = -1) ?(record = -1) ~line fmt =
  Printf.ksprintf
    (fun reason -> raise (Malformed { line; byte; record; reason }))
    fmt

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' -> Buffer.add_string buf "%20"
      | '%' -> Buffer.add_string buf "%25"
      | '\n' -> Buffer.add_string buf "%0A"
      | '\t' -> Buffer.add_string buf "%09"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_at ~line s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> malformed ~line "unescape: bad hex digit %C in %S" c s
  in
  let rec go i =
    if i < n then
      if s.[i] = '%' then begin
        if i + 2 >= n then malformed ~line "unescape: truncated escape in %S" s;
        Buffer.add_char buf (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let unescape s = unescape_at ~line:0 s

(* The dictionary maps (layer, func) pairs to small integers. *)
module Key = struct
  type t = Record.layer * string

  let compare = compare
end

module Dict = Map.Make (Key)

let encode ~nranks records =
  let records =
    List.sort
      (fun (a : Record.t) (b : Record.t) -> compare (a.rank, a.seq) (b.rank, b.seq))
      records
  in
  let dict = ref Dict.empty in
  let rev_entries = ref [] in
  let next = ref 0 in
  let intern key =
    match Dict.find_opt key !dict with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      dict := Dict.add key i !dict;
      rev_entries := key :: !rev_entries;
      i
  in
  (* Intern in a deterministic pass before emitting record lines. *)
  List.iter
    (fun (r : Record.t) ->
      ignore (intern (r.layer, r.func));
      List.iter (fun p -> ignore (intern p)) r.call_path)
    records;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "nranks %d\n" nranks);
  let entries = List.rev !rev_entries in
  Buffer.add_string buf (Printf.sprintf "funcs %d\n" (List.length entries));
  List.iter
    (fun (layer, func) ->
      Buffer.add_string buf (Record.layer_to_string layer);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (escape func);
      Buffer.add_char buf '\n')
    entries;
  Buffer.add_string buf (Printf.sprintf "records %d\n" (List.length records));
  List.iter
    (fun (r : Record.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %d %d %s %d" r.rank r.seq r.tstart r.tend
           (Dict.find (r.layer, r.func) !dict)
           (escape r.ret) (Array.length r.args));
      Array.iter
        (fun a ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (escape a))
        r.args;
      Buffer.add_string buf (Printf.sprintf " %d" (List.length r.call_path));
      List.iter
        (fun p ->
          Buffer.add_string buf (Printf.sprintf " %d" (Dict.find p !dict)))
        r.call_path;
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Inputs and the line source                                         *)
(* ---------------------------------------------------------------- *)

(* A trace to decode: [len] bytes, of which [read pos buf off n] copies
   [pos .. pos + n - 1] into [buf] at [off]. Built from a string or from
   a file ([with_file_input]), so both entry points run the same
   decoders. *)
type input = { len : int; read : int -> Bytes.t -> int -> int -> unit }

let input_of_string s =
  {
    len = String.length s;
    read = (fun pos buf off n -> Bytes.blit_string s pos buf off n);
  }

let block input pos len =
  let b = Bytes.create len in
  input.read pos b 0 len;
  b

(* The one file input, and the whole of the [codec.read] failpoint site:
   a hit before the file is opened ([fail], [delay]), a length clamped
   by [short] (a truncated read), and under [bitflip] one bit flipped in
   every read that covers its byte (media corruption). Both entry points
   read files through it, so a faulted file gives the same bytes to
   [read_file] and to [fold_records], and both flow through the real
   validation (trailer locator, body CRC), never a synthetic error. *)
let with_file_input path k =
  Vio_util.Failpoint.hit "codec.read";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len =
        Vio_util.Failpoint.adjust_len "codec.read" (in_channel_length ic)
      in
      let flip = Vio_util.Failpoint.bitflip "codec.read" ~len in
      k
        {
          len;
          read =
            (fun pos buf off n ->
              seek_in ic pos;
              really_input ic buf off n;
              match flip with
              | Some (i, bit) when pos <= i && i < pos + n ->
                let j = off + i - pos in
                Bytes.set buf j
                  (Char.chr (Char.code (Bytes.get buf j) lxor (1 lsl bit)))
              | _ -> ());
        })

let chunk = 1 lsl 16

(* A pull source of [(line, byte_offset_of_line_start)] with the exact
   segmentation of [String.split_on_char '\n']: one segment per newline
   plus one final segment after the last newline (possibly empty). The
   decoder consumes lines strictly sequentially with one line of
   lookahead, and the input is read [chunk] bytes at a time, so a file
   is never resident as one string. *)
let lines input =
  let q = Queue.create () in
  let partial = Buffer.create 256 in
  let partial_start = ref 0 in
  let offset = ref 0 in
  let finished = ref false in
  let bytes = Bytes.create (min chunk input.len) in
  let rec fill () =
    if Queue.is_empty q && not !finished then begin
      let n = min chunk (input.len - !offset) in
      if n = 0 then begin
        Queue.add (Buffer.contents partial, !partial_start) q;
        Buffer.clear partial;
        finished := true
      end
      else begin
        input.read !offset bytes 0 n;
        let start = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get bytes i = '\n' then begin
            Buffer.add_subbytes partial bytes !start (i - !start);
            Queue.add (Buffer.contents partial, !partial_start) q;
            Buffer.clear partial;
            partial_start := !offset + i + 1;
            start := i + 1
          end
        done;
        Buffer.add_subbytes partial bytes !start (n - !start);
        offset := !offset + n;
        fill ()
      end
    end
  in
  fun () ->
    fill ();
    if Queue.is_empty q then None else Some (Queue.take q)

(* One line of lookahead over a source, tracking consumed-line count. *)
type reader = {
  src : unit -> (string * int) option;
  mutable ahead : (string * int) option option;
  mutable consumed : int;
}

let reader src = { src; ahead = None; consumed = 0 }

let rd_peek r =
  match r.ahead with
  | Some v -> v
  | None ->
    let v = r.src () in
    r.ahead <- Some v;
    v

let rd_next r =
  let v = rd_peek r in
  r.ahead <- None;
  (match v with Some _ -> r.consumed <- r.consumed + 1 | None -> ());
  v

(* ---------------------------------------------------------------- *)
(* Decoding                                                           *)
(* ---------------------------------------------------------------- *)

type decoded = {
  nranks : int;
  records : Record.t list;
  diagnostics : Diagnostic.t list;
}

(* A record line that must be skipped, with enough context to attribute
   the loss. In strict mode skips escalate to {!Malformed}. *)
exception Skip of {
  sk_fault : Diagnostic.fault_class;
  sk_rank : int option;
  sk_seq : int option;
  sk_reason : string;
}

let skip ?rank ?seq ~fault fmt =
  Printf.ksprintf
    (fun reason ->
      raise (Skip { sk_fault = fault; sk_rank = rank; sk_seq = seq; sk_reason = reason }))
    fmt

let parse_record ~mode ~lookup ~nranks_opt ~line l =
  let toks = String.split_on_char ' ' l in
  let int ?rank ?seq what tok =
    match int_of_string_opt tok with
    | Some n -> n
    | None ->
      skip ?rank ?seq ~fault:Diagnostic.Unreadable_record
        "expected int for %s, got %S" what tok
  in
  match toks with
  | rank :: seq :: tstart :: tend :: fidx :: ret :: nargs :: rest ->
    let rank = int "rank" rank in
    let seq = int ~rank "seq" seq in
    (match nranks_opt with
    | Some n when rank < 0 || rank >= n ->
      skip ~seq ~fault:Diagnostic.Unreadable_record
        "rank %d out of range [0, %d)" rank n
    | _ -> ());
    let skipf fault fmt = skip ~rank ~seq ~fault fmt in
    let int what tok = int ~rank ~seq what tok in
    let tstart = int "tstart" tstart in
    let tend = int "tend" tend in
    let fidx = int "func index" fidx in
    let nargs = int "arg count" nargs in
    let rec take what n acc rest =
      if n <= 0 then (List.rev acc, rest)
      else
        match rest with
        | x :: tl -> take what (n - 1) (x :: acc) tl
        | [] -> skipf Diagnostic.Unreadable_record "truncated %s" what
    in
    let args, rest = take "args" nargs [] rest in
    let npath, rest =
      match rest with
      | x :: tl -> (int "call-path length" x, tl)
      | [] -> skipf Diagnostic.Unreadable_record "missing call-path length"
    in
    let path_toks, rest = take "call path" npath [] rest in
    if rest <> [] then
      skipf Diagnostic.Unreadable_record "trailing tokens on record line";
    let layer, func =
      match lookup fidx with
      | Some entry -> entry
      | None ->
        skipf Diagnostic.Unknown_function
          "function index %d is missing or clobbered" fidx
    in
    let unescape_field what s =
      try unescape_at ~line s
      with Malformed { reason; _ } ->
        skipf Diagnostic.Bad_argument "corrupt %s: %s" what reason
    in
    let args = List.map (unescape_field "argument") args in
    let ret = unescape_field "return value" ret in
    (* A clobbered call-path entry degrades the chain, not the record:
       resolve the longest intact prefix and report the break. *)
    let chain_diag = ref None in
    let rec resolve acc = function
      | [] -> List.rev acc
      | tok :: tl -> (
        match Option.bind (int_of_string_opt tok) lookup with
        | Some entry -> resolve (entry :: acc) tl
        | None -> (
          match mode with
          | Diagnostic.Strict ->
            skipf Diagnostic.Broken_call_chain
              "call-path entry %S is missing or clobbered" tok
          | Diagnostic.Lenient ->
            chain_diag :=
              Some
                (Diagnostic.make ~rank ~seq ~line
                   ~fault:Diagnostic.Broken_call_chain
                   (Printf.sprintf
                      "call-path entry %S is missing or clobbered; chain \
                       truncated"
                      tok));
            List.rev acc))
    in
    let call_path = resolve [] path_toks in
    ( {
        Record.rank;
        seq;
        tstart;
        tend;
        layer;
        func;
        args = Array.of_list args;
        ret;
        call_path;
      },
      !chain_diag )
  | _ -> skip ~fault:Diagnostic.Unreadable_record "bad record line %S" l

(* The streaming decode core: pulls lines from [rd] one at a time and
   hands salvaged records to [emit] in parse order. Returns
   [(nranks, emitted_count, diagnostics)]. *)
let decode_from ~mode rd ~emit =
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  (* [problem] raises in strict mode and records a diagnostic in lenient
     mode; callers continue with a fallback after it returns. *)
  let problem ?rank ?seq ?(byte = -1) ?(record = -1) ~line ~fault fmt =
    Printf.ksprintf
      (fun reason ->
        match mode with
        | Diagnostic.Strict -> raise (Malformed { line; byte; record; reason })
        | Diagnostic.Lenient -> diag (Diagnostic.make ?rank ?seq ~line ~fault reason))
      fmt
  in
  (* The next line's 1-based number; equals lines consumed so far + 1. *)
  let line () = rd.consumed + 1 in
  let peek_byte () = match rd_peek rd with Some (_, b) -> b | None -> -1 in
  let max_rank = ref (-1) in
  let emitted = ref 0 in
  let emit (r : Record.t) =
    max_rank := max !max_rank r.rank;
    incr emitted;
    emit r
  in
  let finish ~nranks = (nranks, !emitted, List.rev !diags) in
  match rd_next rd with
  | first when first <> Some (magic, 0) ->
    let l = match first with Some (l, _) -> l | None -> "" in
    let shown = if String.length l <= 40 then l else String.sub l 0 40 ^ "..." in
    problem ~line:1 ~byte:0 ~fault:Diagnostic.Bad_header "bad magic %S" shown;
    (* Without the magic line nothing downstream can be trusted. *)
    finish ~nranks:0
  | _ ->
    let parse_header name =
      match rd_peek rd with
      | None ->
        problem ~line:(line ()) ~fault:Diagnostic.Bad_header "missing %s header"
          name;
        None
      | Some (l, byte) -> (
        match String.split_on_char ' ' l with
        | [ key; v ] when key = name -> (
          ignore (rd_next rd);
          match int_of_string_opt v with
          | Some n -> Some n
          | None ->
            problem ~line:rd.consumed ~byte ~fault:Diagnostic.Bad_header
              "bad %s count" name;
            None)
        | _ ->
          problem ~line:(line ()) ~byte ~fault:Diagnostic.Bad_header
            "expected %s header, got %S" name l;
          None)
    in
    let nranks_opt = parse_header "nranks" in
    let nfuncs_opt = parse_header "funcs" in
    let is_records_header l =
      match String.split_on_char ' ' l with
      | [ "records"; v ] -> int_of_string_opt v <> None
      | _ -> false
    in
    (* Function table: entries that cannot be read stay [None] so that
       records referencing them are individually diagnosable. *)
    let table = ref [] in
    let read_table_line () =
      let l, byte = Option.get (rd_next rd) in
      let ln = rd.consumed in
      match String.index_opt l ' ' with
      | None ->
        problem ~line:ln ~byte ~fault:Diagnostic.Bad_string_table
          "bad func table line %S" l;
        None
      | Some sp -> (
        let layer_s = String.sub l 0 sp in
        match Record.layer_of_string layer_s with
        | None ->
          problem ~line:ln ~byte ~fault:Diagnostic.Bad_string_table
            "unknown layer %S" layer_s;
          None
        | Some layer -> (
          match unescape_at ~line:ln (String.sub l (sp + 1) (String.length l - sp - 1)) with
          | func -> Some (layer, func)
          | exception Malformed { reason; _ } ->
            problem ~line:ln ~byte ~fault:Diagnostic.Bad_string_table
              "corrupt function name: %s" reason;
            None))
    in
    (match nfuncs_opt with
    | Some k ->
      let i = ref 0 in
      while !i < k && rd_peek rd <> None do
        table := read_table_line () :: !table;
        incr i
      done;
      if !i < k then
        problem ~line:(line ()) ~fault:Diagnostic.Bad_header
          "truncated func table: %d of %d entries" !i k
    | None ->
      (* Unknown table size: consume lines until the records header. *)
      let continue = ref true in
      while !continue do
        match rd_peek rd with
        | Some (l, _) when not (is_records_header l) ->
          table := read_table_line () :: !table
        | _ -> continue := false
      done);
    let table = Array.of_list (List.rev !table) in
    let nfuncs = Array.length table in
    let lookup i = if i < 0 || i >= nfuncs then None else table.(i) in
    let nrecords_opt = parse_header "records" in
    let kept = ref 0 in
    let attempts = ref 0 in
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
    (* A last record line that lacks its newline was cut short: a cut
       inside the line can leave a shorter line that still parses as a
       different record (docs/format.md §5.5). Strict mode refuses the
       trace; lenient mode drops the line. *)
    let cut_last = ref false in
    let read_one () =
      let l, byte = Option.get (rd_next rd) in
      let ln = rd.consumed in
      if l = "" then false
      else if rd_peek rd = None then begin
        if mode = Diagnostic.Strict then
          malformed ~line:ln ~byte ~record:(!attempts + 1)
            "last record line has no newline; cut short (format.md §5.5)";
        cut_last := true;
        false
      end
      else begin
        incr attempts;
        let recno = !attempts in
        (match parse_record ~mode ~lookup ~nranks_opt ~line:ln l with
        | r, chain_diag ->
          if Hashtbl.mem seen (r.Record.rank, r.Record.seq) then
            problem ~rank:r.Record.rank ~seq:r.Record.seq ~line:ln ~byte
              ~record:recno ~fault:Diagnostic.Duplicate_record
              "duplicate record for (rank %d, seq %d)" r.Record.rank
              r.Record.seq
          else begin
            Hashtbl.replace seen (r.Record.rank, r.Record.seq) ();
            Option.iter diag chain_diag;
            emit r;
            incr kept
          end
        | exception Skip { sk_fault; sk_rank; sk_seq; sk_reason } -> (
          match mode with
          | Diagnostic.Strict ->
            raise
              (Malformed
                 { line = ln; byte; record = recno; reason = sk_reason })
          | Diagnostic.Lenient ->
            diag
              (Diagnostic.make ?rank:sk_rank ?seq:sk_seq ~line:ln
                 ~fault:sk_fault sk_reason)));
        true
      end
    in
    (match (mode, nrecords_opt) with
    | Diagnostic.Strict, Some n ->
      (* Exactly n records, skipping blank lines, as the format promises. *)
      let i = ref 0 in
      while !i < n do
        if rd_peek rd = None then
          malformed ~line:(line ()) ~byte:(peek_byte ()) "truncated records";
        if read_one () then incr i
      done
    | Diagnostic.Strict, None ->
      (* parse_header already raised in strict mode. *)
      assert false
    | Diagnostic.Lenient, _ ->
      (* Advisory count: salvage every parseable line to EOF, then account
         for the shortfall record by record. *)
      while rd_peek rd <> None do
        ignore (read_one ())
      done;
      (match nrecords_opt with
      | Some n when !kept < n ->
        for i = !kept + 1 to n do
          problem ~line:rd.consumed ~fault:Diagnostic.Truncated_trace
            "record %d of %d lost to truncation or corruption" i n
        done
      | _ ->
        if !cut_last then
          problem ~line:rd.consumed ~fault:Diagnostic.Truncated_trace
            "last record line has no newline; dropped as cut short"));
    let nranks =
      match nranks_opt with Some n -> n | None -> !max_rank + 1
    in
    finish ~nranks

let read_file path =
  with_file_input path (fun input ->
      Bytes.unsafe_to_string (block input 0 input.len))

type 'a folded = {
  f_nranks : int;
  f_value : 'a;
  f_records : int;
  f_diagnostics : Diagnostic.t list;
}

(* ---------------------------------------------------------------- *)
(* Binary codec v2                                                    *)
(*                                                                    *)
(* The normative wire-format specification is docs/format.md; error   *)
(* messages cite its section numbers. Layout (§3): an 8-byte magic    *)
(* and a version byte, a varint header, a string-pool segment, one    *)
(* record segment per rank, and a fixed-width footer (per-rank        *)
(* segment offsets and record counts, the pool offset, a body CRC-32  *)
(* and a trailing locator) so ranks decode independently and the      *)
(* footer is found from EOF without scanning.                         *)
(* ---------------------------------------------------------------- *)

let magic_v2 = "VIOTRACE"
let binary_version = 2
let trailer_magic = "VIOTRFTR"

type format = Text | Binary

let format_name = function Text -> "text" | Binary -> "binary"

let detect s =
  if String.length s >= 8 && String.sub s 0 8 = magic_v2 then Binary else Text

(* Layer tags (§3.4.1): the wire byte for each interception layer, in
   {!Record.all_layers} order. *)
let layer_tag (l : Record.layer) =
  let rec idx i = function
    | [] -> assert false
    | x :: tl -> if x = l then i else idx (i + 1) tl
  in
  idx 0 Record.all_layers

let layer_of_tag =
  let a = Array.of_list Record.all_layers in
  fun i -> if i < 0 || i >= Array.length a then None else Some a.(i)

(* §2.1 unsigned varint: 7-bit groups, least-significant first, high bit
   = continuation. §2.2 signed: zigzag then uvarint. *)
let add_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (- (n land 1))
let add_svarint buf n = add_uvarint buf (zigzag n)

(* §2.3 fixed-width little-endian (footer only). *)
let add_u64 buf n =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xFF))
  done

let add_u32 buf n =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xFF))
  done

let encode_binary ~nranks records =
  let records =
    List.sort
      (fun (a : Record.t) (b : Record.t) ->
        compare (a.rank, a.seq) (b.rank, b.seq))
      records
  in
  List.iter
    (fun (r : Record.t) ->
      if r.Record.rank < 0 || r.Record.rank >= nranks then
        invalid_arg
          (Printf.sprintf
             "Codec.encode_binary: record rank %d outside [0, %d) — the \
              binary format stores records in per-rank segments \
              (format.md §3.3)"
             r.Record.rank nranks))
    records;
  (* Pass 1: intern every string in first-use order (§3.2). *)
  let pool : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let rev_entries = ref [] in
  let next = ref 0 in
  let intern s =
    match Hashtbl.find_opt pool s with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      Hashtbl.add pool s i;
      rev_entries := s :: !rev_entries;
      i
  in
  List.iter
    (fun (r : Record.t) ->
      ignore (intern r.func);
      ignore (intern r.ret);
      Array.iter (fun a -> ignore (intern a)) r.args;
      List.iter (fun (_, f) -> ignore (intern f)) r.call_path)
    records;
  let buf = Buffer.create 65536 in
  (* §3.1 header *)
  Buffer.add_string buf magic_v2;
  Buffer.add_char buf (Char.chr binary_version);
  add_uvarint buf 0 (* flags: reserved, must be 0 *);
  add_uvarint buf nranks;
  (* §3.2 string pool *)
  let pool_offset = Buffer.length buf in
  add_uvarint buf !next;
  List.iter
    (fun s ->
      add_uvarint buf (String.length s);
      Buffer.add_string buf s)
    (List.rev !rev_entries);
  (* §3.3 rank segments, §3.4 records *)
  let by_rank = Array.make nranks [] in
  List.iter
    (fun (r : Record.t) ->
      by_rank.(r.Record.rank) <- r :: by_rank.(r.Record.rank))
    records;
  let offsets = Array.make nranks 0 in
  let counts = Array.make nranks 0 in
  for rank = 0 to nranks - 1 do
    let rs = List.rev by_rank.(rank) in
    offsets.(rank) <- Buffer.length buf;
    counts.(rank) <- List.length rs;
    add_uvarint buf counts.(rank);
    List.iter
      (fun (r : Record.t) ->
        add_uvarint buf r.Record.seq;
        add_svarint buf r.Record.tstart;
        add_svarint buf r.Record.tend;
        Buffer.add_char buf (Char.chr (layer_tag r.Record.layer));
        add_uvarint buf (Hashtbl.find pool r.Record.func);
        add_uvarint buf (Hashtbl.find pool r.Record.ret);
        add_uvarint buf (Array.length r.Record.args);
        Array.iter (fun a -> add_uvarint buf (Hashtbl.find pool a)) r.Record.args;
        add_uvarint buf (List.length r.Record.call_path);
        List.iter
          (fun (l, f) ->
            Buffer.add_char buf (Char.chr (layer_tag l));
            add_uvarint buf (Hashtbl.find pool f))
          r.Record.call_path)
      rs
  done;
  (* §3.5 footer *)
  let footer_start = Buffer.length buf in
  let crc =
    Vio_util.Crc32.finish
      (Vio_util.Crc32.update_string Vio_util.Crc32.init (Buffer.contents buf))
  in
  for rank = 0 to nranks - 1 do
    add_u64 buf offsets.(rank);
    add_u64 buf counts.(rank)
  done;
  add_u64 buf pool_offset;
  add_u32 buf crc;
  add_u64 buf footer_start;
  Buffer.add_string buf trailer_magic;
  Buffer.contents buf

(* ---- binary decoding ---- *)

(* A cursor over a block of the input. [base] is the absolute input
   offset of [buf].[0], so Malformed positions are absolute (§4). The
   text decoder reports 1-based lines; binary positions are pure byte
   offsets, reported with [line = 0]. *)
type bin_cur = {
  bc_buf : Bytes.t;
  bc_base : int;
  mutable bc_pos : int;
  bc_len : int;
}

let cur_of_bytes ?(base = 0) buf =
  { bc_buf = buf; bc_base = base; bc_pos = 0; bc_len = Bytes.length buf }

let bin_error cur fmt =
  Printf.ksprintf
    (fun reason ->
      raise
        (Malformed
           { line = 0; byte = cur.bc_base + cur.bc_pos; record = -1; reason }))
    fmt

let read_byte cur =
  if cur.bc_pos >= cur.bc_len then
    bin_error cur "input exhausted mid-field (format.md §3.4)";
  let b = Char.code (Bytes.unsafe_get cur.bc_buf cur.bc_pos) in
  cur.bc_pos <- cur.bc_pos + 1;
  b

(* A value with bit 62 set reads as a negative int, so every count and
   length bound below also rejects negatives as overruns. *)
let read_uvarint cur =
  let b0 = read_byte cur in
  if b0 < 0x80 then b0
  else begin
    let n = ref (b0 land 0x7F) in
    let shift = ref 7 in
    let continue = ref true in
    while !continue do
      if !shift > 62 then
        bin_error cur "varint longer than 10 bytes (format.md §2.1)";
      let b = read_byte cur in
      n := !n lor ((b land 0x7F) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then continue := false
    done;
    !n
  end

let read_svarint cur = unzigzag (read_uvarint cur)

let read_u64 cur =
  let n = ref 0 in
  for i = 0 to 7 do
    let b = read_byte cur in
    if i = 7 && b > 0x3F then
      bin_error cur "64-bit field exceeds the OCaml int range (format.md §2.3)";
    n := !n lor (b lsl (8 * i))
  done;
  !n

let read_u32 cur =
  let n = ref 0 in
  for i = 0 to 3 do
    n := !n lor (read_byte cur lsl (8 * i))
  done;
  !n

(* §3.1: magic + version + flags + nranks. Returns (flags, nranks). *)
let read_bin_header cur =
  if cur.bc_len - cur.bc_pos < 9 then
    bin_error cur "input shorter than the 9-byte magic+version (format.md §3.1)";
  let m = Bytes.sub_string cur.bc_buf cur.bc_pos 8 in
  if m <> magic_v2 then bin_error cur "bad binary magic %S (format.md §3.1)" m;
  cur.bc_pos <- cur.bc_pos + 8;
  let version = read_byte cur in
  if version <> binary_version then
    bin_error cur
      "unsupported binary trace version %d (this decoder reads version %d; \
       format.md §1.2)"
      version binary_version;
  let flags = read_uvarint cur in
  if flags <> 0 then
    bin_error cur "reserved flags %#x must be zero (format.md §3.1)" flags;
  let nranks = read_uvarint cur in
  if nranks < 0 then
    bin_error cur "rank count %d is negative as an OCaml int (format.md §3.1)"
      nranks;
  (flags, nranks)

(* §3.2 string pool. *)
let read_pool cur =
  let count = read_uvarint cur in
  if count < 0 || count > cur.bc_len - cur.bc_pos then
    bin_error cur "pool count %d exceeds remaining input (format.md §3.2)" count;
  Array.init count (fun _ ->
      let len = read_uvarint cur in
      if len < 0 || len > cur.bc_len - cur.bc_pos then
        bin_error cur "pool entry overruns input (format.md §3.2)";
      let s = Bytes.sub_string cur.bc_buf cur.bc_pos len in
      cur.bc_pos <- cur.bc_pos + len;
      s)

type footer = {
  ft_offsets : int array;  (** per-rank segment start offsets *)
  ft_counts : int array;  (** per-rank record counts *)
  ft_pool_offset : int;
  ft_crc : int;
  ft_start : int;  (** absolute offset of the footer's first byte *)
}

let footer_fixed = 28 (* pool offset + crc + locator + trailer magic *)

(* §3.5: locate the footer from the end of the input. [total] is the
   full input length; [tail_cur] must expose at least the final 16
   bytes positioned at [total - 16]. *)
let read_footer_locator ~total tail_cur =
  if total < 16 then
    bin_error tail_cur "input too short for a footer (format.md §3.5)";
  let trailer = Bytes.sub_string tail_cur.bc_buf (tail_cur.bc_pos + 8) 8 in
  if trailer <> trailer_magic then
    bin_error tail_cur
      "trailing footer magic is %S, want %S — footer truncated or \
       overwritten (format.md §3.5)"
      (escape trailer) trailer_magic;
  let footer_start = read_u64 tail_cur in
  if footer_start > total - footer_fixed then
    bin_error tail_cur "footer locator %d points past the input (format.md §3.5)"
      footer_start;
  footer_start

(* §3.5: the rank table and trailing fields, [cur] positioned at
   [ft_start]. *)
let read_footer ~nranks ~total cur =
  let ft_start = cur.bc_base + cur.bc_pos in
  if total - ft_start <> (16 * nranks) + footer_fixed then
    bin_error cur
      "footer is %d bytes, want %d for %d rank(s) (format.md §3.5)"
      (total - ft_start)
      ((16 * nranks) + footer_fixed)
      nranks;
  let ft_offsets = Array.make (max 1 nranks) 0 in
  let ft_counts = Array.make (max 1 nranks) 0 in
  for r = 0 to nranks - 1 do
    ft_offsets.(r) <- read_u64 cur;
    ft_counts.(r) <- read_u64 cur
  done;
  let ft_pool_offset = read_u64 cur in
  let ft_crc = read_u32 cur in
  let locator = read_u64 cur in
  if locator <> ft_start then
    bin_error cur
      "footer locator %d disagrees with footer position %d (format.md §3.5)"
      locator ft_start;
  (* Segments must be contiguous and in rank order (§3.3). *)
  let prev = ref ft_pool_offset in
  Array.iteri
    (fun r off ->
      if r < nranks then begin
        if off < !prev then
          bin_error cur
            "rank %d segment offset %d precedes the previous segment's end \
             (format.md §3.3)"
            r off;
        prev := off
      end)
    ft_offsets;
  if nranks > 0 && ft_offsets.(0) < ft_pool_offset then
    bin_error cur "first segment overlaps the string pool (format.md §3.3)";
  if nranks > 0 && ft_offsets.(nranks - 1) > ft_start then
    bin_error cur "last segment offset points past the footer (format.md §3.5)";
  { ft_offsets; ft_counts; ft_pool_offset; ft_crc; ft_start }

(* One record (§3.4). Raises on structural damage; semantic problems
   (unknown layer tag, pool id out of range) raise [Skip] so lenient
   callers can drop the record and keep the segment. *)
let read_bin_record ~pool ~rank cur =
  let seq = read_uvarint cur in
  let tstart = read_svarint cur in
  let tend = read_svarint cur in
  let layer_b = read_byte cur in
  let fidx = read_uvarint cur in
  let ridx = read_uvarint cur in
  let nargs = read_uvarint cur in
  if nargs < 0 || nargs > cur.bc_len - cur.bc_pos then
    bin_error cur "argument count %d overruns the segment (format.md §3.4)"
      nargs;
  let argids = Array.init nargs (fun _ -> read_uvarint cur) in
  let npath = read_uvarint cur in
  if npath < 0 || npath > (cur.bc_len - cur.bc_pos + 1) / 2 then
    bin_error cur "call-path length %d overruns the segment (format.md §3.4)"
      npath;
  let pathids =
    Array.init npath (fun _ ->
        let lb = read_byte cur in
        let fi = read_uvarint cur in
        (lb, fi))
  in
  (* Structure consumed; validate semantics. *)
  let npool = Array.length pool in
  let str ~what i =
    if i < 0 || i >= npool then
      skip ~rank ~seq ~fault:Diagnostic.Bad_argument
        "%s pool id %d out of range [0, %d) (format.md §3.2)" what i npool
    else Array.unsafe_get pool i
  in
  let layer ~what b =
    match layer_of_tag b with
    | Some l -> l
    | None ->
      skip ~rank ~seq ~fault:Diagnostic.Unknown_function
        "%s layer tag %d is not in the layer table (format.md §3.4.1)" what b
  in
  let layer_v = layer ~what:"record" layer_b in
  let func = str ~what:"function" fidx in
  let ret = str ~what:"return-value" ridx in
  let args = Array.map (fun i -> str ~what:"argument" i) argids in
  let call_path =
    Array.to_list
      (Array.map
         (fun (lb, fi) ->
           (layer ~what:"call-path" lb, str ~what:"call-path function" fi))
         pathids)
  in
  { Record.rank; seq; tstart; tend; layer = layer_v; func; ret; args; call_path }

(* Decode one rank segment: a record count then that many records (§3.3).
   Returns the number of records emitted. In lenient mode semantic skips
   drop single records; structural damage abandons the segment's
   remainder with a Truncated_trace diagnostic. In strict mode both
   raise. *)
let decode_segment ~mode ~pool ~rank ~expected ~diag ~emit cur =
  let emitted = ref 0 in
  let prev_seq = ref min_int in
  (try
     let count = read_uvarint cur in
     (match expected with
     | Some n when n <> count -> (
       let reason =
         Printf.sprintf
           "rank %d segment declares %d record(s) but the footer says %d \
            (format.md §3.5)"
           rank count n
       in
       match mode with
       | Diagnostic.Strict ->
         raise
           (Malformed
              { line = 0; byte = cur.bc_base + cur.bc_pos; record = -1; reason })
       | Diagnostic.Lenient ->
         diag (Diagnostic.make ~rank ~fault:Diagnostic.Bad_header reason))
     | _ -> ());
     for _ = 1 to count do
       let byte = cur.bc_base + cur.bc_pos in
       match read_bin_record ~pool ~rank cur with
       | r ->
         if r.Record.seq <= !prev_seq then begin
           let reason =
             Printf.sprintf
               "rank %d seq %d does not increase over the previous record's \
                %d (format.md §3.3)"
               rank r.Record.seq !prev_seq
           in
           match mode with
           | Diagnostic.Strict ->
             raise (Malformed { line = 0; byte; record = -1; reason })
           | Diagnostic.Lenient ->
             diag
               (Diagnostic.make ~rank ~seq:r.Record.seq
                  ~fault:Diagnostic.Duplicate_record reason)
         end
         else begin
           prev_seq := r.Record.seq;
           emit r;
           incr emitted
         end
       | exception Skip { sk_fault; sk_rank; sk_seq; sk_reason } -> (
         match mode with
         | Diagnostic.Strict ->
           raise (Malformed { line = 0; byte; record = -1; reason = sk_reason })
         | Diagnostic.Lenient ->
           diag (Diagnostic.make ?rank:sk_rank ?seq:sk_seq ~fault:sk_fault sk_reason))
     done
   with Malformed { reason; _ } when mode = Diagnostic.Lenient ->
     (* Structural damage: the rest of the segment has no recoverable
        record boundaries. Account for the loss and move on — the next
        segment starts at a footer offset, not here. In lenient mode
        this handler makes the whole function non-raising, so callers
        never re-enter salvage after records were already emitted. *)
     diag
       (Diagnostic.make ~rank ~fault:Diagnostic.Truncated_trace
          (Printf.sprintf "rank %d segment abandoned after %d record(s): %s"
             rank !emitted reason)));
  !emitted

(* Lenient fallback when the footer is damaged: every structure before
   the footer is self-delimiting (varint counts and length prefixes), so
   the body decodes sequentially — header, pool, then up to nranks
   segments until the bytes run out (§4). *)
let decode_binary_salvage s ~emit =
  let mode = Diagnostic.Lenient in
  let b = Bytes.unsafe_of_string s in
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let emitted = ref 0 in
  let nranks = ref 0 in
  (try
     let cur = cur_of_bytes b in
     let _flags, n = read_bin_header cur in
     nranks := n;
     let pool = read_pool cur in
     let rank = ref 0 in
     while !rank < n && cur.bc_pos < cur.bc_len do
       emitted :=
         !emitted
         + decode_segment ~mode ~pool ~rank:!rank ~expected:None ~diag ~emit
             cur;
       incr rank
     done;
     if !rank < n then
       diag
         (Diagnostic.make ~fault:Diagnostic.Truncated_trace
            (Printf.sprintf
               "input ends after %d of %d rank segment(s) (format.md §3.3)"
               !rank n))
   with Malformed { reason; _ } ->
     diag (Diagnostic.make ~fault:Diagnostic.Bad_header reason));
  (!nranks, !emitted, List.rev !diags)

(* The indexed decode: the footer is read from the end of the input,
   then the pool and each rank segment are read as separate blocks —
   peak memory is the pool plus the largest single segment, and the body
   CRC is folded over the blocks as they pass and checked after the
   records (§3.5). *)
let decode_indexed ~mode input ~emit =
  let total = input.len in
  let head_len = min total 64 in
  let head = block input 0 head_len in
  let hcur = cur_of_bytes head in
  let _flags, nranks = read_bin_header hcur in
  let header_end = hcur.bc_pos in
  let tail = block input (max 0 (total - 16)) (min 16 total) in
  let footer_start =
    read_footer_locator ~total (cur_of_bytes ~base:(total - 16) tail)
  in
  let fbytes = block input footer_start (total - footer_start) in
  let ft =
    read_footer ~nranks ~total (cur_of_bytes ~base:footer_start fbytes)
  in
  if ft.ft_pool_offset <> header_end then
    bin_error hcur
      "pool offset %d in the footer disagrees with the header end %d \
       (format.md §3.5)"
      ft.ft_pool_offset header_end;
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let crc = ref Vio_util.Crc32.init in
  let crc_over b len = crc := Vio_util.Crc32.update !crc b ~pos:0 ~len in
  crc_over head (min header_end head_len);
  let seg_start rank =
    if rank < nranks then ft.ft_offsets.(rank) else footer_start
  in
  let pool_bytes =
    block input ft.ft_pool_offset (seg_start 0 - ft.ft_pool_offset)
  in
  crc_over pool_bytes (Bytes.length pool_bytes);
  let pool = read_pool (cur_of_bytes ~base:ft.ft_pool_offset pool_bytes) in
  let emitted = ref 0 in
  for rank = 0 to nranks - 1 do
    let lo = seg_start rank and hi = seg_start (rank + 1) in
    if lo > hi || hi > total then
      bin_error hcur "rank %d segment bounds are inconsistent (format.md §3.5)"
        rank;
    let seg = block input lo (hi - lo) in
    crc_over seg (hi - lo);
    let cur = cur_of_bytes ~base:lo seg in
    emitted :=
      !emitted
      + decode_segment ~mode ~pool ~rank ~expected:(Some ft.ft_counts.(rank))
          ~diag ~emit cur
  done;
  let crc = Vio_util.Crc32.finish !crc in
  if crc <> ft.ft_crc then begin
    let reason =
      Printf.sprintf "body CRC-32 is %08x, footer says %08x (format.md §3.5)"
        crc ft.ft_crc
    in
    match mode with
    | Diagnostic.Strict ->
      raise (Malformed { line = 0; byte = footer_start; record = -1; reason })
    | Diagnostic.Lenient -> diag (Diagnostic.make ~fault:Diagnostic.Bad_header reason)
  end;
  (nranks, !emitted, List.rev !diags)

let decode_binary ~mode input ~emit =
  match decode_indexed ~mode input ~emit with
  | r -> r
  | exception Malformed { reason; _ } when mode = Diagnostic.Lenient ->
    (* The header/footer skeleton is unreadable; nothing was emitted yet
       (segment decode is non-raising in lenient mode), so the
       sequential salvage pass starts clean. *)
    let s = Bytes.unsafe_to_string (block input 0 input.len) in
    let nranks, emitted, diags = decode_binary_salvage s ~emit in
    let d =
      Diagnostic.make ~fault:Diagnostic.Bad_header
        ("footer index unusable, salvaged sequentially: " ^ reason)
    in
    (nranks, emitted, d :: diags)

(* ---------------------------------------------------------------- *)
(* Format-transparent entry points: both sniff the magic (§1.1) of    *)
(* one input and route to the text or binary decoder.                 *)
(* ---------------------------------------------------------------- *)

let encode_format fmt ~nranks records =
  match fmt with
  | Text -> encode ~nranks records
  | Binary -> encode_binary ~nranks records

let fold ?(mode = Diagnostic.Strict) input ~init ~f =
  let acc = ref init in
  let emit r = acc := f !acc r in
  let head = Bytes.unsafe_to_string (block input 0 (min 8 input.len)) in
  let nranks, count, diagnostics =
    match detect head with
    | Text -> decode_from ~mode (reader (lines input)) ~emit
    | Binary -> decode_binary ~mode input ~emit
  in
  {
    f_nranks = nranks;
    f_value = !acc;
    f_records = count;
    f_diagnostics = diagnostics;
  }

let decode_ext ?mode s =
  let r = fold ?mode (input_of_string s) ~init:[] ~f:(fun acc r -> r :: acc) in
  {
    nranks = r.f_nranks;
    records = List.rev r.f_value;
    diagnostics = r.f_diagnostics;
  }

let fold_records ?mode path ~init ~f =
  with_file_input path (fun input -> fold ?mode input ~init ~f)
