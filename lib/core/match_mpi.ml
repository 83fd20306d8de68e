module R = Recorder.Record
module D = Recorder.Diagnostic
module E = Estore
module Intbuf = Vio_util.Intbuf

type event =
  | P2p of { send : int; completion : int }
  | Collective of { parts : (int * int option) list; completed : bool }

type unmatched =
  | Mismatched_collective of {
      comm : int;
      position : int;
      present : (int * string) list;
      missing : int list;
    }
  | Orphan_collective of { comm : int; rank : int; op : int }
  | Unmatched_send of int
  | Unmatched_recv of int

let pp_unmatched d ppf = function
  | Mismatched_collective { comm; position; present; missing } ->
    Format.fprintf ppf
      "@[<h>mismatched collective on comm %d at position %d: %s%s@]" comm
      position
      (String.concat ", "
         (List.map (fun (r, f) -> Printf.sprintf "rank %d calls %s" r f) present))
      (match missing with
      | [] -> ""
      | l ->
        "; no call from rank(s) "
        ^ String.concat "," (List.map string_of_int l))
  | Orphan_collective { comm; rank; op } ->
    Format.fprintf ppf "@[<h>orphan collective %s on comm %d from rank %d@]"
      (E.func d op) comm rank
  | Unmatched_send op ->
    Format.fprintf ppf "@[<h>unmatched send: %a@]" R.pp (E.record d op)
  | Unmatched_recv op ->
    Format.fprintf ppf "@[<h>unmatched receive: %a@]" R.pp (E.record d op)

type result = {
  events : event list;
  unmatched : unmatched list;
  comm_ranks : (int * int array) list;
  diagnostics : D.t list;
}

let is_clean r = r.unmatched = []

(* ---------------------------------------------------------------- *)
(* Function ids                                                       *)
(* ---------------------------------------------------------------- *)

let collective_funcs =
  [
    "MPI_Barrier"; "MPI_Bcast"; "MPI_Reduce"; "MPI_Allreduce"; "MPI_Gather";
    "MPI_Allgather"; "MPI_Scatter"; "MPI_Alltoall"; "MPI_Comm_dup";
    "MPI_Comm_split"; "MPI_Ibarrier"; "MPI_Iallreduce"; "MPI_File_open";
    "MPI_File_close"; "MPI_File_sync"; "MPI_File_set_view";
    "MPI_File_write_at_all"; "MPI_File_read_at_all"; "MPI_File_write_all";
  ]

(* The store's pool ids of the functions matching dispatches on, resolved
   once per run, so every per-op test is an int compare. A function the
   store never names gets -1, which no op's id equals. *)
type ids = {
  wait : int;
  waitall : int;
  test : int;
  testsome : int;
  send : int;
  isend : int;
  recv : int;
  irecv : int;
  comm_dup : int;
  comm_split : int;
  ibarrier : int;
  iallreduce : int;
  collective : bool array;  (* indexed by pool id *)
}

let resolve d =
  let id = E.func_id_of_name d in
  let coll = List.map id collective_funcs in
  let collective = Array.make (1 + List.fold_left max (-1) coll) false in
  List.iter (fun c -> if c >= 0 then collective.(c) <- true) coll;
  {
    wait = id "MPI_Wait";
    waitall = id "MPI_Waitall";
    test = id "MPI_Test";
    testsome = id "MPI_Testsome";
    send = id "MPI_Send";
    isend = id "MPI_Isend";
    recv = id "MPI_Recv";
    irecv = id "MPI_Irecv";
    comm_dup = id "MPI_Comm_dup";
    comm_split = id "MPI_Comm_split";
    ibarrier = id "MPI_Ibarrier";
    iallreduce = id "MPI_Iallreduce";
    collective;
  }

let is_collective ids d i =
  let f = E.func_id d i in
  f < Array.length ids.collective
  && ids.collective.(f)
  && match E.layer d i with R.Mpi | R.Mpiio -> true | _ -> false

let is_completion ids f =
  f = ids.wait || f = ids.waitall || f = ids.test || f = ids.testsome

(* Request-id argument position of non-blocking collectives. *)
let nonblocking_rid_arg ids f =
  if f = ids.ibarrier then Some 1
  else if f = ids.iallreduce then Some 3
  else None

(* ---------------------------------------------------------------- *)
(* Int-keyed tables                                                   *)
(* ---------------------------------------------------------------- *)

(* A map from int tuples of one width to non-negative ints: open
   addressing with linear probing from a Fibonacci hash, doubling at
   half load, deletion by backward shift. Every operation reads its key
   from the table's [key] array, which the caller fills first, so no
   lookup allocates. Matching keys its per-record lookups with these:
   (rank, rid) for posted receives and completions, (comm, src, dst,
   tag) for channels and (comm, rank) for collective sequences. *)
module Tup = struct
  type t = {
    w : int;
    key : int array;
    mutable bits : int;
    mutable keys : int array;  (* slot s holds keys.(s * w .. s * w + w - 1) *)
    mutable vals : int array;  (* -1: empty slot *)
    mutable count : int;
  }

  let create w =
    {
      w;
      key = Array.make w 0;
      bits = 4;
      keys = Array.make (16 * w) 0;
      vals = Array.make 16 (-1);
      count = 0;
    }

  let home t src off =
    let h = ref 0 in
    for j = off to off + t.w - 1 do
      h := (!h lxor src.(j)) * 0x4F1BBCDCBFA53E0B
    done;
    !h lsr (Sys.int_size - t.bits)

  let rec same t o j =
    j = t.w || (t.keys.(o + j) = t.key.(j) && same t o (j + 1))

  let rec probe t s =
    if t.vals.(s) < 0 || same t (s * t.w) 0 then s
    else probe t ((s + 1) land (Array.length t.vals - 1))

  (* The slot holding [key], or the empty slot where it belongs. *)
  let slot t = probe t (home t t.key 0)

  let find t = t.vals.(slot t)

  let grow t =
    let keys = t.keys and vals = t.vals in
    t.bits <- t.bits + 1;
    t.keys <- Array.make (t.w lsl t.bits) 0;
    t.vals <- Array.make (1 lsl t.bits) (-1);
    let mask = Array.length t.vals - 1 in
    Array.iteri
      (fun s v ->
        if v >= 0 then begin
          let s' = ref (home t keys (s * t.w)) in
          while t.vals.(!s') >= 0 do
            s' := (!s' + 1) land mask
          done;
          Array.blit keys (s * t.w) t.keys (!s' * t.w) t.w;
          t.vals.(!s') <- v
        end)
      vals

  (* Bind [key] to [v] in [s], the empty slot {!slot} just returned. *)
  let insert t s v =
    Array.blit t.key 0 t.keys (s * t.w) t.w;
    t.vals.(s) <- v;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.vals then grow t

  (* Unbind the key in [s], a full slot {!slot} just returned. *)
  let remove t s =
    t.count <- t.count - 1;
    let mask = Array.length t.vals - 1 in
    let hole = ref s and j = ref ((s + 1) land mask) in
    while t.vals.(!j) >= 0 do
      (* The entry in [j] may fill the hole unless its home lies
         cyclically in (hole, j]. *)
      let h = home t t.keys (!j * t.w) in
      let stays =
        if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
      in
      if not stays then begin
        Array.blit t.keys (!j * t.w) t.keys (!hole * t.w) t.w;
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.vals.(!hole) <- -1
end

(* ---------------------------------------------------------------- *)
(* Matching                                                           *)
(* ---------------------------------------------------------------- *)

type state = {
  d : E.t;
  ids : ids;
  mode : D.mode;
  mutable diags : D.t list;
  mutable events : event list;
  mutable unmatched : unmatched list;
  comms : (int, int array) Hashtbl.t;  (* comm id -> world ranks *)
  (* Collective records per (comm id, world rank), in program order:
     [coll_seqs] maps a key to its index in [coll_arrays]. The table
     gets one insertion per key, in the order keys first occur, and its
     iteration order is the order orphans are reported in. *)
  coll_seqs : (int * int, int) Hashtbl.t;
  mutable coll_arrays : int array array;
  (* Completion records (MPI_Wait/Waitall/Test/Testsome calls that
     returned), parsed once, in op order: record [c] is op
     [done_op.(c)], completed the (rid, status src, status tag) triples
     [done_req.(3 * done_end.(c - 1) ..)] up to [3 * done_end.(c)], and
     failed to parse with [exn] if [(c, exn)] is in [done_err]. *)
  done_op : Intbuf.t;
  done_end : Intbuf.t;
  done_req : Intbuf.t;
  mutable done_err : (int * exn) list;  (* newest first *)
  (* (rank, rid) -> the first op that completed it; built on first use,
     which only nonblocking collectives make. *)
  mutable first_done : Tup.t option;
  (* The communicator [world_of_comm_rank] looked up last. *)
  mutable last_comm : int;
  mutable last_ranks : int array;
}

let comm_of_coll d idx = E.int_arg d idx 0

(* In lenient mode a corrupt MPI record must not take the whole matching
   pass down: its caller's handler passes the parse failure here, which
   absorbs it as a diagnostic on op [i], so the unit of work that needed
   the bad field is skipped. The text, [what ()] and the message, is
   built only then. Strict mode re-raises. *)
let absorb st i ~what exn =
  let diag text =
    st.diags <-
      D.make ~rank:(E.rank st.d i) ~seq:(E.seq st.d i) ~fault:D.Bad_argument
        text
      :: st.diags
  in
  match (st.mode, exn) with
  | D.Lenient, (E.Malformed msg | Failure msg) ->
    diag (Printf.sprintf "%s: %s" (what ()) msg)
  | D.Lenient, Invalid_argument msg ->
    diag (Printf.sprintf "%s: invalid value (%s)" (what ()) msg)
  | _ -> raise exn

let split_csv s = if s = "" then [] else String.split_on_char ',' s

let push_req st ~rid ~src ~tag =
  Intbuf.push st.done_req rid;
  Intbuf.push st.done_req src;
  Intbuf.push st.done_req tag

(* Parse completion record [i] into [done_req]. Fields are read in the
   order the matcher always read them, so the first bad field, and with
   it the failure text, is the same; a failure after some triples keeps
   them, as a partial MPI_Waitall or MPI_Testsome did. *)
let parse_completion st i f =
  let d = st.d in
  if f = st.ids.wait then begin
    let tag = E.int_arg d i 2 in
    let src = E.int_arg d i 1 in
    let rid = E.int_arg d i 0 in
    push_req st ~rid ~src ~tag
  end
  else if f = st.ids.waitall then begin
    let rids = List.map int_of_string (split_csv (E.arg d i 1)) in
    let statuses =
      List.map
        (fun s ->
          match String.split_on_char ':' s with
          | [ a; b ] -> (int_of_string a, int_of_string b)
          | _ -> raise (E.Malformed "bad MPI_Waitall status"))
        (split_csv (E.arg d i 2))
    in
    List.iter2 (fun rid (src, tag) -> push_req st ~rid ~src ~tag) rids statuses
  end
  else if f = st.ids.test then begin
    if E.arg d i 1 = "1" then begin
      let tag = E.int_arg d i 3 in
      let src = E.int_arg d i 2 in
      let rid = E.int_arg d i 0 in
      push_req st ~rid ~src ~tag
    end
  end
  else
    List.iter
      (fun entry ->
        match String.split_on_char ':' entry with
        | [ rid; src; tag ] ->
          let tag = int_of_string tag in
          let src = int_of_string src in
          push_req st ~rid:(int_of_string rid) ~src ~tag
        | _ -> raise (E.Malformed "bad MPI_Testsome completion"))
      (split_csv (E.arg d i 3))

(* One pass over the completion records: which call completed which
   request id, and with what recovered status. *)
let collect_completions st =
  let d = st.d in
  for i = 0 to E.length d - 1 do
    let f = E.func_id d i in
    if is_completion st.ids f && E.layer d i = R.Mpi && not (E.in_flight d i)
    then begin
      (try parse_completion st i f
       with exn ->
         st.done_err <- (st.done_op.Intbuf.len, exn) :: st.done_err;
         absorb st i exn ~what:(fun () -> "completion record " ^ E.func d i));
      Intbuf.push st.done_op i;
      Intbuf.push st.done_end (st.done_req.Intbuf.len / 3)
    end
  done

let first_done st =
  match st.first_done with
  | Some t -> t
  | None ->
    let t = Tup.create 2 in
    let first = ref 0 in
    for c = 0 to st.done_op.Intbuf.len - 1 do
      let i = st.done_op.Intbuf.buf.(c) in
      for k = !first to st.done_end.Intbuf.buf.(c) - 1 do
        t.Tup.key.(0) <- E.rank st.d i;
        t.Tup.key.(1) <- st.done_req.Intbuf.buf.(3 * k);
        let s = Tup.slot t in
        if t.Tup.vals.(s) < 0 then Tup.insert t s i
      done;
      first := st.done_end.Intbuf.buf.(c)
    done;
    st.first_done <- Some t;
    t

let collect_collectives st =
  let d = st.d in
  let keys = Tup.create 2 in
  let ops = Intbuf.create () in  (* (key index, op) pairs *)
  for i = 0 to E.length d - 1 do
    if is_collective st.ids d i then
      try
        keys.Tup.key.(0) <- comm_of_coll d i;
        keys.Tup.key.(1) <- E.rank d i;
        let s = Tup.slot keys in
        let k =
          if keys.Tup.vals.(s) >= 0 then keys.Tup.vals.(s)
          else begin
            let k = keys.Tup.count in
            Hashtbl.replace st.coll_seqs (keys.Tup.key.(0), keys.Tup.key.(1)) k;
            Tup.insert keys s k;
            k
          end
        in
        Intbuf.push ops k;
        Intbuf.push ops i
      with exn ->
        absorb st i exn ~what:(fun () -> "collective record " ^ E.func d i)
  done;
  (* Ops are in index order, which is program order within a rank. *)
  let counts = Array.make keys.Tup.count 0 in
  for p = 0 to (ops.Intbuf.len / 2) - 1 do
    let k = ops.Intbuf.buf.(2 * p) in
    counts.(k) <- counts.(k) + 1
  done;
  st.coll_arrays <- Array.map (fun c -> Array.make c 0) counts;
  Array.fill counts 0 (Array.length counts) 0;
  for p = 0 to (ops.Intbuf.len / 2) - 1 do
    let k = ops.Intbuf.buf.(2 * p) in
    st.coll_arrays.(k).(counts.(k)) <- ops.Intbuf.buf.((2 * p) + 1);
    counts.(k) <- counts.(k) + 1
  done

(* Sort the members of a split group the way MPI_Comm_split does. *)
let split_members st ~parent entries =
  (* entries: (world_rank, color, key, newcomm) *)
  let parent_rank w =
    let ranks = Hashtbl.find st.comms parent in
    let rec find i = if ranks.(i) = w then i else find (i + 1) in
    find 0
  in
  List.sort
    (fun (w1, _, k1, _) (w2, _, k2, _) ->
      compare (k1, parent_rank w1) (k2, parent_rank w2))
    entries

(* Match the collective sequence of one known communicator; may register
   new communicators (returned as newly known ids). *)
let match_comm st comm_id =
  let members = Hashtbl.find st.comms comm_id in
  let seqs =
    Array.map
      (fun w ->
        match Hashtbl.find_opt st.coll_seqs (comm_id, w) with
        | Some k -> st.coll_arrays.(k)
        | None -> [||])
      members
  in
  let positions = Array.fold_left (fun m s -> max m (Array.length s)) 0 seqs in
  let fresh = ref [] in
  let aborted = ref false in
  for pos = 0 to positions - 1 do
    if not !aborted then begin
      let present = ref [] and missing = ref [] in
      Array.iteri
        (fun ci w ->
          if pos < Array.length seqs.(ci) then
            present := (w, seqs.(ci).(pos)) :: !present
          else missing := w :: !missing)
        members;
      let present = List.rev !present and missing = List.rev !missing in
      (* Pool ids are equal exactly when names are. *)
      let func =
        match present with
        | (_, idx) :: rest ->
          let f = E.func_id st.d idx in
          if List.for_all (fun (_, idx) -> E.func_id st.d idx = f) rest then f
          else -1
        | [] -> -1
      in
      let orphan_rest () =
        (* Everything after this position on this communicator is
           unreliable. *)
        Array.iteri
          (fun ci w ->
            for p = pos + 1 to Array.length seqs.(ci) - 1 do
              st.unmatched <-
                Orphan_collective { comm = comm_id; rank = w; op = seqs.(ci).(p) }
                :: st.unmatched
            done)
          members;
        aborted := true
      in
      let process () =
      if func >= 0 && missing = [] then begin
        let inits = List.map snd present in
        let parts =
          List.map
            (fun idx ->
              match nonblocking_rid_arg st.ids (E.func_id st.d idx) with
              | None -> (idx, Some idx)
              | Some rid_arg -> (
                match int_of_string_opt (E.arg st.d idx rid_arg) with
                | None -> (idx, None)
                | Some rid ->
                  let t = first_done st in
                  t.Tup.key.(0) <- E.rank st.d idx;
                  t.Tup.key.(1) <- rid;
                  let cidx = Tup.find t in
                  (idx, if cidx >= 0 then Some cidx else None)))
            inits
        in
        let completed =
          List.for_all (fun idx -> not (E.in_flight st.d idx)) inits
        in
        st.events <- Collective { parts; completed } :: st.events;
        (* Communicator creation registers the new communicator. *)
        if func = st.ids.comm_dup && completed then begin
          let newcomm = E.int_arg st.d (List.hd inits) 1 in
          if not (Hashtbl.mem st.comms newcomm) then begin
            Hashtbl.replace st.comms newcomm (Array.copy members);
            fresh := newcomm :: !fresh
          end
        end
        else if func = st.ids.comm_split && completed then begin
          let entries =
            List.map
              (fun idx ->
                ( E.rank st.d idx,
                  E.int_arg st.d idx 1,
                  E.int_arg st.d idx 2,
                  E.int_arg st.d idx 3 ))
              inits
          in
          let colors =
            List.sort_uniq compare (List.map (fun (_, c, _, _) -> c) entries)
          in
          List.iter
            (fun color ->
              let group =
                List.filter (fun (_, c, _, _) -> c = color) entries
              in
              let sorted = split_members st ~parent:comm_id group in
              let newcomm =
                match sorted with (_, _, _, nc) :: _ -> nc | [] -> assert false
              in
              List.iter
                (fun (_, _, _, nc) ->
                  if nc <> newcomm then
                    st.unmatched <-
                      Mismatched_collective
                        { comm = comm_id; position = pos; present =
                            List.map (fun (w, _, _, _) -> (w, "MPI_Comm_split")) group;
                          missing = [] }
                      :: st.unmatched)
                sorted;
              if not (Hashtbl.mem st.comms newcomm) then begin
                Hashtbl.replace st.comms newcomm
                  (Array.of_list (List.map (fun (w, _, _, _) -> w) sorted));
                fresh := newcomm :: !fresh
              end)
            colors
        end
      end
      else begin
        st.unmatched <-
          Mismatched_collective
            {
              comm = comm_id;
              position = pos;
              present =
                List.map (fun (w, idx) -> (w, E.func st.d idx)) present;
              missing;
            }
          :: st.unmatched;
        (* Everything after a mismatch on this communicator is unreliable. *)
        orphan_rest ()
      end
      in
      match st.mode with
      | D.Strict -> process ()
      | D.Lenient -> (
        try process ()
        with E.Malformed msg | Failure msg | Invalid_argument msg ->
          st.diags <-
            D.make ~fault:D.Bad_argument
              (Printf.sprintf
                 "collective at position %d on comm %d unusable: %s" pos
                 comm_id msg)
            :: st.diags;
          orphan_rest ())
    end
  done;
  !fresh

let match_collectives st =
  collect_collectives st;
  Hashtbl.replace st.comms 0 (Array.init (E.nranks st.d) Fun.id);
  let rec go known =
    match known with
    | [] -> ()
    | comm :: rest ->
      let fresh = match_comm st comm in
      go (rest @ fresh)
  in
  go [ 0 ];
  (* Collective records on never-registered communicators are orphans. *)
  Hashtbl.iter
    (fun (comm, rank) k ->
      if not (Hashtbl.mem st.comms comm) then
        Array.iter
          (fun idx ->
            st.unmatched <- Orphan_collective { comm; rank; op = idx } :: st.unmatched)
          st.coll_arrays.(k))
    st.coll_seqs

(* ---------------------------------------------------------------- *)
(* Point-to-point                                                     *)
(* ---------------------------------------------------------------- *)

(* The world rank behind rank [cr] of communicator [comm], or -1 when
   either is unknown. Member ranks are world ranks, never negative.
   Collective matching has registered every communicator by now, so the
   last lookup can be kept; [match_p2p] starts it at the world
   communicator. *)
let world_of_comm_rank st ~comm cr =
  if comm <> st.last_comm then begin
    st.last_comm <- comm;
    st.last_ranks <-
      (match Hashtbl.find_opt st.comms comm with Some r -> r | None -> [||])
  end;
  let ranks = st.last_ranks in
  if cr >= 0 && cr < Array.length ranks then ranks.(cr) else -1

let match_p2p st =
  let d = st.d and ids = st.ids in
  st.last_comm <- 0;
  st.last_ranks <- Hashtbl.find st.comms 0;
  let pending_unmatched = ref [] in
  (* Posted receives, keyed (rank, rid). Posting [p] is
     [posts.(5p .. 5p + 4)] = (op, comm, rank, rid, still posted), so
     posting numbers follow insertion order. Leftover receives are
     reported in the order a [Hashtbl.create 64] holding the postings
     would iterate them. Each bucket chain holds its entries newest
     first, and resizing keeps that order, so their insertion order and
     the bucket count decide it; the count doubles whenever an insertion
     leaves more than twice as many entries as buckets. [buckets]
     follows it over the postings' history, and replaying the leftovers,
     oldest first, into a table of that many buckets yields the same
     chains. *)
  let posted = Tup.create 2 in
  let posts = Intbuf.create () in
  let live = ref 0 and buckets = ref 64 in
  (* Channels, keyed (comm, src, dst, tag), numbered as they first
     occur: [chan_keys.(4c ..)] is channel [c]'s key. *)
  let chans = Tup.create 4 in
  let chan_keys = Intbuf.create () in
  let chan_last_send = Intbuf.create () and chan_last_recv = Intbuf.create () in
  let channel ~comm ~src ~dst ~tag =
    let k = chans.Tup.key in
    k.(0) <- comm;
    k.(1) <- src;
    k.(2) <- dst;
    k.(3) <- tag;
    let s = Tup.slot chans in
    let c = chans.Tup.vals.(s) in
    if c >= 0 then c
    else begin
      let c = chans.Tup.count in
      Tup.insert chans s c;
      Array.iter (Intbuf.push chan_keys) k;
      Intbuf.push chan_last_send (-1);
      Intbuf.push chan_last_recv (-1);
      c
    end
  in
  let sends = Intbuf.create () in  (* (channel, send op) pairs *)
  let recvs = Intbuf.create () in  (* (channel, posted op, completion op) *)
  let add_send ~comm ~dst ~tag i =
    let c = channel ~comm ~src:(E.rank d i) ~dst ~tag in
    chan_last_send.Intbuf.buf.(c) <- i;
    Intbuf.push sends c;
    Intbuf.push sends i
  in
  let add_recv ~comm ~src ~tag ~posted ~completion =
    let c = channel ~comm ~src ~dst:(E.rank d posted) ~tag in
    chan_last_recv.Intbuf.buf.(c) <- recvs.Intbuf.len;
    Intbuf.push recvs c;
    Intbuf.push recvs posted;
    Intbuf.push recvs completion
  in
  let complete_rid ~rank ~rid ~src ~tag ~completion =
    posted.Tup.key.(0) <- rank;
    posted.Tup.key.(1) <- rid;
    let s = Tup.slot posted in
    let p = posted.Tup.vals.(s) in
    (* No posting: a send request; sends complete eagerly. *)
    if p >= 0 then begin
      Tup.remove posted s;
      posts.Intbuf.buf.((5 * p) + 4) <- 0;
      decr live;
      let posted_idx = posts.Intbuf.buf.(5 * p) in
      let comm = posts.Intbuf.buf.((5 * p) + 1) in
      let src_w = world_of_comm_rank st ~comm src in
      if src_w >= 0 then
        add_recv ~comm ~src:src_w ~tag ~posted:posted_idx ~completion
      else pending_unmatched := Unmatched_recv posted_idx :: !pending_unmatched
    end
  in
  let completion = ref 0 in  (* next completion record *)
  let errors = ref (List.rev st.done_err) in
  for i = 0 to E.length d - 1 do
    let f = E.func_id d i in
    if E.layer d i = R.Mpi then
      try
        if f = ids.send || f = ids.isend then begin
          let comm = E.int_arg d i 2 in
          let tag = E.int_arg d i 1 in
          let dst = world_of_comm_rank st ~comm (E.int_arg d i 0) in
          add_send ~comm ~dst ~tag i
        end
        else if f = ids.recv then begin
          if E.in_flight d i then
            pending_unmatched := Unmatched_recv i :: !pending_unmatched
          else begin
            let comm = E.int_arg d i 2 in
            let src_cr = E.int_arg d i 4 in
            let tag = E.int_arg d i 5 in
            let src = world_of_comm_rank st ~comm src_cr in
            if src >= 0 then add_recv ~comm ~src ~tag ~posted:i ~completion:i
            else pending_unmatched := Unmatched_recv i :: !pending_unmatched
          end
        end
        else if f = ids.irecv then begin
          if not (E.in_flight d i) then begin
            let comm = E.int_arg d i 2 in
            posted.Tup.key.(0) <- E.rank d i;
            posted.Tup.key.(1) <- E.int_arg d i 3;
            let s = Tup.slot posted in
            let p = posted.Tup.vals.(s) in
            if p >= 0 then begin
              (* Re-posting a live (rank, rid) replaces its receive in
                 place; the displaced receive can no longer complete. *)
              pending_unmatched :=
                Unmatched_recv posts.Intbuf.buf.(5 * p) :: !pending_unmatched;
              posts.Intbuf.buf.(5 * p) <- i;
              posts.Intbuf.buf.((5 * p) + 1) <- comm
            end
            else begin
              Tup.insert posted s (posts.Intbuf.len / 5);
              Intbuf.push posts i;
              Intbuf.push posts comm;
              Intbuf.push posts posted.Tup.key.(0);
              Intbuf.push posts posted.Tup.key.(1);
              Intbuf.push posts 1;
              incr live;
              if !live > 2 * !buckets then buckets := 2 * !buckets
            end
          end
        end
        else if is_completion ids f && not (E.in_flight d i) then begin
          let c = !completion in
          incr completion;
          let rank = E.rank d i in
          let first = if c = 0 then 0 else st.done_end.Intbuf.buf.(c - 1) in
          for k = first to st.done_end.Intbuf.buf.(c) - 1 do
            let r = st.done_req.Intbuf.buf in
            complete_rid ~rank ~rid:r.(3 * k) ~src:r.((3 * k) + 1)
              ~tag:r.((3 * k) + 2) ~completion:i
          done;
          match !errors with
          | (c', exn) :: rest when c' = c ->
            errors := rest;
            raise exn
          | _ -> ()
        end
      with exn -> absorb st i exn ~what:(fun () -> "p2p record " ^ E.func d i)
  done;
  (* Posted but never completed receives, in the posted table's order. *)
  let left = Hashtbl.create !buckets in
  for p = 0 to (posts.Intbuf.len / 5) - 1 do
    let a = posts.Intbuf.buf in
    if a.((5 * p) + 4) = 1 then
      Hashtbl.replace left (a.((5 * p) + 2), a.((5 * p) + 3)) a.(5 * p)
  done;
  Hashtbl.iter
    (fun _ posted_idx ->
      pending_unmatched := Unmatched_recv posted_idx :: !pending_unmatched)
    left;
  (* Pair per channel in program order: sends in op order, receives in
     the order they were posted. [by_channel buf width order] lists the
     records of [buf] ([width] ints each, the channel first) grouped by
     channel, in [order] within each; channel [c]'s records are
     [start.(c)] to [start.(c + 1) - 1] in that list. *)
  let nchans = chans.Tup.count in
  let by_channel buf width order =
    let chan e = buf.Intbuf.buf.(width * e) in
    let start = Array.make (nchans + 1) 0 in
    Array.iter (fun e -> start.(chan e + 1) <- start.(chan e + 1) + 1) order;
    for c = 1 to nchans do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    let grouped = Vio_util.Intsort.order (Array.map chan order) in
    (Array.map (fun k -> order.(k)) grouped, start)
  in
  let s_order, s_start =
    by_channel sends 2 (Array.init (sends.Intbuf.len / 2) Fun.id)
  in
  let r_order, r_start =
    by_channel recvs 3
      (Vio_util.Intsort.order
         (Array.init (recvs.Intbuf.len / 3) (fun e ->
              recvs.Intbuf.buf.((3 * e) + 1))))
  in
  (* Channels are visited in the iteration order of a table that gets
     one insertion per channel, in the order the matcher has always
     inserted them: channels with sends by their latest send, latest
     first, then the others by their latest receive, latest first. *)
  let first_seen =
    Vio_util.Intsort.order
      (Array.init nchans (fun c ->
           let s = chan_last_send.Intbuf.buf.(c) in
           if s >= 0 then -s else (max_int / 2) - chan_last_recv.Intbuf.buf.(c)))
  in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      let k = chan_keys.Intbuf.buf in
      Hashtbl.replace tbl
        (k.(4 * c), k.((4 * c) + 1), k.((4 * c) + 2), k.((4 * c) + 3))
        c)
    first_seen;
  let send c k = sends.Intbuf.buf.((2 * s_order.(s_start.(c) + k)) + 1) in
  let recv c k field = recvs.Intbuf.buf.((3 * r_order.(r_start.(c) + k)) + field) in
  Hashtbl.iter
    (fun _ c ->
      let ns = s_start.(c + 1) - s_start.(c)
      and nr = r_start.(c + 1) - r_start.(c) in
      for k = 0 to max ns nr - 1 do
        if k < ns && k < nr then
          st.events <-
            P2p { send = send c k; completion = recv c k 2 } :: st.events
        else if k < ns then
          st.unmatched <- Unmatched_send (send c k) :: st.unmatched
        else st.unmatched <- Unmatched_recv (recv c k 1) :: st.unmatched
      done)
    tbl;
  st.unmatched <- !pending_unmatched @ st.unmatched

(* ---------------------------------------------------------------- *)
(* Unmatched-call inventory                                           *)
(* ---------------------------------------------------------------- *)

type reason =
  | Missing_participant
  | Function_mismatch
  | Orphaned
  | No_matching_recv
  | No_matching_send
  | Never_completed
  | Inconsistent_order

let reason_to_string = function
  | Missing_participant -> "missing participant"
  | Function_mismatch -> "function mismatch"
  | Orphaned -> "orphaned"
  | No_matching_recv -> "no matching receive"
  | No_matching_send -> "no matching send"
  | Never_completed -> "never completed"
  | Inconsistent_order -> "inconsistent order"

type entry = {
  e_func : string;
  e_rank : int;
  e_comm : int option;
  e_seq : int option;
  e_reason : reason;
  e_detail : string;
  e_implicated : int list;
}

let entry_diagnostic e =
  D.make ~rank:e.e_rank ?seq:e.e_seq ~fault:D.Unmatched_call
    (Printf.sprintf "%s: %s%s" e.e_func (reason_to_string e.e_reason)
       (if e.e_detail = "" then "" else " (" ^ e.e_detail ^ ")"))

let entries_of_event d ?(reason = Inconsistent_order)
    ?(detail = "dropped from the happens-before graph") = function
  | P2p { send; completion } ->
    [
      {
        e_func = E.func d send;
        e_rank = E.rank d send;
        e_comm = None;
        e_seq = Some (E.seq d send);
        e_reason = reason;
        e_detail = detail;
        e_implicated =
          List.sort_uniq compare [ E.rank d send; E.rank d completion ];
      };
    ]
  | Collective { parts; _ } ->
    let ranks =
      List.sort_uniq compare (List.map (fun (init, _) -> E.rank d init) parts)
    in
    List.map
      (fun (init, _) ->
        {
          e_func = E.func d init;
          e_rank = E.rank d init;
          e_comm = None;
          e_seq = Some (E.seq d init);
          e_reason = reason;
          e_detail = detail;
          e_implicated = ranks;
        })
      parts

let inventory d (r : result) =
  let members comm = List.assoc_opt comm r.comm_ranks in
  let world ~comm cr =
    match members comm with
    | Some ranks when cr >= 0 && cr < Array.length ranks -> Some ranks.(cr)
    | _ -> None
  in
  (* Inventory construction must never raise, whatever the decode mode:
     a field that cannot be parsed simply leaves that slot unresolved. *)
  let safe f = try f () with _ -> None in
  List.concat_map
    (function
      | Mismatched_collective { comm; position; present; missing } ->
        let implicated =
          List.sort_uniq compare (List.map fst present @ missing)
        in
        let reason =
          if missing <> [] then Missing_participant else Function_mismatch
        in
        let detail = Printf.sprintf "position %d on comm %d" position comm in
        List.map
          (fun (rank, func) ->
            {
              e_func = func;
              e_rank = rank;
              e_comm = Some comm;
              e_seq = None;
              e_reason = reason;
              e_detail = detail;
              e_implicated = implicated;
            })
          present
        @ List.map
            (fun rank ->
              {
                e_func = "(no call)";
                e_rank = rank;
                e_comm = Some comm;
                e_seq = None;
                e_reason = Missing_participant;
                e_detail = detail;
                e_implicated = implicated;
              })
            missing
      | Orphan_collective { comm; rank; op } ->
        [
          {
            e_func = E.func d op;
            e_rank = rank;
            e_comm = Some comm;
            e_seq = Some (E.seq d op);
            e_reason = Orphaned;
            e_detail = Printf.sprintf "comm %d never fully matched" comm;
            e_implicated =
              (match members comm with
              | Some ranks -> Array.to_list ranks
              | None -> [ rank ]);
          };
        ]
      | Unmatched_send op ->
        let comm = safe (fun () -> Some (E.int_arg d op 2)) in
        let dst =
          match comm with
          | Some c -> safe (fun () -> world ~comm:c (E.int_arg d op 0))
          | None -> None
        in
        [
          {
            e_func = E.func d op;
            e_rank = E.rank d op;
            e_comm = comm;
            e_seq = Some (E.seq d op);
            e_reason = No_matching_recv;
            e_detail =
              (match dst with
              | Some w -> Printf.sprintf "to rank %d" w
              | None -> "destination unresolved");
            e_implicated =
              (match dst with
              | Some w -> List.sort_uniq compare [ E.rank d op; w ]
              | None -> []);
          };
        ]
      | Unmatched_recv op ->
        let comm = safe (fun () -> Some (E.int_arg d op 2)) in
        let never_returned = E.in_flight d op in
        let src =
          (* Only a completed blocking receive carries a recovered status
             we can trust; everything else leaves the sender unknown. *)
          if never_returned || E.func d op <> "MPI_Recv" then None
          else
            match comm with
            | Some c -> safe (fun () -> world ~comm:c (E.int_arg d op 4))
            | None -> None
        in
        [
          {
            e_func = E.func d op;
            e_rank = E.rank d op;
            e_comm = comm;
            e_seq = Some (E.seq d op);
            e_reason =
              (if never_returned then Never_completed else No_matching_send);
            e_detail =
              (match src with
              | Some w -> Printf.sprintf "from rank %d" w
              | None -> "source unresolved");
            e_implicated =
              (match src with
              | Some w -> List.sort_uniq compare [ E.rank d op; w ]
              | None -> []);
          };
        ])
    r.unmatched

let run ?(mode = D.Strict) d =
  let st =
    {
      d;
      ids = resolve d;
      mode;
      diags = [];
      events = [];
      unmatched = [];
      comms = Hashtbl.create 8;
      coll_seqs = Hashtbl.create 64;
      coll_arrays = [||];
      done_op = Intbuf.create ();
      done_end = Intbuf.create ();
      done_req = Intbuf.create ();
      done_err = [];
      first_done = None;
      last_comm = 0;
      last_ranks = [||];
    }
  in
  collect_completions st;
  match_collectives st;
  match_p2p st;
  {
    events = List.rev st.events;
    unmatched = List.rev st.unmatched;
    comm_ranks =
      Hashtbl.fold (fun id ranks acc -> (id, ranks) :: acc) st.comms []
      |> List.sort compare;
    diagnostics = List.rev st.diags;
  }
