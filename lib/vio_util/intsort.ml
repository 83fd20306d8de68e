(* What the sort compares: the array's elements themselves, or the keys
   they index. A variant, not a closure, so the comparisons stay inline. *)
type by = Value | Key of int array

let key by x = match by with Value -> x | Key k -> Array.unsafe_get k x

let min_run = 32

(* Merge the sorted runs [src.(lo .. mid - 1)] and [src.(mid .. hi - 1)]
   into [dst.(lo .. hi - 1)]; on equal keys the left run's element goes
   first. *)
let merge by src lo mid hi dst =
  if key by src.(mid - 1) <= key by src.(mid) then
    Array.blit src lo dst lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid and o = ref lo in
    while !i < mid && !j < hi do
      let x = Array.unsafe_get src !i and y = Array.unsafe_get src !j in
      if key by x <= key by y then begin
        Array.unsafe_set dst !o x;
        incr i
      end
      else begin
        Array.unsafe_set dst !o y;
        incr j
      end;
      incr o
    done;
    Array.blit src !i dst !o (mid - !i);
    Array.blit src !j dst (!o + mid - !i) (hi - !j)
  end

let run by a =
  let n = Array.length a in
  if n > 1 then begin
    (* Every run but the last holds at least [min_run] elements. *)
    let starts = Array.make ((n / min_run) + 2) 0 in
    let nruns = ref 0 in
    let s = ref 0 in
    while !s < n do
      let j = ref (!s + 1) in
      while !j < n && key by a.(!j - 1) <= key by a.(!j) do
        incr j
      done;
      let stop = min n (!s + min_run) in
      while !j < stop do
        (* Insert a.(j) into the sorted a.(s .. j - 1), after equal keys. *)
        let x = a.(!j) in
        let kx = key by x in
        let p = ref (!j - 1) in
        while !p >= !s && key by a.(!p) > kx do
          a.(!p + 1) <- a.(!p);
          decr p
        done;
        a.(!p + 1) <- x;
        incr j
      done;
      starts.(!nruns) <- !s;
      incr nruns;
      s := !j
    done;
    starts.(!nruns) <- n;
    if !nruns > 1 then begin
      let src = ref a and dst = ref (Array.make n 0) in
      while !nruns > 1 do
        let merged = ref 0 in
        let r = ref 0 in
        while !r < !nruns do
          let lo = starts.(!r) in
          if !r + 1 < !nruns then
            merge by !src lo starts.(!r + 1) starts.(!r + 2) !dst
          else Array.blit !src lo !dst lo (n - lo);
          starts.(!merged) <- lo;
          incr merged;
          r := !r + 2
        done;
        starts.(!merged) <- n;
        nruns := !merged;
        let t = !src in
        src := !dst;
        dst := t
      done;
      if !src != a then Array.blit !src 0 a 0 n
    end
  end

let sort a = run Value a

let order keys =
  let p = Array.init (Array.length keys) Fun.id in
  run (Key keys) p;
  p
