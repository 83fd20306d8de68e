let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let interpolate a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let pos = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let percentile p xs = interpolate (sorted xs) p

let min_beyond = 10

(* n * (1 - p/100) >= 10, scaled by 100 so that p90 of 100 samples is
   not lost to rounding. *)
let percentile_checked p xs =
  let n = List.length xs in
  if n > 0 && float_of_int n *. (100. -. p) >= float_of_int (100 * min_beyond) then
    Some (percentile p xs)
  else None

let median xs = percentile 50. xs

(* Python's statistics.quantiles(data, n=4), default 'exclusive' method,
   so that the steadiness report agrees to the last digit with spreads
   computed in Python. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then infinity else (q3 -. q1) /. Float.abs q2
