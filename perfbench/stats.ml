(* Order statistics for latency samples.

   A tail percentile is reported only when the run holds at least
   [min_beyond] samples strictly beyond its rank: a p99 over 300 samples
   rests on 3 observations and would be noise. The median is not a tail
   and needs one sample. *)

let min_beyond = 10

(* nearest-rank: the smallest sample with at least [p] of the mass at or
   below it *)
let rank ~p n = max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let beyond ~p n = n - rank ~p n

let enough ~p n = n >= 1 && (p <= 0.5 || beyond ~p n >= min_beyond)

(* [pct ~p xs] is [Some (value, n)] when [xs] supports percentile [p]. *)
let pct ~p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if not (enough ~p n) then None
  else begin
    Array.sort Float.compare a;
    Some (a.(rank ~p n - 1), n)
  end

(* Smallest sample count for which [pct ~p] reports a value. *)
let needed ~p =
  let rec go n = if enough ~p n then n else go (n + 1) in
  go 1

let median xs = Option.map fst (pct ~p:0.5 xs)

let mean xs =
  match xs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
