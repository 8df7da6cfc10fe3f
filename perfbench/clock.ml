(* Monotonic time (CLOCK_MONOTONIC via bechamel's stub): never jumps with
   wall-clock adjustments, nanosecond resolution. *)

let now_ns () = Monotonic_clock.now ()

let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

(* [timed f] is [f ()] with its duration in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, s_between t0 (now_ns ()))
