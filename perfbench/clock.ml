(* Monotonic wall clock (CLOCK_MONOTONIC through bechamel's stub: a
   noalloc call returning unboxed nanoseconds). *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let since t0 = now () -. t0
