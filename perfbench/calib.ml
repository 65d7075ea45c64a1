(* Host-speed calibration.

   A fixed piece of work that touches only the standard library, run
   interleaved with the measured work so that every measurement window
   knows how fast this host was running at that moment. On a shared
   2-vCPU VM the same code runs tens of percent faster or slower from
   one minute to the next; timings scaled by the calibration speed keep
   most of a change in the program and lose most of the drift of the
   host.

   The calibration must not feel the program, or it scales a change in
   the program away. So the unit allocates nothing (an allocating unit
   runs minor collections, and with them slices of the major-GC work the
   measured runs left behind), its table fits the first-level cache (so
   a program that evicts more does not slow it), and callers run a fixed
   number of units, not a share of the measured time (so a slower
   program does not make longer, better-warmed calibration slices). *)

(* 32 KiB of integers, read and written in a scattered order. *)
let table = Array.make (1 lsl 12) 0

(* One calibration unit: about 0.1 ms on the host the benchmark was
   written on. *)
let unit () =
  let mask = Array.length table - 1 in
  let h = ref 0 and acc = ref 0. in
  for i = 0 to 40_000 do
    let k = (i * 40_503) land mask in
    let v = Array.unsafe_get table k in
    Array.unsafe_set table k (v + i);
    h := (!h * 31) lxor v;
    if i land 7 = 0 then
      acc := !acc +. sqrt (float_of_int ((i lxor !h) land 0xffff))
  done;
  !h + int_of_float !acc

type t = {
  reference_rate : float;
      (** units per second of the host the benchmark was written on, at
          its typical speed: a time measured while the calibration ran
          at this rate is reported unscaled *)
  mutable units : int;
  mutable seconds : float;
}

let create ~reference_rate = { reference_rate; units = 0; seconds = 0. }

let reset t =
  t.units <- 0;
  t.seconds <- 0.

let run_units t k =
  for _ = 1 to k do
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (unit ()));
    t.seconds <- t.seconds +. Clock.since t0
  done;
  t.units <- t.units + k

(* Units per second since the last [reset]. *)
let rate t = float_of_int t.units /. t.seconds

(* The factor that turns a time measured during the calibration into a
   time at the reference speed (a rate is divided by it). *)
let scale t = rate t /. t.reference_rate
