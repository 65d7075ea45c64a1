type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations, Welford *)
  mutable min_v : float;
  mutable max_v : float;
  mutable sum : float;
  mutable samples : float array;
      (* insertion order in the first [n] slots; unboxed, 8 bytes a sample *)
  mutable sorted : float array option; (* quantile cache, cleared on add *)
}

let create () =
  {
    n = 0;
    mean = 0.;
    m2 = 0.;
    min_v = nan;
    max_v = nan;
    sum = 0.;
    samples = [||];
    sorted = None;
  }

let add t x =
  if t.n = Array.length t.samples then begin
    let grown = Array.make (max 16 (2 * t.n)) 0. in
    Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  t.sum <- t.sum +. x;
  if t.n = 1 then begin
    t.min_v <- x;
    t.max_v <- x
  end else begin
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x
  end;
  t.sorted <- None

let add_int t x = add t (float_of_int x)

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min_value t = t.min_v

let max_value t = t.max_v

let total t = t.sum

let to_list t = List.init t.n (fun i -> t.samples.(i))

let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
    (* newest first: [Array.sort] is not stable, and this input order
       decides where equal keys such as -0. and 0. land *)
    let arr = Array.init t.n (fun i -> t.samples.(t.n - 1 - i)) in
    Array.sort Float.compare arr;
    t.sorted <- Some arr;
    arr

let quantile t q =
  if t.n = 0 then nan
  else begin
    let arr = sorted_samples t in
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let pos = q *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then arr.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end
  end

let median t = quantile t 0.5

let summary t =
  if t.n = 0 then "n=0"
  else
    Printf.sprintf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n (mean t)
      (stddev t) t.min_v t.max_v
