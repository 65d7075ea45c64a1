open Adpm_interval

exception Empty_projection

(* Plain floating-point arithmetic is used instead of outward rounding, so a
   backward projection can land one ulp away from a degenerate input box
   (e.g. [(a - b) + b <> a]); widen projections by a magnitude-relative
   epsilon before intersecting so that only real gaps produce Empty.

   The slack is per-bound, not per-interval: [t -> t -. slack t] and
   [t -> t +. slack t] are monotone in [t], so widening is isotone in the
   interval-inclusion order ([X subset Y] implies [widen X subset widen Y]).
   A per-interval slack taken from the largest finite magnitude is *not*
   isotone — a projection with one infinite bound gets a smaller slack than
   a tighter all-finite one — and propagation relies on isotonicity for its
   fixpoint to be independent of revision order (the incremental engine's
   restarts must converge to bit-identical boxes). *)
let[@inline] bound_slack t =
  (* [1e-11 *. Float.max 1.0 (Float.abs t)], which for a finite [t] (the
     only kind widened) is this comparison: no NaN, no [-0.] to order, and
     no [Float.max] sign-bit calls *)
  let a = Float.abs t in
  1e-11 *. if a > 1.0 then a else 1.0

(* {2 Compiled flat kernel}

   The textbook HC4 interpreter — kept as the test reference,
   [test/hc4_ref.ml], and called "the boxed path" below, its functions
   [annotate]/[meet]/[back]/[record] "boxed" — allocates an annotated
   tree, a narrowings hash table and a binding list on every call. A
   revision runs millions of times per simulation sweep, so the kernel
   compiles an expression once into a postorder opcode array plus
   preallocated scratch, and a revision is two array sweeps over floats
   that allocate nothing at all.

   Allocation-freedom in a non-flambda build rests on three rules, and a
   test gates it (a steady-state sweep allocates 0 minor words):
   - no float crosses a call that is not inlined: the projected bounds
     handed to [meet] travel through the all-float [k_tmp] record, and the
     float-argument helpers are [@inline] (a plain call would box every
     argument);
   - no closure is built per call: [forward], [meet] and [back] are
     top-level functions of the kernel, and the odd-power root and the
     [pow_int] halving are inlined code, not local functions;
   - comparisons are monomorphic: [min]/[max] below shadow the
     polymorphic ones, which go through [caml_compare].

   Bit-identity with the boxed path is load-bearing: the incremental engine's
   equivalence argument and the parallel-agreement fingerprints both assume
   the fixpoint is a function of the constraint system only. Every float
   formula below therefore mirrors the corresponding [Interval] operation
   literally (including the [prod] 0*inf convention and the branch
   structure of [div] and [pow_int]), the backward pass recurses in the
   same a-then-b order, and [intersect]/[widen] are applied with the same
   operand order. QCheck suites pin [revise_kernel] against the boxed
   reference. *)

(* The polymorphic [Stdlib.min]/[Stdlib.max] at type float, without the
   [caml_compare] call: same results on NaN and signed zeros. Not
   [Float.min]/[Float.max], whose NaN and [-0.] rules differ. *)
let[@inline] min (a : float) b = if a <= b then a else b
let[@inline] max (a : float) b = if a >= b then a else b

(* All-float record: fields are stored flat, so mutating it does not
   allocate. The two-float channel between the kernel's steps: the result
   of [div]/[mul]/[pow], and the projection handed to [meet]. *)
type fpair = { mutable rlo : float; mutable rhi : float }

type kernel = {
  k_op : int array;  (** opcode per node, postorder (root last) *)
  k_a : int array;  (** child index / var slot / constant slot *)
  k_b : int array;  (** second child index / integer exponent *)
  k_cval : float array;  (** constant pool *)
  k_vars : int array;
      (** distinct variable ids ([var_id] image), {!Expr.vars} order *)
  k_flo : float array;  (** forward-pass scratch, per node *)
  k_fhi : float array;
  k_blo : float array;  (** backward-pass target scratch, per node *)
  k_bhi : float array;
  k_acc_lo : float array;  (** per-variable narrowing accumulator, per slot *)
  k_acc_hi : float array;
  k_tmp : fpair;
  k_tlo : float;  (** constraint target *)
  k_thi : float;
}

let op_const = 0
let op_var = 1
let op_neg = 2
let op_add = 3
let op_sub = 4
let op_mul = 5
let op_div = 6
let op_pow = 7
let op_sqrt = 8
let op_exp = 9
let op_ln = 10
let op_abs = 11
let op_min = 12
let op_max = 13

let compile ~var_id e ~target =
  let n = Expr.size e in
  let op = Array.make n 0 and pa = Array.make n 0 and pb = Array.make n 0 in
  let consts = ref [] and n_consts = ref 0 in
  let names = Expr.vars e in
  let n_slots = List.length names in
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri (fun i x -> Hashtbl.replace slot_of x i) names;
  let next = ref 0 in
  let emit o a b =
    let i = !next in
    op.(i) <- o;
    pa.(i) <- a;
    pb.(i) <- b;
    incr next;
    i
  in
  let rec go = function
    | Expr.Const c ->
      (* the boxed evaluators lift constants with [Interval.of_point]:
         reject a NaN constant the same way *)
      ignore (Interval.of_point c : Interval.t);
      let ci = !n_consts in
      consts := c :: !consts;
      incr n_consts;
      emit op_const ci 0
    | Expr.Var x -> emit op_var (Hashtbl.find slot_of x) 0
    | Expr.Neg a -> un op_neg a
    | Expr.Sqrt a -> un op_sqrt a
    | Expr.Exp a -> un op_exp a
    | Expr.Ln a -> un op_ln a
    | Expr.Abs a -> un op_abs a
    | Expr.Pow (a, k) ->
      if k < 0 then invalid_arg "Hc4.compile: negative exponent";
      let ia = go a in
      emit op_pow ia k
    | Expr.Add (a, b) -> bin op_add a b
    | Expr.Sub (a, b) -> bin op_sub a b
    | Expr.Mul (a, b) -> bin op_mul a b
    | Expr.Div (a, b) -> bin op_div a b
    | Expr.Min (a, b) -> bin op_min a b
    | Expr.Max (a, b) -> bin op_max a b
  and un o a =
    let ia = go a in
    emit o ia 0
  and bin o a b =
    let ia = go a in
    let ib = go b in
    emit o ia ib
  in
  let root = go e in
  assert (root = n - 1);
  {
    k_op = op;
    k_a = pa;
    k_b = pb;
    k_cval = Array.of_list (List.rev !consts);
    k_vars = Array.of_list (List.map var_id names);
    k_flo = Array.make n 0.;
    k_fhi = Array.make n 0.;
    k_blo = Array.make n 0.;
    k_bhi = Array.make n 0.;
    k_acc_lo = Array.make (Int.max 1 n_slots) 0.;
    k_acc_hi = Array.make (Int.max 1 n_slots) 0.;
    k_tmp = { rlo = 0.; rhi = 0. };
    k_tlo = Interval.lo target;
    k_thi = Interval.hi target;
  }

(* Float mirrors of the [Interval] operations. Branches and operand order
   are copied verbatim so results (including NaN flows and signed zeros)
   are bitwise those of the boxed path. *)

let[@inline] prod_f x y =
  if (x = 0. && not (Float.is_finite y)) || (y = 0. && not (Float.is_finite x))
  then 0.
  else x *. y

let[@inline] mul_into buf alo ahi blo bhi =
  let p1 = prod_f alo blo and p2 = prod_f alo bhi in
  let p3 = prod_f ahi blo and p4 = prod_f ahi bhi in
  buf.rlo <- min (min p1 p2) (min p3 p4);
  buf.rhi <- max (max p1 p2) (max p3 p4)

let[@inline] div_into buf alo ahi blo bhi =
  if blo > 0. || bhi < 0. then begin
    let p1 = alo /. blo and p2 = alo /. bhi in
    let p3 = ahi /. blo and p4 = ahi /. bhi in
    buf.rlo <- min (min p1 p2) (min p3 p4);
    buf.rhi <- max (max p1 p2) (max p3 p4)
  end
  else if blo = 0. && bhi = 0. then begin
    buf.rlo <- neg_infinity;
    buf.rhi <- infinity
  end
  else if blo = 0. then
    if alo >= 0. then begin
      buf.rlo <- alo /. bhi;
      buf.rhi <- infinity
    end
    else if ahi <= 0. then begin
      buf.rlo <- neg_infinity;
      buf.rhi <- ahi /. bhi
    end
    else begin
      buf.rlo <- neg_infinity;
      buf.rhi <- infinity
    end
  else if bhi = 0. then
    if alo >= 0. then begin
      buf.rlo <- neg_infinity;
      buf.rhi <- alo /. blo
    end
    else if ahi <= 0. then begin
      buf.rlo <- ahi /. blo;
      buf.rhi <- infinity
    end
    else begin
      buf.rlo <- neg_infinity;
      buf.rhi <- infinity
    end
  else begin
    buf.rlo <- neg_infinity;
    buf.rhi <- infinity
  end

(* [Interval.pow_int] unrolled: its recursion folds the base onto its
   absolute value once per halving of an even exponent, takes the base case
   (0: [1,1]; 1: the base itself; odd: bound-wise power), then squares the
   result once per halving on the way back up. The loop keeps the base in
   [buf], so no float crosses a recursive call. *)
let[@inline] pow_into buf alo ahi n =
  buf.rlo <- alo;
  buf.rhi <- ahi;
  let n = ref n and halvings = ref 0 in
  while !n >= 2 && !n mod 2 = 0 do
    let lo = buf.rlo and hi = buf.rhi in
    if lo > 0. then ()
    else if hi < 0. then begin
      buf.rlo <- -.hi;
      buf.rhi <- -.lo
    end
    else begin
      buf.rlo <- 0.;
      buf.rhi <- max (abs_float lo) (abs_float hi)
    end;
    n := !n / 2;
    incr halvings
  done;
  if !n = 0 then begin
    buf.rlo <- 1.;
    buf.rhi <- 1.
  end
  else if !n > 1 then begin
    let lo = buf.rlo and hi = buf.rhi in
    buf.rlo <- lo ** float_of_int !n;
    buf.rhi <- hi ** float_of_int !n
  end;
  for _ = 1 to !halvings do
    let lo = buf.rlo and hi = buf.rhi in
    mul_into buf lo hi lo hi
  done

let[@inline] wlo_f t = if Float.is_finite t then t -. bound_slack t else t
let[@inline] whi_f t = if Float.is_finite t then t +. bound_slack t else t

(* [Interval.inv_pow_int]'s real root of an odd power *)
let[@inline] odd_root ex x =
  if Float.is_finite x then begin
    let r = abs_float x ** (1. /. float_of_int ex) in
    if x < 0. then -.r else r
  end
  else x

(* Copy the store bounds of the kernel's variables into its accumulator
   slots, which the forward pass reads and the backward pass narrows. *)
let load k ~lo ~hi =
  let vars = k.k_vars and acc_lo = k.k_acc_lo and acc_hi = k.k_acc_hi in
  for j = 0 to Array.length vars - 1 do
    let v = vars.(j) in
    acc_lo.(j) <- lo.(v);
    acc_hi.(j) <- hi.(v)
  done

(* The forward sweep: each node's interval from its children's, the boxed
   [annotate]. Raises [Empty_projection] where [annotate] does (a [sqrt] or
   [ln] argument outside the domain). *)
let forward k =
  let op = k.k_op and pa = k.k_a and pb = k.k_b in
  let flo = k.k_flo and fhi = k.k_fhi in
  let acc_lo = k.k_acc_lo and acc_hi = k.k_acc_hi and tmp = k.k_tmp in
  for i = 0 to Array.length op - 1 do
    let o = op.(i) in
    if o = op_const then begin
      let c = k.k_cval.(pa.(i)) in
      flo.(i) <- c;
      fhi.(i) <- c
    end
    else if o = op_var then begin
      let j = pa.(i) in
      flo.(i) <- acc_lo.(j);
      fhi.(i) <- acc_hi.(j)
    end
    else if o = op_neg then begin
      let ia = pa.(i) in
      flo.(i) <- -.fhi.(ia);
      fhi.(i) <- -.flo.(ia)
    end
    else if o = op_add then begin
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- flo.(ia) +. flo.(ib);
      fhi.(i) <- fhi.(ia) +. fhi.(ib)
    end
    else if o = op_sub then begin
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- flo.(ia) -. fhi.(ib);
      fhi.(i) <- fhi.(ia) -. flo.(ib)
    end
    else if o = op_mul then begin
      let ia = pa.(i) and ib = pb.(i) in
      mul_into tmp flo.(ia) fhi.(ia) flo.(ib) fhi.(ib);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_div then begin
      let ia = pa.(i) and ib = pb.(i) in
      div_into tmp flo.(ia) fhi.(ia) flo.(ib) fhi.(ib);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_pow then begin
      let ia = pa.(i) in
      pow_into tmp flo.(ia) fhi.(ia) pb.(i);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_sqrt then begin
      let ia = pa.(i) in
      if fhi.(ia) < 0. then raise_notrace Empty_projection;
      flo.(i) <- sqrt (max 0. flo.(ia));
      fhi.(i) <- sqrt fhi.(ia)
    end
    else if o = op_exp then begin
      let ia = pa.(i) in
      flo.(i) <- exp flo.(ia);
      fhi.(i) <- exp fhi.(ia)
    end
    else if o = op_ln then begin
      let ia = pa.(i) in
      if fhi.(ia) <= 0. then raise_notrace Empty_projection;
      flo.(i) <- (if flo.(ia) <= 0. then neg_infinity else log flo.(ia));
      fhi.(i) <- log fhi.(ia)
    end
    else if o = op_abs then begin
      let ia = pa.(i) in
      if flo.(ia) >= 0. then begin
        flo.(i) <- flo.(ia);
        fhi.(i) <- fhi.(ia)
      end
      else if fhi.(ia) <= 0. then begin
        flo.(i) <- -.fhi.(ia);
        fhi.(i) <- -.flo.(ia)
      end
      else begin
        flo.(i) <- 0.;
        fhi.(i) <- max (-.flo.(ia)) fhi.(ia)
      end
    end
    else if o = op_min then begin
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- min flo.(ia) flo.(ib);
      fhi.(i) <- min fhi.(ia) fhi.(ib)
    end
    else begin
      (* op_max *)
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- max flo.(ia) flo.(ib);
      fhi.(i) <- max fhi.(ia) fhi.(ib)
    end
  done

(* [meet k i]: widen the projection held in [k_tmp] and intersect it with
   node [i]'s forward interval into node [i]'s backward target, exactly as
   the boxed [meet]. *)
let meet k i =
  let tmp = k.k_tmp in
  let wl = wlo_f tmp.rlo and wh = whi_f tmp.rhi in
  let nl = max k.k_flo.(i) wl and nh = min k.k_fhi.(i) wh in
  if nl > nh then raise_notrace Empty_projection;
  k.k_blo.(i) <- nl;
  k.k_bhi.(i) <- nh

(* [project k i plo phi] is [meet] on the projection [plo, phi]. A bound
   chosen by an [if] with a global constant in one branch ([infinity]) is
   stored into [k_tmp] directly instead: let-bound as an argument here, it
   would be boxed. *)
let[@inline] project k i plo phi =
  k.k_tmp.rlo <- plo;
  k.k_tmp.rhi <- phi;
  meet k i

(* The backward sweep from node [i], whose target is already inside its
   forward interval: the boxed [back]. *)
let rec back k i =
  let pa = k.k_a and pb = k.k_b in
  let flo = k.k_flo and fhi = k.k_fhi in
  let blo = k.k_blo and bhi = k.k_bhi and tmp = k.k_tmp in
  let o = k.k_op.(i) in
  if o = op_const then ()
  else if o = op_var then begin
    (* boxed [record]: widen, then intersect with the accumulator *)
    let j = pa.(i) in
    let acc_lo = k.k_acc_lo and acc_hi = k.k_acc_hi in
    let wl = wlo_f blo.(i) and wh = whi_f bhi.(i) in
    let nl = max acc_lo.(j) wl and nh = min acc_hi.(j) wh in
    if nl > nh then raise_notrace Empty_projection;
    acc_lo.(j) <- nl;
    acc_hi.(j) <- nh
  end
  else if o = op_neg then begin
    let ia = pa.(i) in
    project k ia (-.bhi.(i)) (-.blo.(i));
    back k ia
  end
  else if o = op_add then begin
    let ia = pa.(i) and ib = pb.(i) in
    project k ia (blo.(i) -. fhi.(ib)) (bhi.(i) -. flo.(ib));
    back k ia;
    project k ib (blo.(i) -. fhi.(ia)) (bhi.(i) -. flo.(ia));
    back k ib
  end
  else if o = op_sub then begin
    let ia = pa.(i) and ib = pb.(i) in
    project k ia (blo.(i) +. flo.(ib)) (bhi.(i) +. fhi.(ib));
    back k ia;
    project k ib (flo.(ia) -. bhi.(i)) (fhi.(ia) -. blo.(i));
    back k ib
  end
  else if o = op_mul then begin
    let ia = pa.(i) and ib = pb.(i) in
    div_into tmp blo.(i) bhi.(i) flo.(ib) fhi.(ib);
    meet k ia;
    back k ia;
    div_into tmp blo.(i) bhi.(i) flo.(ia) fhi.(ia);
    meet k ib;
    back k ib
  end
  else if o = op_div then begin
    let ia = pa.(i) and ib = pb.(i) in
    mul_into tmp blo.(i) bhi.(i) flo.(ib) fhi.(ib);
    meet k ia;
    back k ia;
    div_into tmp flo.(ia) fhi.(ia) blo.(i) bhi.(i);
    meet k ib;
    back k ib
  end
  else if o = op_pow then begin
    let ia = pa.(i) and ex = pb.(i) in
    let zlo = blo.(i) and zhi = bhi.(i) in
    if ex = 0 then project k ia neg_infinity infinity
    else if ex mod 2 = 1 then project k ia (odd_root ex zlo) (odd_root ex zhi)
    else if zhi < 0. then raise_notrace Empty_projection
    else begin
      let r =
        if Float.is_finite zhi then zhi ** (1. /. float_of_int ex)
        else infinity
      in
      project k ia (-.r) r
    end;
    back k ia
  end
  else if o = op_sqrt then begin
    let ia = pa.(i) in
    if bhi.(i) < 0. then raise_notrace Empty_projection;
    let l = max 0. blo.(i) in
    tmp.rlo <- l *. l;
    tmp.rhi <- (if Float.is_finite bhi.(i) then bhi.(i) *. bhi.(i) else infinity);
    meet k ia;
    back k ia
  end
  else if o = op_exp then begin
    let ia = pa.(i) in
    if bhi.(i) <= 0. then raise_notrace Empty_projection;
    tmp.rlo <- (if blo.(i) <= 0. then neg_infinity else log blo.(i));
    tmp.rhi <- (if Float.is_finite bhi.(i) then log bhi.(i) else infinity);
    meet k ia;
    back k ia
  end
  else if o = op_ln then begin
    let ia = pa.(i) in
    tmp.rlo <- (if Float.is_finite blo.(i) then exp blo.(i) else 0.);
    tmp.rhi <- (if Float.is_finite bhi.(i) then exp bhi.(i) else infinity);
    meet k ia;
    back k ia
  end
  else if o = op_abs then begin
    let ia = pa.(i) in
    let h = max 0. bhi.(i) in
    project k ia (-.h) h;
    back k ia
  end
  else if o = op_min then begin
    let ia = pa.(i) and ib = pb.(i) in
    (* an argument is bounded above only when the other certainly
       exceeds the target (boxed A_min case) *)
    if flo.(ib) > bhi.(i) then project k ia blo.(i) bhi.(i)
    else project k ia blo.(i) infinity;
    back k ia;
    if flo.(ia) > bhi.(i) then project k ib blo.(i) bhi.(i)
    else project k ib blo.(i) infinity;
    back k ib
  end
  else begin
    (* op_max *)
    let ia = pa.(i) and ib = pb.(i) in
    if fhi.(ib) < blo.(i) then project k ia blo.(i) bhi.(i)
    else project k ia neg_infinity bhi.(i);
    back k ia;
    if fhi.(ia) < blo.(i) then project k ib blo.(i) bhi.(i)
    else project k ib neg_infinity bhi.(i);
    back k ib
  end

let eval_kernel k ~lo ~hi =
  load k ~lo ~hi;
  match forward k with
  | () -> true
  | exception Empty_projection -> false

let revise_kernel k ~lo ~hi =
  load k ~lo ~hi;
  match
    forward k;
    let r = Array.length k.k_op - 1 in
    project k r k.k_tlo k.k_thi;
    back k r
  with
  | () -> true
  | exception Empty_projection -> false
