(* The boxed HC4 interpreter: the reference the compiled kernel
   ([Hc4.compile] + [Hc4.revise_kernel]) is pinned against, bit for bit.
   A forward sweep annotates every node of the expression tree with its
   interval, then a backward sweep projects the target onto each variable.
   It allocates an annotated tree, a narrowings table and a binding list
   per call, which is why production propagation runs the kernel. *)

open Adpm_interval
open Adpm_expr

type result = Empty | Narrowed of (string * Interval.t) list

(* Expression tree annotated with forward-evaluated intervals. *)
type anode = { shape : shape; fwd : Interval.t }

and shape =
  | A_const
  | A_var of string
  | A_neg of anode
  | A_add of anode * anode
  | A_sub of anode * anode
  | A_mul of anode * anode
  | A_div of anode * anode
  | A_pow of anode * int
  | A_sqrt of anode
  | A_exp of anode
  | A_ln of anode
  | A_abs of anode
  | A_min of anode * anode
  | A_max of anode * anode

exception Empty_projection

let annotate env e =
  let rec go e =
    match e with
    | Expr.Const c -> { shape = A_const; fwd = Interval.of_point c }
    | Expr.Var x -> { shape = A_var x; fwd = env x }
    | Expr.Neg a ->
      let na = go a in
      { shape = A_neg na; fwd = Interval.neg na.fwd }
    | Expr.Add (a, b) -> bin Interval.add (fun x y -> A_add (x, y)) a b
    | Expr.Sub (a, b) -> bin Interval.sub (fun x y -> A_sub (x, y)) a b
    | Expr.Mul (a, b) -> bin Interval.mul (fun x y -> A_mul (x, y)) a b
    | Expr.Div (a, b) -> bin Interval.div (fun x y -> A_div (x, y)) a b
    | Expr.Pow (a, n) ->
      let na = go a in
      { shape = A_pow (na, n); fwd = Interval.pow_int na.fwd n }
    | Expr.Sqrt a ->
      let na = go a in
      (match Interval.sqrt_i na.fwd with
      | None -> raise Empty_projection
      | Some iv -> { shape = A_sqrt na; fwd = iv })
    | Expr.Exp a ->
      let na = go a in
      { shape = A_exp na; fwd = Interval.exp_i na.fwd }
    | Expr.Ln a ->
      let na = go a in
      (match Interval.ln_i na.fwd with
      | None -> raise Empty_projection
      | Some iv -> { shape = A_ln na; fwd = iv })
    | Expr.Abs a ->
      let na = go a in
      { shape = A_abs na; fwd = Interval.abs_i na.fwd }
    | Expr.Min (a, b) -> bin Interval.min_i (fun x y -> A_min (x, y)) a b
    | Expr.Max (a, b) -> bin Interval.max_i (fun x y -> A_max (x, y)) a b
  and bin op mk a b =
    let na = go a and nb = go b in
    { shape = mk na nb; fwd = op na.fwd nb.fwd }
  in
  go e

(* projections are widened by [Hc4.bound_slack] per finite bound; see
   there for why the slack is per-bound *)
let widen iv =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  let lo = if Float.is_finite lo then lo -. Hc4.bound_slack lo else lo in
  let hi = if Float.is_finite hi then hi +. Hc4.bound_slack hi else hi in
  Interval.make lo hi

let revise ~env e target =
  let narrowings : (string, Interval.t) Hashtbl.t = Hashtbl.create 8 in
  let record x iv =
    let iv = widen iv in
    let cur = try Hashtbl.find narrowings x with Not_found -> env x in
    match Interval.intersect cur iv with
    | None -> raise Empty_projection
    | Some res -> Hashtbl.replace narrowings x res
  in
  let meet node tgt =
    let tgt = widen tgt in
    match Interval.intersect node.fwd tgt with
    | None -> raise Empty_projection
    | Some iv -> iv
  in
  (* [back node tgt] assumes [tgt] is already inside the node's forward
     interval. *)
  let rec back node tgt =
    match node.shape with
    | A_const -> ()
    | A_var x -> record x tgt
    | A_neg a -> back a (meet a (Interval.neg tgt))
    | A_add (a, b) ->
      back a (meet a (Interval.inv_add_left tgt b.fwd));
      back b (meet b (Interval.inv_add_left tgt a.fwd))
    | A_sub (a, b) ->
      back a (meet a (Interval.inv_sub_left tgt b.fwd));
      back b (meet b (Interval.inv_sub_right tgt a.fwd))
    | A_mul (a, b) ->
      back a (meet a (Interval.inv_mul tgt b.fwd));
      back b (meet b (Interval.inv_mul tgt a.fwd))
    | A_div (a, b) ->
      back a (meet a (Interval.inv_div_left tgt b.fwd));
      back b (meet b (Interval.inv_div_right tgt a.fwd))
    | A_pow (a, n) -> (
      match Interval.inv_pow_int tgt n with
      | None -> raise Empty_projection
      | Some pre -> back a (meet a pre))
    | A_sqrt a -> (
      match Interval.inv_sqrt tgt with
      | None -> raise Empty_projection
      | Some pre -> back a (meet a pre))
    | A_exp a -> (
      match Interval.inv_exp tgt with
      | None -> raise Empty_projection
      | Some pre -> back a (meet a pre))
    | A_ln a -> back a (meet a (Interval.inv_ln tgt))
    | A_abs a -> back a (meet a (Interval.inv_abs tgt))
    | A_min (a, b) ->
      (* Both arguments are >= tgt.lo; an argument is additionally <= tgt.hi
         when the other is certainly above tgt.hi (it must then realise the
         minimum). *)
      let floor_only = Interval.make (Interval.lo tgt) infinity in
      let bound child other =
        if Interval.lo other.fwd > Interval.hi tgt then meet child tgt
        else meet child floor_only
      in
      back a (bound a b);
      back b (bound b a)
    | A_max (a, b) ->
      let ceil_only = Interval.make neg_infinity (Interval.hi tgt) in
      let bound child other =
        if Interval.hi other.fwd < Interval.lo tgt then meet child tgt
        else meet child ceil_only
      in
      back a (bound a b);
      back b (bound b a)
  in
  match
    let root = annotate env e in
    let tgt = meet root target in
    back root tgt
  with
  | () ->
    let out =
      List.map
        (fun x ->
          let iv = try Hashtbl.find narrowings x with Not_found -> env x in
          (x, iv))
        (Expr.vars e)
    in
    Narrowed out
  | exception Empty_projection -> Empty
