(* Tests for HC4 revision: soundness (no solution is lost), contraction
   (results are sub-intervals of the inputs), specific projections, and the
   compiled kernel's bit-identity with the boxed reference ([Hc4_ref]). *)

open Adpm_interval
open Adpm_expr

let iv = Alcotest.testable Interval.pp Interval.equal

let env_of bindings name = List.assoc name bindings

(* After a successful [revise_kernel], the accumulators hold exactly the
   reference's narrowed floats, down to the sign of zero (slot [j] belongs
   to [k_vars.(j)]). *)
let kernel_agrees k ~var_id bs =
  List.for_all
    (fun (name, iv') ->
      let j = ref 0 in
      while k.Hc4.k_vars.(!j) <> var_id name do incr j done;
      Float.equal k.Hc4.k_acc_lo.(!j) (Interval.lo iv')
      && Float.equal k.Hc4.k_acc_hi.(!j) (Interval.hi iv'))
    bs

(* One hand-written case through both interpreters: the boxed reference
   and the production kernel ([compile] + [revise_kernel]) must agree bit
   for bit; the reference's result is returned for the case's own
   assertions. *)
let revise ~env e target =
  let names = Array.of_list (Expr.vars e) in
  let var_id x =
    let rec find j = if names.(j) = x then j else find (j + 1) in
    find 0
  in
  let k = Hc4.compile ~var_id e ~target in
  let lo = Array.map (fun x -> Interval.lo (env x)) names in
  let hi = Array.map (fun x -> Interval.hi (env x)) names in
  let ok = Hc4.revise_kernel k ~lo ~hi in
  let r = Hc4_ref.revise ~env e target in
  Alcotest.(check bool) "kernel agrees with the reference" true
    (match r with
    | Hc4_ref.Empty -> not ok
    | Hc4_ref.Narrowed bs -> ok && kernel_agrees k ~var_id bs);
  r

let narrowed = function
  | Hc4_ref.Narrowed bs -> bs
  | Hc4_ref.Empty -> Alcotest.fail "expected Narrowed"

let test_simple_le () =
  (* x + y <= 5 with x IN [0,10], y IN [2,3]:  x must be <= 3 *)
  let env = env_of [ ("x", Interval.make 0. 10.); ("y", Interval.make 2. 3.) ] in
  let expr = Expr.(Add (Var "x", Var "y")) in
  let bs = narrowed (revise ~env expr (Interval.make neg_infinity 5.)) in
  let x = List.assoc "x" bs in
  Alcotest.(check bool) "x hi narrowed to ~3" true
    (Interval.hi x >= 3. && Interval.hi x < 3.001);
  Alcotest.(check (float 1e-9)) "x lo unchanged" 0. (Interval.lo x)

let test_point_satisfied_not_empty () =
  (* the one-ulp regression: degenerate boxes satisfying the target must
     not project to Empty (requires the projection slack) *)
  let env = env_of [ ("ga", Interval.of_point 6.25); ("xa", Interval.of_point 7.5) ] in
  let expr =
    Expr.(Sub (Var "ga", Add (Mul (Const 2., Var "xa"), Const 0.4)))
  in
  match revise ~env expr (Interval.make neg_infinity 1e-9) with
  | Hc4_ref.Empty -> Alcotest.fail "satisfied point box must not be Empty"
  | Hc4_ref.Narrowed _ -> ()

let test_certain_violation_empty () =
  let env = env_of [ ("x", Interval.make 5. 6.) ] in
  let expr = Expr.Var "x" in
  (match revise ~env expr (Interval.make neg_infinity 4.) with
  | Hc4_ref.Empty -> ()
  | Hc4_ref.Narrowed _ -> Alcotest.fail "x IN [5,6] <= 4 must be Empty");
  match revise ~env (Expr.Sqrt (Expr.Neg expr)) Interval.full with
  | Hc4_ref.Empty -> ()
  | Hc4_ref.Narrowed _ -> Alcotest.fail "sqrt of negative box must be Empty"

let test_multiplication_projection () =
  (* x * y = 6, x IN [1,10], y IN [2,3] -> x IN [2,3] *)
  let env = env_of [ ("x", Interval.make 1. 10.); ("y", Interval.make 2. 3.) ] in
  let expr = Expr.(Mul (Var "x", Var "y")) in
  let bs = narrowed (revise ~env expr (Interval.of_point 6.)) in
  let x = List.assoc "x" bs in
  Alcotest.(check bool) "x within [2,3] (+slack)" true
    (Interval.lo x > 1.99 && Interval.hi x < 3.01)

let test_multiple_occurrences () =
  (* x + x = 4 -> x = 2 (each occurrence projects to [2 - w, 2 + w]
     where w comes from the other occurrence's width; occurrences
     intersect) *)
  let env = env_of [ ("x", Interval.make 0. 10.) ] in
  let expr = Expr.(Add (Var "x", Var "x")) in
  let bs = narrowed (revise ~env expr (Interval.of_point 4.)) in
  let x = List.assoc "x" bs in
  Alcotest.(check bool) "contains 2" true (Interval.mem 2. x);
  Alcotest.(check bool) "narrower than input" true (Interval.width x < 10.)

let test_min_max_projection () =
  (* min(x, y) >= 3 forces both above 3 *)
  let env = env_of [ ("x", Interval.make 0. 10.); ("y", Interval.make 0. 10.) ] in
  let expr = Expr.(Min (Var "x", Var "y")) in
  let bs = narrowed (revise ~env expr (Interval.make 3. infinity)) in
  Alcotest.(check bool) "x >= 3" true (Interval.lo (List.assoc "x" bs) >= 2.99);
  Alcotest.(check bool) "y >= 3" true (Interval.lo (List.assoc "y" bs) >= 2.99)

let test_unchanged_variables_included () =
  let env = env_of [ ("x", Interval.make 0. 1.); ("y", Interval.make 0. 1.) ] in
  let expr = Expr.(Add (Var "x", Var "y")) in
  let bs = narrowed (revise ~env expr Interval.full) in
  Alcotest.(check iv) "x unchanged" (Interval.make 0. 1.) (List.assoc "x" bs);
  Alcotest.(check iv) "y unchanged" (Interval.make 0. 1.) (List.assoc "y" bs)

(* {2 Property-based soundness: a random point solution is never lost} *)

let gen_case =
  QCheck.Gen.(
    let* x = float_range (-10.) 10. in
    let* y = float_range 0.1 10. in
    let* wx = float_range 0. 5. in
    let* wy = float_range 0. 5. in
    let* shape = int_range 0 5 in
    return (x, y, wx, wy, shape))

let shape_expr shape =
  let x = Expr.Var "x" and y = Expr.Var "y" in
  match shape with
  | 0 -> Expr.(Add (x, y))
  | 1 -> Expr.(Sub (Mul (x, y), Const 1.))
  | 2 -> Expr.(Add (Pow (x, 2), y))
  | 3 -> Expr.(Div (x, y))
  | 4 -> Expr.(Add (Abs x, Sqrt y))
  | _ -> Expr.(Max (x, Min (y, Const 3.)))

let hc4_preserves_solutions =
  QCheck.Test.make ~name:"HC4 never discards a witness point" ~count:1000
    (QCheck.make
       ~print:(fun (x, y, wx, wy, s) ->
         Printf.sprintf "x=%g y=%g wx=%g wy=%g shape=%d" x y wx wy s)
       gen_case)
    (fun (x, y, wx, wy, shape) ->
      let expr = shape_expr shape in
      let env =
        env_of
          [ ("x", Interval.make (x -. wx) (x +. wx));
            ("y", Interval.make (y -. wy) (y +. wy)) ]
      in
      let value = Expr.eval (env_of [ ("x", x); ("y", y) ]) expr in
      if not (Float.is_finite value) then true
      else begin
        (* target: an interval containing the witness value *)
        let target = Interval.make (value -. 0.5) (value +. 0.5) in
        match Hc4_ref.revise ~env expr target with
        | Hc4_ref.Empty -> false (* witness lost! *)
        | Hc4_ref.Narrowed bs ->
          let tolerance_mem v iv' =
            Interval.mem v (Interval.inflate (1e-9 *. (1. +. abs_float v)) iv')
          in
          tolerance_mem x (List.assoc "x" bs)
          && tolerance_mem y (List.assoc "y" bs)
      end)

let hc4_contracts =
  QCheck.Test.make ~name:"HC4 outputs are sub-intervals of inputs" ~count:500
    (QCheck.make
       ~print:(fun (x, y, wx, wy, s) ->
         Printf.sprintf "x=%g y=%g wx=%g wy=%g shape=%d" x y wx wy s)
       gen_case)
    (fun (x, y, wx, wy, shape) ->
      let expr = shape_expr shape in
      let xiv = Interval.make (x -. wx) (x +. wx) in
      let yiv = Interval.make (y -. wy) (y +. wy) in
      let env = env_of [ ("x", xiv); ("y", yiv) ] in
      match Hc4_ref.revise ~env expr (Interval.make (-5.) 5.) with
      | Hc4_ref.Empty -> true
      | Hc4_ref.Narrowed bs ->
        Interval.subset (List.assoc "x" bs) xiv
        && Interval.subset (List.assoc "y" bs) yiv)

(* {2 Compiled kernel: bit-identical to the boxed interpreter} *)

let shape_expr_k shape =
  let x = Expr.Var "x" and y = Expr.Var "y" in
  match shape with
  (* repeated occurrences exercise the accumulator intersection path *)
  | 6 -> Expr.(Add (x, x))
  | 7 -> Expr.(Mul (Add (x, y), Sub (x, y)))
  | 8 -> Expr.(Sub (Ln y, Neg x))
  | s -> shape_expr s

let gen_case_k =
  QCheck.Gen.(
    let* x = float_range (-10.) 10. in
    let* y = float_range 0.1 10. in
    let* wx = float_range 0. 5. in
    let* wy = float_range 0. 5. in
    let* shape = int_range 0 8 in
    return (x, y, wx, wy, shape))

let kernel_matches_boxed =
  QCheck.Test.make
    ~name:"compiled kernel is bit-identical to the boxed revise" ~count:2000
    (QCheck.make
       ~print:(fun (x, y, wx, wy, s) ->
         Printf.sprintf "x=%g y=%g wx=%g wy=%g shape=%d" x y wx wy s)
       gen_case_k)
    (fun (x, y, wx, wy, shape) ->
      let expr = shape_expr_k shape in
      let xiv = Interval.make (x -. wx) (x +. wx) in
      let yiv = Interval.make (y -. wy) (y +. wy) in
      let env = env_of [ ("x", xiv); ("y", yiv) ] in
      let target = Interval.make (-5.) 5. in
      let var_id = function "x" -> 0 | "y" -> 1 | n -> failwith n in
      let k = Hc4.compile ~var_id expr ~target in
      let lo = [| Interval.lo xiv; Interval.lo yiv |] in
      let hi = [| Interval.hi xiv; Interval.hi yiv |] in
      match (Hc4_ref.revise ~env expr target, Hc4.revise_kernel k ~lo ~hi) with
      | Hc4_ref.Empty, false -> true
      | Hc4_ref.Empty, true | Hc4_ref.Narrowed _, false -> false
      | Hc4_ref.Narrowed bs, true -> kernel_agrees k ~var_id bs)


(* {2 Zero allocation: the kernel's steady state allocates nothing} *)

(* Minor words per [revise_kernel] over [rounds] sweeps of [ks] against
   one store, after a warm-up sweep. *)
let words_per_revise ks ~lo ~hi =
  let sweep () =
    for i = 0 to Array.length ks - 1 do
      ignore (Hc4.revise_kernel ks.(i) ~lo ~hi : bool)
    done
  in
  sweep ();
  let rounds = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    sweep ()
  done;
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (rounds * Array.length ks)

let test_kernel_zero_alloc_scenarios () =
  List.iter
    (fun name ->
      let sc = Adpm_scenarios.Registry.resolve name in
      let net =
        Adpm_core.Dpm.network
          (sc.Adpm_teamsim.Scenario.sc_build ~mode:Adpm_core.Dpm.Adpm)
      in
      ignore (Adpm_csp.Propagate.run_incremental net : Adpm_csp.Propagate.outcome);
      let ps = Option.get (Adpm_csp.Network.prop_state net) in
      let ks =
        Array.map (Adpm_csp.Network.kernel net)
          (Adpm_csp.Network.constraint_array net)
      in
      Alcotest.(check (float 0.))
        (name ^ ": minor words per revise") 0.
        (words_per_revise ks ~lo:ps.Adpm_csp.Network.ps_lo
           ~hi:ps.Adpm_csp.Network.ps_hi))
    [ "sensor"; "receiver"; "gen:n=10,k=3,seed=2,topology=star" ]

(* Every opcode, on boxes that narrow, that leave the box alone and that
   turn the constraint Empty in the forward or the backward pass. *)
let test_kernel_zero_alloc_opcodes () =
  let x = Expr.Var "x" and y = Expr.Var "y" in
  let exprs =
    Expr.
      [
        Add (x, Neg y); Sub (Mul (x, y), Const 2.); Div (x, y); Div (y, x);
        Pow (x, 0); Pow (x, 2); Pow (x, 3); Pow (x, 4); Pow (Sub (x, y), 6);
        Sqrt x; Sqrt (Neg y); Exp x; Ln y; Ln (Neg y); Abs (Sub (x, y));
        Min (x, Mul (y, y)); Max (Neg x, y); Sub (Ln (Add (y, Const 1.)), Neg x);
      ]
  in
  let var_id = function "x" -> 0 | "y" -> 1 | n -> failwith n in
  List.iter
    (fun target ->
      let ks = Array.of_list (List.map (fun e -> Hc4.compile ~var_id e ~target) exprs) in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check (float 0.)) "minor words per revise" 0.
            (words_per_revise ks ~lo ~hi))
        [
          ([| -3.; 0.5 |], [| 4.; 2. |]);
          ([| 1.; 2. |], [| 1.; 2. |]);
          ([| neg_infinity; 0. |], [| infinity; 0. |]);
          ([| -5.; -2. |], [| -1.; 3. |]);
        ])
    [ Interval.make neg_infinity 0.; Interval.make (-1.) 1.; Interval.make 0.5 infinity ]

(* {2 Random expressions: kernel against the boxed interpreter}

   Expressions over every operator (any integer exponent up to 5, so
   [pow_int]'s repeated halving runs), and store boxes with infinite
   bounds, points, divisors touching or straddling zero — and, in one case
   in ten, a NaN or inverted bound, which only a store can hold. *)

let gen_expr_xyz =
  QCheck.Gen.(
    sized_size (int_range 1 12)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (3, oneofl Expr.[ Var "x"; Var "y"; Var "z" ]);
                 ( 1,
                   map
                     (fun c -> Expr.Const c)
                     (frequency
                        [
                          (3, float_range (-5.) 5.);
                          (1, oneofl [ 0.; -0.; infinity; neg_infinity ]);
                        ]) );
               ]
           in
           if n <= 1 then leaf
           else
             let sub = self (n / 2) and un = self (n - 1) in
             let bin f = map2 f sub sub and unary f = map f un in
             oneof
               [
                 bin (fun a b -> Expr.Add (a, b));
                 bin (fun a b -> Expr.Sub (a, b));
                 bin (fun a b -> Expr.Mul (a, b));
                 bin (fun a b -> Expr.Div (a, b));
                 bin (fun a b -> Expr.Min (a, b));
                 bin (fun a b -> Expr.Max (a, b));
                 unary (fun a -> Expr.Neg a);
                 unary (fun a -> Expr.Sqrt a);
                 unary (fun a -> Expr.Exp a);
                 unary (fun a -> Expr.Ln a);
                 unary (fun a -> Expr.Abs a);
                 map2 (fun a k -> Expr.Pow (a, k)) un (int_range 0 5);
               ]))

let gen_store_box =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a w -> (a, a +. w)) (float_range (-10.) 10.) (float_range 0. 10.));
        (1, map (fun a -> (a, a)) (float_range (-3.) 3.));
        (1, map (fun a -> (neg_infinity, a)) (float_range (-3.) 3.));
        (1, map (fun a -> (a, infinity)) (float_range (-3.) 3.));
        (1, return (neg_infinity, infinity));
        (1, oneofl [ (0., 0.); (-0., 0.); (0., 5.); (-5., 0.); (-5., -0.) ]);
        (1, oneofl [ (nan, 1.); (0., nan); (2., 1.) ]);
      ])

let kernel_matches_boxed_random =
  QCheck.Test.make
    ~name:"compiled kernel is bit-identical to the boxed revise (random expr)"
    ~count:2000
    (QCheck.make
       ~print:(fun (e, (tl, th), boxes) ->
         Printf.sprintf "%s IN [%h,%h] on %s" (Expr.to_string e) tl th
           (String.concat " "
              (List.map (fun (l, h) -> Printf.sprintf "[%h,%h]" l h) boxes)))
       QCheck.Gen.(
         triple gen_expr_xyz
           (oneofl
              [ (neg_infinity, 1e-9); (-1e-9, infinity); (-1e-9, 1e-9); (-2., 3.) ])
           (list_repeat 3 gen_store_box)))
    (fun (e, (tl, th), boxes) ->
      let valid = List.for_all (fun (l, h) -> l <= h) boxes in
      let var_id = function "x" -> 0 | "y" -> 1 | "z" -> 2 | n -> failwith n in
      let lo = Array.of_list (List.map fst boxes) in
      let hi = Array.of_list (List.map snd boxes) in
      let env x = Interval.make lo.(var_id x) hi.(var_id x) in
      let target = Interval.make tl th in
      let k = Hc4.compile ~var_id e ~target in
      (not valid)
      ||
      match Hc4_ref.revise ~env e target with
      | exception Invalid_argument _ ->
        (* a NaN projection the boxed path rejects; nothing to compare *)
        true
      | Hc4_ref.Empty -> not (Hc4.revise_kernel k ~lo ~hi)
      | Hc4_ref.Narrowed bs ->
        Hc4.revise_kernel k ~lo ~hi && kernel_agrees k ~var_id bs)

let suite =
  [
    ("simple inequality projection", `Quick, test_simple_le);
    ("satisfied point box is not Empty", `Quick, test_point_satisfied_not_empty);
    ("certain violation is Empty", `Quick, test_certain_violation_empty);
    ("multiplication projection", `Quick, test_multiplication_projection);
    ("multiple occurrences intersect", `Quick, test_multiple_occurrences);
    ("min/max projection", `Quick, test_min_max_projection);
    ("unchanged variables included", `Quick, test_unchanged_variables_included);
    QCheck_alcotest.to_alcotest hc4_preserves_solutions;
    QCheck_alcotest.to_alcotest hc4_contracts;
    QCheck_alcotest.to_alcotest kernel_matches_boxed;
    QCheck_alcotest.to_alcotest kernel_matches_boxed_random;
    ("kernel sweep allocates nothing (scenarios)", `Quick,
     test_kernel_zero_alloc_scenarios);
    ("kernel sweep allocates nothing (every opcode)", `Quick,
     test_kernel_zero_alloc_opcodes);
  ]
