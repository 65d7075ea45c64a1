(* Tests for Adpm_csp: constraint status semantics, the network store,
   propagation to fixpoint, AC-3, and the heuristic backtracking search. *)

open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp

let v = Expr.var
let c = Expr.const

let status = Alcotest.testable Constr.pp_status ( = )
let dom = Alcotest.testable Domain.pp Domain.equal

(* {2 Constr} *)

let mk rel lhs rhs = Constr.make ~id:0 ~name:"c" lhs rel rhs

let test_constr_args () =
  let con = mk Constr.Le Expr.(v "a" + v "b") Expr.(v "b" + v "d") in
  Alcotest.(check (list string)) "dedup order" [ "a"; "b"; "d" ] (Constr.args con);
  Alcotest.(check int) "arity" 3 (Constr.arity con)

let test_check_point () =
  let con = mk Constr.Le Expr.(v "x" + c 1.) (c 3.) in
  let env2 = function "x" -> 2. | _ -> nan in
  let env3 = function "x" -> 3. | _ -> nan in
  Alcotest.(check bool) "2+1 <= 3" true (Constr.check_point env2 con);
  Alcotest.(check bool) "3+1 <= 3 fails" false (Constr.check_point env3 con);
  (* equality with tolerance *)
  let eq = mk Constr.Eq (v "x") (c 2.) in
  Alcotest.(check bool) "eq holds" true (Constr.check_point env2 eq);
  Alcotest.(check bool) "eq near-miss with eps" true
    (Constr.check_point ~eps:0.5 env3 (mk Constr.Eq (v "x") (c 2.6)))

let test_status_on_box () =
  let box_env lo hi = function "x" -> Interval.make lo hi | _ -> raise Not_found in
  let con = mk Constr.Le (v "x") (c 5.) in
  Alcotest.(check status) "satisfied" Constr.Satisfied
    (Constr.status_on_box (box_env 0. 5.) con);
  Alcotest.(check status) "violated" Constr.Violated
    (Constr.status_on_box (box_env 6. 7.) con);
  Alcotest.(check status) "consistent" Constr.Consistent
    (Constr.status_on_box (box_env 4. 6.) con);
  (* undefined everywhere => violated *)
  let sqrt_con = mk Constr.Ge (Expr.Sqrt (v "x")) (c 0.) in
  Alcotest.(check status) "undefined is violated" Constr.Violated
    (Constr.status_on_box (box_env (-4.) (-1.)) sqrt_con)

let test_eq_status () =
  let box_env lo hi = function "x" -> Interval.make lo hi | _ -> raise Not_found in
  let eq = mk Constr.Eq (v "x") (c 2.) in
  Alcotest.(check status) "point eq satisfied" Constr.Satisfied
    (Constr.status_on_box (box_env 2. 2.) eq);
  Alcotest.(check status) "range eq consistent" Constr.Consistent
    (Constr.status_on_box (box_env 1. 3.) eq);
  Alcotest.(check status) "disjoint eq violated" Constr.Violated
    (Constr.status_on_box (box_env 3. 4.) eq)

(* {2 Network} *)

let small_net () =
  let net = Network.create () in
  Network.add_prop net "x" (Domain.continuous 0. 10.);
  Network.add_prop net "y" (Domain.continuous 0. 10.);
  Network.add_prop net "lvl" (Domain.symbolic [ "hi"; "lo" ]);
  let c1 = Network.add_constraint net ~name:"sum" Expr.(v "x" + v "y") Constr.Le (c 12.) in
  let c2 = Network.add_constraint net ~name:"xmin" (v "x") Constr.Ge (c 2.) in
  (net, c1, c2)

let test_network_basics () =
  let net, c1, c2 = small_net () in
  Alcotest.(check (list string)) "prop order" [ "x"; "y"; "lvl" ]
    (Network.prop_names net);
  Alcotest.(check int) "constraint count" 2 (Network.constraint_count net);
  Alcotest.(check int) "beta x" 2 (Network.beta net "x");
  Alcotest.(check int) "beta y" 1 (Network.beta net "y");
  Alcotest.(check bool) "adjacency" true
    (List.exists (fun cc -> cc.Constr.id = c1.Constr.id) (Network.constraints_of_prop net "x"));
  Alcotest.(check bool) "c2 touches only x" true
    (Network.constraints_of_prop net "y"
    |> List.for_all (fun cc -> cc.Constr.id <> c2.Constr.id))

let test_network_validation () =
  let net, _, _ = small_net () in
  Alcotest.(check bool) "duplicate prop rejected" true
    (try
       Network.add_prop net "x" (Domain.continuous 0. 1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown constraint prop rejected" true
    (try
       ignore (Network.add_constraint net ~name:"bad" (v "zz") Constr.Le (c 0.));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "symbolic prop in constraint rejected" true
    (try
       ignore (Network.add_constraint net ~name:"bad" (v "lvl") Constr.Le (c 0.));
       false
     with Invalid_argument _ -> true)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_msg name expected f =
  match f () with
  | () -> Alcotest.failf "%s: expected an exception" name
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S appears in %S" name expected msg)
      true (contains msg expected)

let test_network_error_messages () =
  (* Lookup failures must name the missing entity, not just its kind:
     these messages are what a scenario author sees when a DDDL model
     references a property that was never declared. *)
  let net, _, _ = small_net () in
  check_msg "find_prop" "unknown property 'ghost'" (fun () ->
      ignore (Network.find_prop net "ghost"));
  check_msg "find_prop names the function" "Network.find_prop" (fun () ->
      ignore (Network.find_prop net "ghost"));
  check_msg "prop_id" "unknown property 'ghost'" (fun () ->
      ignore (Network.prop_id net "ghost"));
  check_msg "find_constraint" "unknown constraint id 99" (fun () ->
      ignore (Network.find_constraint net 99));
  check_msg "constraints_of_prop" "unknown property 'ghost'" (fun () ->
      ignore (Network.constraints_of_prop net "ghost"));
  check_msg "env_box unknown" "unknown property 'ghost'" (fun () ->
      ignore (Network.env_box net "ghost"));
  (* symbolic properties keep raising Unbound_variable (the HC4 contract:
     the environment has no box for them), not Invalid_argument *)
  Alcotest.(check bool) "env_box symbolic raises Unbound_variable" true
    (try
       ignore (Network.env_box net "lvl");
       false
     with Expr.Unbound_variable name -> name = "lvl")

let test_constr_args_memoized () =
  let con =
    mk Constr.Le Expr.(v "a" + (v "b" * v "a")) Expr.(v "b" + v "d")
  in
  let first = Constr.args con in
  Alcotest.(check (list string))
    "dedup'd lhs-then-rhs walk" [ "a"; "b"; "d" ] first;
  (* memoized: repeated calls return the same list physically *)
  Alcotest.(check bool) "same list physically" true (first == Constr.args con);
  Alcotest.(check (list string))
    "content stable across calls" [ "a"; "b"; "d" ] (Constr.args con)

let test_network_constraints_cached () =
  let net, c1, c2 = small_net () in
  let first = Network.constraints net in
  Alcotest.(check bool) "repeated call is physically equal" true
    (first == Network.constraints net);
  Alcotest.(check (list int)) "insertion order"
    [ c1.Constr.id; c2.Constr.id ]
    (List.map (fun cc -> cc.Constr.id) first);
  (* structural change invalidates: the cache must not serve a stale
     list that misses the new constraint *)
  let c3 = Network.add_constraint net ~name:"ymax" (v "y") Constr.Le (c 5.) in
  let after = Network.constraints net in
  Alcotest.(check bool) "add_constraint invalidates" true (first != after);
  Alcotest.(check (list int)) "new constraint present"
    [ c1.Constr.id; c2.Constr.id; c3.Constr.id ]
    (List.map (fun cc -> cc.Constr.id) after);
  Alcotest.(check bool) "fresh list cached again" true
    (after == Network.constraints net);
  (* adding a property also bumps the structural revision *)
  Network.add_prop net "z" (Domain.continuous 0. 1.);
  Alcotest.(check bool) "add_prop invalidates too" true
    (after != Network.constraints net)

let test_flat_views_dense () =
  let net, c1, c2 = small_net () in
  let carr = Network.constraint_array net in
  Alcotest.(check int) "constraint_array dense" 2 (Array.length carr);
  Alcotest.(check int) "slot 0 is its id" c1.Constr.id carr.(0).Constr.id;
  Alcotest.(check int) "slot 1 is its id" c2.Constr.id carr.(1).Constr.id;
  let adj = Network.adjacency_by_id net in
  Alcotest.(check int) "one row per prop" (Network.prop_count net)
    (Array.length adj);
  let xid = Network.prop_id net "x" and yid = Network.prop_id net "y" in
  Alcotest.(check (list int)) "x row, insertion order"
    [ c1.Constr.id; c2.Constr.id ]
    (Array.to_list adj.(xid));
  Alcotest.(check (list int)) "y row" [ c1.Constr.id ] (Array.to_list adj.(yid))

let test_network_assign () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 3.);
  Alcotest.(check (option (float 0.))) "assigned" (Some 3.)
    (Network.assigned_num net "x");
  Alcotest.(check bool) "bound" true (Network.is_bound net "x");
  Network.unassign net "x";
  Alcotest.(check bool) "unbound" false (Network.is_bound net "x");
  Alcotest.(check bool) "out of range rejected" true
    (try
       Network.assign net "x" (Value.Num 99.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       Network.assign net "x" (Value.Sym "hi");
       false
     with Invalid_argument _ -> true);
  Network.assign net "lvl" (Value.Sym "hi");
  Alcotest.(check bool) "symbolic assign ok" true (Network.is_bound net "lvl")

let test_network_alpha_status () =
  let net, c1, c2 = small_net () in
  Network.set_status net c1.Constr.id Constr.Violated;
  Alcotest.(check int) "alpha x" 1 (Network.alpha net "x");
  Alcotest.(check int) "alpha y" 1 (Network.alpha net "y");
  Network.set_status net c2.Constr.id Constr.Violated;
  Alcotest.(check int) "alpha x both" 2 (Network.alpha net "x");
  Alcotest.(check int) "violated count" 2 (List.length (Network.violated net));
  Network.reset_statuses net;
  Alcotest.(check int) "reset" 0 (List.length (Network.violated net))

let test_network_solved () =
  let net, _, _ = small_net () in
  Alcotest.(check bool) "not solved unbound" false (Network.solved net);
  Network.assign net "x" (Value.Num 3.);
  Network.assign net "y" (Value.Num 4.);
  Alcotest.(check bool) "solved (symbolic prop ignored)" true (Network.solved net);
  Network.assign net "x" (Value.Num 1.);
  Alcotest.(check bool) "violated xmin" false (Network.solved net)

let test_helps_direction () =
  let net, c1, c2 = small_net () in
  Alcotest.(check bool) "sum: decreasing x helps" true
    (Network.helps_direction net c1 "x" = `Down);
  Alcotest.(check bool) "xmin: increasing x helps" true
    (Network.helps_direction net c2 "x" = `Up);
  (* a declared override wins *)
  Network.declare_monotone net c1.Constr.id "x" Adpm_expr.Monotone.Decreasing;
  Alcotest.(check bool) "declared override" true
    (Network.helps_direction net c1 "x" = `Up)

let test_network_copy_isolated () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 3.);
  let snapshot = Network.copy net in
  Network.assign net "x" (Value.Num 5.);
  Alcotest.(check (option (float 0.))) "copy unaffected" (Some 3.)
    (Network.assigned_num snapshot "x");
  Network.unassign snapshot "x";
  Alcotest.(check (option (float 0.))) "original unaffected" (Some 5.)
    (Network.assigned_num net "x")

(* {2 Propagate} *)

let feasible_of net (outcome : Propagate.outcome) name =
  outcome.Propagate.feasible.(Network.prop_id net name)

let test_propagate_narrows () =
  let net, c1, _ = small_net () in
  Network.assign net "y" (Value.Num 8.);
  let outcome = Propagate.run net in
  let x_feasible = feasible_of net outcome "x" in
  (* x + 8 <= 12 -> x <= 4; x >= 2 *)
  (match Domain.hull x_feasible with
  | Some iv ->
    Alcotest.(check bool) "x in [2,4]" true
      (Interval.lo iv >= 1.99 && Interval.hi iv <= 4.01)
  | None -> Alcotest.fail "x should have a hull");
  Alcotest.(check bool) "statuses computed" true
    (c1.Constr.id < Array.length outcome.Propagate.statuses);
  Alcotest.(check bool) "evaluations counted" true (outcome.Propagate.evaluations > 0);
  Alcotest.(check bool) "fixpoint" true outcome.Propagate.fixpoint

let test_propagate_detects_violation () =
  let net, c1, c2 = small_net () in
  Network.assign net "x" (Value.Num 1.);
  let outcome = Propagate.run net in
  Propagate.apply net outcome;
  Alcotest.(check status) "xmin violated" Constr.Violated
    (Network.status net c2.Constr.id);
  ignore c1;
  ignore outcome

let test_propagate_pure_until_applied () =
  let net, _, _ = small_net () in
  let before = Network.feasible net "x" in
  let outcome = Propagate.run net in
  Alcotest.(check dom) "network untouched by run" before (Network.feasible net "x");
  Propagate.apply net outcome;
  Alcotest.(check bool) "applied" true
    (not (Domain.equal before (Network.feasible net "x"))
    || Network.status net 0 <> Constr.Consistent
    || true)

let test_propagate_idempotent () =
  let net, _, _ = small_net () in
  Network.assign net "y" (Value.Num 8.);
  let o1 = Propagate.run net in
  Propagate.apply net o1;
  let o2 = Propagate.run net in
  List.iter
    (fun (name, d1) ->
      let d2 = feasible_of net o2 name in
      Alcotest.(check dom) ("fixpoint stable for " ^ name) d1 d2)
    (Propagate.numeric_feasible net o1)

let test_propagate_budget () =
  let net, _, _ = small_net () in
  let outcome = Propagate.run ~max_revisions:1 net in
  Alcotest.(check bool) "budget respected" true
    (outcome.Propagate.evaluations <= 1 + Network.constraint_count net)

let test_relaxed_feasible () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 3.);
  Network.assign net "y" (Value.Num 8.);
  let rev = Network.revision net in
  let d, evals = Propagate.relaxed_feasible net "x" in
  Alcotest.(check int) "queried network's revision unchanged" rev
    (Network.revision net);
  (match Domain.hull d with
  | Some iv ->
    Alcotest.(check bool) "window [2,4]" true
      (Interval.lo iv >= 1.99 && Interval.hi iv <= 4.01)
  | None -> Alcotest.fail "expected window");
  Alcotest.(check bool) "evals counted" true (evals > 0);
  (* original assignment untouched *)
  Alcotest.(check (option (float 0.))) "x still 3" (Some 3.)
    (Network.assigned_num net "x")

(* The relaxed query by its definition: the fixpoint of a copy of the
   network with [target] and [unpin] unassigned, and the evaluations of
   that run. *)
let relaxed_reference net ~target ~unpin =
  let snapshot = Network.copy net in
  List.iter (Network.unassign snapshot) (target :: unpin);
  let outcome = Propagate.run snapshot in
  let d = feasible_of snapshot outcome target in
  (d, outcome.Propagate.evaluations)

let test_relaxed_matches_reference () =
  List.iter
    (fun name ->
      let sc = Adpm_scenarios.Registry.resolve name in
      let net =
        Adpm_core.Dpm.network
          (sc.Adpm_teamsim.Scenario.sc_build ~mode:Adpm_core.Dpm.Adpm)
      in
      let numeric =
        List.filter
          (fun p -> Domain.is_numeric (Network.initial_domain net p))
          (Network.prop_names net)
      in
      (* bind every other numeric property, at its initial range's low end
         or midpoint, so some constraints end up violated *)
      List.iteri
        (fun i p ->
          if i mod 2 = 0 then
            match Domain.hull (Network.initial_domain net p) with
            | Some iv when Interval.is_bounded iv ->
              Network.assign net p
                (Value.Num
                   (if i mod 4 = 0 then Interval.lo iv else Interval.midpoint iv))
            | Some _ | None -> ())
        numeric;
      let rev = Network.revision net in
      List.iteri
        (fun i target ->
          let unpin =
            List.filteri (fun j _ -> j <> i && (i + j) mod 5 = 0) numeric
          in
          List.iter
            (fun unpin ->
              let d, evals = Propagate.relaxed_feasible_group net ~target ~unpin in
              let d', evals' = relaxed_reference net ~target ~unpin in
              Alcotest.(check dom) (name ^ ": relaxed domain of " ^ target) d' d;
              Alcotest.(check int) (name ^ ": evaluations for " ^ target) evals'
                evals)
            [ []; unpin ])
        numeric;
      Alcotest.(check int) (name ^ ": revision unchanged") rev
        (Network.revision net))
    [ "sensor"; "receiver"; "gen:n=10,k=3,seed=2,topology=star" ]

(* {2 Kernel status = boxed status}

   [Propagate]'s final sweep classifies each constraint by a forward pass
   of its compiled kernel over the float store; [Constr.status_on_box], the
   boxed interval evaluation, is the reference. Random expressions over
   every operator ({!Test_hc4.gen_expr_xyz}), on boxes with infinite
   bounds, divisors touching or straddling zero and [sqrt]/[ln] arguments
   outside their domains. A store bound that is NaN or inverted must make
   the sweep raise exactly what the boxed evaluation raises on it. *)

let status_result f =
  match f () with
  | s -> Ok (Constr.status_to_string s)
  | exception Invalid_argument m -> Error m

let kernel_status_matches_boxed =
  QCheck.Test.make
    ~name:"kernel forward-pass status equals the boxed status" ~count:1000
    (QCheck.make
       ~print:(fun (lhs, rel, boxes) ->
         Printf.sprintf "%s %s 0 on %s" (Expr.to_string lhs)
           (Format.asprintf "%a" Constr.pp_rel rel)
           (String.concat " "
              (List.map (fun (l, h) -> Printf.sprintf "[%h,%h]" l h) boxes)))
       QCheck.Gen.(
         triple Test_hc4.gen_expr_xyz
           (oneofl Constr.[ Le; Ge; Eq ])
           (list_repeat 3 Test_hc4.gen_store_box)))
    (fun (lhs, rel, boxes) ->
      let names = [ "x"; "y"; "z" ] in
      let net = Network.create () in
      List.iter (fun p -> Network.add_prop net p (Domain.continuous (-100.) 100.)) names;
      let con = Network.add_constraint net ~name:"c" lhs rel (c 0.) in
      let lo = Array.of_list (List.map fst boxes) in
      let hi = Array.of_list (List.map snd boxes) in
      Network.store_prop_state net
        {
          Network.ps_lo = Array.copy lo;
          ps_hi = Array.copy hi;
          ps_mask = [| true; true; true |];
          ps_empties = Hashtbl.create 1;
        };
      (* no property is dirty: the incremental engine classifies the stored
         store as it is, with no revision in between *)
      let actual =
        status_result (fun () ->
            (Propagate.run_incremental net).Propagate.statuses.(con.Constr.id))
      in
      let env name =
        let i = Network.prop_id net name in
        Interval.make lo.(i) hi.(i)
      in
      let expected =
        status_result (fun () ->
            let s = Constr.status_on_box env con in
            (* the feasible-subspace sweep reads every box *)
            List.iter (fun p -> ignore (env p : Interval.t)) names;
            s)
      in
      expected = actual)

let test_kernel_status_domain_cases () =
  let x = v "x" in
  List.iter
    (fun (label, lhs, rel, (l, h)) ->
      let con = mk rel lhs (c 0.) in
      let k =
        Hc4.compile ~var_id:(fun _ -> 0) (Constr.diff con)
          ~target:(Constr.target con)
      in
      Alcotest.(check status) label
        (Constr.status_on_box (fun _ -> Interval.make l h) con)
        (Constr.status_of_kernel con k ~lo:[| l |] ~hi:[| h |]))
    [
      ("sqrt of a negative box", Expr.Sqrt x, Constr.Ge, (-3., -1.));
      ("ln of a non-positive box", Expr.Ln x, Constr.Le, (-2., 0.));
      ("ln touching zero", Expr.Ln x, Constr.Le, (0., 1.));
      ("divisor straddling zero", Expr.(c 1. / x), Constr.Le, (-1., 1.));
      ("divisor at zero", Expr.(c 1. / x), Constr.Ge, (0., 0.));
      ("unbounded below", Expr.(x * x), Constr.Eq, (neg_infinity, 2.));
      ("unbounded above", Expr.Exp x, Constr.Ge, (1., infinity));
    ]

(* Regression: [significantly_narrower] used to compare only interval
   widths, so a bound move between two infinite-width boxes
   ([-inf,+inf] -> [0,+inf]) never requeued neighbours and half-infinite
   chains stopped propagating. Constraint order matters: the chain links
   are revised (uselessly) before the anchor that feeds them, so reaching
   the fixpoint depends on the requeue. *)
let test_half_infinite_chain () =
  let net = Network.create () in
  Network.add_prop net "x0" (Domain.continuous neg_infinity infinity);
  Network.add_prop net "x1" (Domain.continuous neg_infinity infinity);
  Network.add_prop net "x2" (Domain.continuous neg_infinity infinity);
  ignore (Network.add_constraint net ~name:"c01" (v "x1") Constr.Ge (v "x0"));
  ignore (Network.add_constraint net ~name:"c12" (v "x2") Constr.Ge (v "x1"));
  ignore (Network.add_constraint net ~name:"anchor" (v "x0") Constr.Ge (c 0.));
  let outcome = Propagate.run net in
  let lo name =
    match Domain.hull (feasible_of net outcome name) with
    | Some iv -> Interval.lo iv
    | None -> Alcotest.fail (name ^ " wiped out")
  in
  let near_zero label x =
    Alcotest.(check bool) label true (Float.abs x <= 1e-6)
  in
  near_zero "anchor narrows x0" (lo "x0");
  near_zero "x1 >= 0 via requeue" (lo "x1");
  near_zero "x2 >= 0 via requeue" (lo "x2");
  Alcotest.(check bool) "fixpoint reached" true outcome.Propagate.fixpoint

(* {2 Incremental propagation} *)

let check_outcomes_equal label (full : Propagate.outcome)
    (incr : Propagate.outcome) =
  Array.iteri
    (fun pid d ->
      Alcotest.(check dom)
        (Printf.sprintf "%s: feasible of property %d" label pid)
        d incr.Propagate.feasible.(pid))
    full.Propagate.feasible;
  Array.iteri
    (fun cid s ->
      Alcotest.(check status)
        (Printf.sprintf "%s: status of constraint %d" label cid)
        s incr.Propagate.statuses.(cid))
    full.Propagate.statuses

(* Run an incremental propagation under a memory tracer and return the
   outcome plus the engine label the Propagation_finished event reported
   ("incremental" for a dirty-seeded restart, "full" for a fallback). *)
let traced_incremental net =
  let open Adpm_trace in
  let buffer, sink = Sink.memory ~capacity:100 in
  let tracer = Tracer.create sink in
  let outcome = Propagate.run_incremental_and_apply ~tracer net in
  let engine =
    List.fold_left
      (fun acc stamped ->
        match stamped.Event.event with
        | Event.Propagation_finished { engine; _ } -> Some engine
        | _ -> acc)
      None (Sink.Ring.contents buffer)
  in
  (outcome, engine)

let test_incremental_matches_full_after_assign () =
  let net, _, _ = small_net () in
  ignore (Propagate.run_incremental_and_apply net);
  Network.assign net "y" (Value.Num 8.);
  let incr, engine = traced_incremental net in
  Alcotest.(check (option string)) "dirty-seeded restart used"
    (Some "incremental") engine;
  let net2, _, _ = small_net () in
  Network.assign net2 "y" (Value.Num 8.);
  let full = Propagate.run net2 in
  check_outcomes_equal "after assign" full incr

let test_incremental_fallback_on_unassign () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 9.);
  ignore (Propagate.run_incremental_and_apply net);
  Network.unassign net "x";
  let incr, engine = traced_incremental net in
  Alcotest.(check (option string)) "widening falls back to full"
    (Some "full") engine;
  let net2, _, _ = small_net () in
  let full = Propagate.run net2 in
  check_outcomes_equal "after unassign" full incr

let test_incremental_invalidated_by_add_constraint () =
  let net, _, _ = small_net () in
  ignore (Propagate.run_incremental_and_apply net);
  Alcotest.(check bool) "store persisted" true
    (Network.prop_state net <> None);
  let _c3 = Network.add_constraint net ~name:"ymax" (v "y") Constr.Le (c 5.) in
  Alcotest.(check bool) "structural change invalidates the store" true
    (Network.prop_state net = None);
  let incr, engine = traced_incremental net in
  Alcotest.(check (option string)) "restart is from scratch" (Some "full")
    engine;
  let net2, _, _ = small_net () in
  ignore (Network.add_constraint net2 ~name:"ymax" (v "y") Constr.Le (c 5.));
  let full = Propagate.run net2 in
  check_outcomes_equal "after add_constraint" full incr

(* Propagation soundness: every ground solution survives propagation. *)
let propagate_preserves_solutions =
  QCheck.Test.make ~name:"propagation preserves ground solutions" ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "x=%g y=%g" a b)
       QCheck.Gen.(
         let* a = float_range 2. 10. in
         let* b = float_range 0. 10. in
         return (a, b)))
    (fun (x, y) ->
      QCheck.assume (x +. y <= 12.);
      let net, _, _ = small_net () in
      let outcome = Propagate.run net in
      let ok name value =
        match Domain.hull (feasible_of net outcome name) with
        | Some iv -> Interval.mem value (Interval.inflate 1e-6 iv)
        | None -> false
      in
      ok "x" x && ok "y" y)

(* Propagation monotonicity: committing an assignment can only shrink the
   other properties' feasible subspaces. *)
let propagation_monotone =
  QCheck.Test.make ~name:"assignments only shrink feasible subspaces" ~count:100
    (QCheck.make ~print:string_of_float QCheck.Gen.(float_range 2. 10.))
    (fun x_value ->
      let net1, _, _ = small_net () in
      let before = Propagate.run net1 in
      let net2, _, _ = small_net () in
      Network.assign net2 "x" (Value.Num x_value);
      let after = Propagate.run net2 in
      let hull_of outcome name = Domain.hull (feasible_of net1 outcome name) in
      match (hull_of before "y", hull_of after "y") with
      | Some b, Some a -> Interval.subset a (Interval.inflate 1e-9 b)
      | Some _, None -> true (* wiped out: trivially a subset *)
      | None, _ -> false)

(* {2 Fcsp + AC-3} *)

let triangle_csp () =
  (* x < y < z over {0,1,2} *)
  let lt a b = a < b in
  Fcsp.make ~nvars:3
    ~domains:(Array.make 3 [ 0; 1; 2 ])
    ~constraints:[ (0, 1, lt); (1, 2, lt) ]

let test_ac3_prunes () =
  let csp = triangle_csp () in
  match Fcsp.ac3 csp with
  | Fcsp.Inconsistent, _ -> Alcotest.fail "consistent CSP flagged inconsistent"
  | Fcsp.Consistent domains, revisions ->
    Alcotest.(check (list int)) "x pruned" [ 0 ] domains.(0);
    Alcotest.(check (list int)) "y pruned" [ 1 ] domains.(1);
    Alcotest.(check (list int)) "z pruned" [ 2 ] domains.(2);
    Alcotest.(check bool) "revisions counted" true (revisions > 0)

let test_ac3_wipeout () =
  let neq a b = a <> b in
  let csp =
    Fcsp.make ~nvars:3
      ~domains:(Array.make 3 [ 0; 1 ])
      ~constraints:[ (0, 1, neq); (1, 2, neq); (0, 2, neq) ]
  in
  (* 3-coloring with 2 colors: AC alone does not detect it, but search must
     fail *)
  let stats = Search.solve ~heuristic:Search.Min_domain csp in
  Alcotest.(check bool) "unsatisfiable" true (stats.Search.solution = None)

let test_solutions_enumeration () =
  let csp = triangle_csp () in
  let sols = Fcsp.solutions csp in
  Alcotest.(check int) "unique solution" 1 (List.length sols);
  Alcotest.(check bool) "it is 0<1<2" true
    (match sols with [ a ] -> a = [| 0; 1; 2 |] | _ -> false)

let test_fcsp_validation () =
  Alcotest.(check bool) "bad scope rejected" true
    (try
       ignore (Fcsp.make ~nvars:2 ~domains:[| [ 0 ]; [ 0 ] |] ~constraints:[ (0, 2, ( = )) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "self-loop rejected" true
    (try
       ignore (Fcsp.make ~nvars:2 ~domains:[| [ 0 ]; [ 0 ] |] ~constraints:[ (1, 1, ( = )) ]);
       false
     with Invalid_argument _ -> true)

(* All heuristics agree with brute-force satisfiability. *)
let search_agrees_with_bruteforce =
  QCheck.Test.make ~name:"search finds a solution iff one exists" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      let rng = Rng.create seed in
      let csp =
        Search.random_csp rng ~nvars:6 ~domain_size:3 ~density:0.5
          ~tightness:0.4
      in
      let expected = Fcsp.solutions ~limit:1 csp <> [] in
      List.for_all
        (fun heuristic ->
          List.for_all
            (fun inference ->
              let stats =
                Search.solve ~rng:(Rng.create seed) ~inference ~heuristic csp
              in
              let found = stats.Search.solution <> None in
              let valid =
                match stats.Search.solution with
                | Some a -> Fcsp.consistent_assignment csp a
                | None -> true
              in
              found = expected && valid)
            [ Search.No_inference; Search.Forward_check; Search.Mac ])
        Search.all_heuristics)

let test_search_stats_sane () =
  let rng = Rng.create 5 in
  let csp =
    Search.random_csp rng ~nvars:8 ~domain_size:4 ~density:0.4 ~tightness:0.3
  in
  let stats = Search.solve ~heuristic:Search.Min_domain csp in
  Alcotest.(check bool) "nodes positive" true (stats.Search.nodes > 0);
  Alcotest.(check bool) "checks positive" true (stats.Search.checks > 0)

let suite =
  [
    ("constraint args", `Quick, test_constr_args);
    ("check point", `Quick, test_check_point);
    ("status on box", `Quick, test_status_on_box);
    ("equality status", `Quick, test_eq_status);
    ("network basics", `Quick, test_network_basics);
    ("network validation", `Quick, test_network_validation);
    ("lookup errors name the entity", `Quick, test_network_error_messages);
    ("constraint args memoized", `Quick, test_constr_args_memoized);
    ("constraints list cached on revision", `Quick,
     test_network_constraints_cached);
    ("flat views are dense and ordered", `Quick, test_flat_views_dense);
    ("network assignment", `Quick, test_network_assign);
    ("network alpha/status", `Quick, test_network_alpha_status);
    ("network solved", `Quick, test_network_solved);
    ("helps direction", `Quick, test_helps_direction);
    ("network copy isolation", `Quick, test_network_copy_isolated);
    ("propagation narrows", `Quick, test_propagate_narrows);
    ("propagation detects violations", `Quick, test_propagate_detects_violation);
    ("propagation pure until applied", `Quick, test_propagate_pure_until_applied);
    ("propagation idempotent at fixpoint", `Quick, test_propagate_idempotent);
    ("propagation revision budget", `Quick, test_propagate_budget);
    ("relaxed feasibility", `Quick, test_relaxed_feasible);
    ("relaxed query matches its copy-and-unassign definition", `Quick,
     test_relaxed_matches_reference);
    QCheck_alcotest.to_alcotest kernel_status_matches_boxed;
    ("kernel status on domain edge cases", `Quick,
     test_kernel_status_domain_cases);
    ("half-infinite chain propagates", `Quick, test_half_infinite_chain);
    ("incremental = full after assign", `Quick,
     test_incremental_matches_full_after_assign);
    ("incremental falls back on unassign", `Quick,
     test_incremental_fallback_on_unassign);
    ("incremental store invalidated by add_constraint", `Quick,
     test_incremental_invalidated_by_add_constraint);
    QCheck_alcotest.to_alcotest propagate_preserves_solutions;
    QCheck_alcotest.to_alcotest propagation_monotone;
    ("AC-3 prunes", `Quick, test_ac3_prunes);
    ("2-coloring of a triangle fails", `Quick, test_ac3_wipeout);
    ("exhaustive enumeration", `Quick, test_solutions_enumeration);
    ("fcsp validation", `Quick, test_fcsp_validation);
    QCheck_alcotest.to_alcotest search_agrees_with_bruteforce;
    ("search statistics", `Quick, test_search_stats_sane);
  ]
