(* The designer's compiled decision inputs against on-demand references.

   - The direction/touch table: for every designer, constraint and numeric
     output, the compiled entry must equal what the reference below
     derives from the network on demand — on the builtin scenarios and on
     generated ones, before and after a requirement shift.
   - The known-violated set: along random operation sequences (synthesis,
     verification, requirement shifts) in both modes, the set the DPM
     maintains from its transitions' status changes must equal a full
     [known_status] scan after every step; designers with a delayed view
     must act on exactly their believed table's violations. *)

open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

(* {2 Reference: model-mediated helps/touches, derived on demand} *)

let initial_hull_env net prop =
  match Domain.hull (Network.initial_domain net prop) with
  | Some iv -> iv
  | None -> raise Not_found

(* Direction (as seen from parameter [x]) in which moving [x] helps
   satisfy constraint [c], one entry per contributing argument, routing
   through the model of a derived argument when needed. *)
let helps_through_models ~models net c x =
  let compose outer inner =
    match (outer, inner) with
    | `None, _ -> `None
    | _, (Monotone.Constant | Monotone.Unknown) -> `None
    | `Up, Monotone.Increasing | `Down, Monotone.Decreasing -> `Up
    | `Up, Monotone.Decreasing | `Down, Monotone.Increasing -> `Down
  in
  List.filter_map
    (fun arg ->
      if String.equal arg x then
        match Network.helps_direction net c arg with
        | `None -> None
        | (`Up | `Down) as dir -> Some dir
      else
        match List.assoc_opt arg models with
        | Some model when Expr.mentions model x -> (
          let inner =
            try Monotone.direction ~env:(initial_hull_env net) model x
            with Not_found -> Monotone.Unknown
          in
          match compose (Network.helps_direction net c arg) inner with
          | `None -> None
          | (`Up | `Down) as dir -> Some dir)
        | Some _ | None -> None)
    (Constr.args c)

(* Does constraint [c] reach parameter [x] directly or through a model? *)
let touches_through_models ~models c x =
  List.exists
    (fun arg ->
      String.equal arg x
      ||
      match List.assoc_opt arg models with
      | Some model -> Expr.mentions model x
      | None -> false)
    (Constr.args c)

let reference_entry ~models net c x =
  let dirs = helps_through_models ~models net c x in
  let count d = List.length (List.filter (fun dir -> dir = d) dirs) in
  (count `Up, count `Down, touches_through_models ~models c x)

let numeric_outputs dpm designer =
  let net = Dpm.network dpm in
  List.sort_uniq compare
    (List.concat_map
       (fun p ->
         List.filter
           (fun o ->
             Network.mem_prop net o
             && Domain.is_numeric (Network.initial_domain net o))
           p.Problem.pr_outputs)
       (Dpm.problems_owned_by dpm designer))

(* Every (designer, constraint, property) entry against the reference;
   properties outside a designer's numeric outputs must have no entry.
   Returns the first mismatch, described. *)
let table_mismatch scenario dpm designers =
  let net = Dpm.network dpm in
  let models = scenario.Scenario.sc_models in
  let show (u, w, t) = Printf.sprintf "(up %d, down %d, touches %b)" u w t in
  List.find_map
    (fun d ->
      let outs = numeric_outputs dpm (Designer.name d) in
      List.find_map
        (fun c ->
          let cid = c.Constr.id in
          List.find_map
            (fun x ->
              let got = Designer.compiled_votes d dpm ~cid x in
              let want =
                if List.mem x outs then Some (reference_entry ~models net c x)
                else None
              in
              if got = want then None
              else
                Some
                  (Printf.sprintf "%s, constraint %d, %s: compiled %s, reference %s"
                     (Designer.name d) cid x
                     (Option.fold ~none:"none" ~some:show got)
                     (Option.fold ~none:"none" ~some:show want)))
            (Network.prop_names net))
        (Network.constraints net))
    designers

let make_designers cfg scenario dpm =
  let rng = Adpm_util.Rng.create cfg.Config.seed in
  List.map
    (fun name ->
      Designer.create cfg ~rng:(Adpm_util.Rng.split rng)
        ~models:scenario.Scenario.sc_models name)
    (Dpm.designers dpm)

(* Requirement properties: the numeric ones bound when the scenario is
   built. *)
let requirements dpm =
  let net = Dpm.network dpm in
  List.filter
    (fun name -> Network.assigned_num net name <> None)
    (Network.prop_names net)

let value_in net st prop =
  match Domain.hull (Network.initial_domain net prop) with
  | Some iv when Interval.is_bounded iv ->
    Interval.lo iv +. Random.State.float st (Interval.width iv)
  | Some iv -> Interval.midpoint iv
  | None -> invalid_arg prop

let scenario_names = [ "simple"; "lna"; "sensor"; "receiver" ]

let gen_spec =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let* k = int_range 1 3 in
    let* seed = int_range 0 999 in
    let* topology = oneofl [ "ring"; "star"; "random-0.5" ] in
    return (Printf.sprintf "gen:n=%d,k=%d,seed=%d,topology=%s" n k seed topology))

(* Every builtin and one generated scenario per case. *)
let case_arb =
  QCheck.make
    ~print:(fun (spec, seed) -> Printf.sprintf "builtins + %s, seed %d" spec seed)
    QCheck.Gen.(pair gen_spec (int_range 0 10_000))

(* {2 The compiled direction/touch table} *)

let check_table name seed =
  let scenario = Registry.resolve name in
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let designers = make_designers (Config.default ~mode:Dpm.Adpm ~seed) scenario dpm in
  let check when_ =
    match table_mismatch scenario dpm designers with
    | None -> ()
    | Some msg -> QCheck.Test.fail_reportf "%s: %s (%s)" name msg when_
  in
  ignore (Dpm.run_propagation dpm : Propagate.outcome);
  check "before a shift";
  let st = Random.State.make [| seed |] in
  match requirements dpm with
  | [] -> ()
  | reqs ->
    let prop = List.nth reqs (Random.State.int st (List.length reqs)) in
    let value = value_in (Dpm.network dpm) st prop in
    ignore (Dpm.shift_requirement dpm ~prop ~value);
    check (Printf.sprintf "after shifting %s to %g" prop value)

let table_matches_reference =
  QCheck.Test.make ~name:"compiled direction table equals the on-demand reference"
    ~count:10 case_arb (fun (spec, seed) ->
      List.iter (fun name -> check_table name seed) (scenario_names @ [ spec ]);
      true)

(* {2 The DPM-maintained known-violated set} *)

let full_scan dpm =
  List.filter_map
    (fun c ->
      if Dpm.known_status dpm c.Constr.id = Constr.Violated then Some c.Constr.id
      else None)
    (Network.constraints (Dpm.network dpm))

let violated_in snapshot =
  List.filter_map
    (fun (cid, s) -> if s = Constr.Violated then Some cid else None)
    snapshot

(* One random step: a synthesis of a random numeric output of a random
   problem, a verification of a random subset of a problem's constraints,
   or a requirement shift. *)
let random_step st dpm =
  let net = Dpm.network dpm in
  let probs = Array.of_list (Dpm.problems dpm) in
  let p = probs.(Random.State.int st (Array.length probs)) in
  let designer = p.Problem.pr_owner and problem = p.Problem.pr_id in
  let outs =
    List.filter
      (fun o -> Domain.is_numeric (Network.initial_domain net o))
      p.Problem.pr_outputs
  in
  match Random.State.int st 10 with
  | (0 | 1 | 2 | 3 | 4) when outs <> [] ->
    let o = List.nth outs (Random.State.int st (List.length outs)) in
    `Op (Operator.synthesis ~designer ~problem [ (o, Value.Num (value_in net st o)) ])
  | 5 | 6 | 7 | 8 when p.Problem.pr_constraints <> [] ->
    let cids =
      match List.filter (fun _ -> Random.State.bool st) p.Problem.pr_constraints with
      | [] -> p.Problem.pr_constraints
      | some -> some
    in
    `Op (Operator.verification ~designer ~problem cids)
  | _ -> (
    match requirements dpm with
    | [] -> `Skip
    | reqs ->
      let prop = List.nth reqs (Random.State.int st (List.length reqs)) in
      `Shift (prop, value_in net st prop))

let check_known_set name mode seed =
  let scenario = Registry.resolve name in
  let dpm = scenario.Scenario.sc_build ~mode in
  if mode = Dpm.Adpm then ignore (Dpm.run_propagation dpm : Propagate.outcome);
  let live = make_designers (Config.default ~mode ~seed) scenario dpm in
  (* latency 2: these designers decide from their believed tables, fed
     here with every outcome two steps late *)
  let delayed =
    make_designers { (Config.default ~mode ~seed) with Config.latency = 2 } scenario dpm
  in
  let kickoff = Dpm.known_statuses dpm in
  List.iter (fun d -> Designer.learn_statuses d kickoff) delayed;
  let st = Random.State.make [| seed |] in
  let in_flight = Queue.create () in
  let check step =
    let scan = full_scan dpm in
    let fail what got =
      QCheck.Test.fail_reportf "%s, %s, step %d: %s [%s] <> full scan [%s]" name
        (Dpm.mode_to_string mode) step what
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map string_of_int scan))
    in
    if Dpm.known_violations dpm <> scan then
      fail "maintained set" (Dpm.known_violations dpm);
    List.iter
      (fun d ->
        let got = Designer.known_violated_ids d dpm in
        if got <> scan then fail (Designer.name d ^ " (live view)") got)
      live;
    List.iter
      (fun d ->
        let got = Designer.known_violated_ids d dpm in
        let want = violated_in (Designer.believed_snapshot d) in
        if got <> want then
          QCheck.Test.fail_reportf "%s, %s, step %d: %s acts on [%s], believes [%s]"
            name (Dpm.mode_to_string mode) step
            (Designer.name d)
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int want)))
      delayed
  in
  check 0;
  for step = 1 to 40 do
    (match random_step st dpm with
    | `Skip -> ()
    | `Shift (prop, value) ->
      let changes = Dpm.shift_requirement dpm ~prop ~value in
      Queue.push (`Statuses (List.map (fun (cid, _, s) -> (cid, s)) changes)) in_flight
    | `Op op ->
      let result = Dpm.apply dpm op in
      let entry = List.hd (List.rev (Dpm.history dpm)) in
      let scanned = List.length (full_scan dpm) in
      if entry.Dpm.h_known_violations <> scanned then
        QCheck.Test.fail_reportf
          "%s, %s, step %d: history counts %d known violations, scan %d" name
          (Dpm.mode_to_string mode) step entry.Dpm.h_known_violations scanned;
      Queue.push (`Result (op, result)) in_flight);
    if Queue.length in_flight > 2 then begin
      let late = Queue.pop in_flight in
      List.iter
        (fun d ->
          match late with
          | `Statuses s -> Designer.learn_statuses d s
          | `Result (op, result) ->
            Designer.deliver d ~own:false op result;
            ignore (Designer.drain d dpm : int))
        delayed
    end;
    check step
  done

let known_set_maintained =
  QCheck.Test.make ~name:"DPM-maintained known-violated set equals a full scan"
    ~count:15 case_arb (fun (spec, seed) ->
      List.iter
        (fun name ->
          List.iter
            (fun mode -> check_known_set name mode seed)
            [ Dpm.Adpm; Dpm.Conventional ])
        (scenario_names @ [ spec ]);
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest [ table_matches_reference; known_set_maintained ]
