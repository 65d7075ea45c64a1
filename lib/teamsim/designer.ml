open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_trace
module Mailbox = Adpm_sim.Mailbox

(* A queued NM delivery: the outcome of one executed operation, tagged
   with whether it was this designer's own. *)
type delivery = { dv_own : bool; dv_op : Operator.t; dv_result : Dpm.result }

(* {2 The compiled decision view}

   What f_a and f_v read about the design's structure — which numeric
   outputs the designer's problems own, which of them a tool model derives,
   and for every (constraint, output) pair how many of the constraint's
   arguments vote for raising or lowering the output (directly, or through
   the model of a derived argument) and whether the constraint reaches the
   output at all — depends only on the network's structure, its monotone
   declarations and initial hulls, and on the problem tree. It is compiled
   once into dense tables indexed by local output index [li] (the output's
   position in [v_outs]) and constraint id, and rebuilt only when
   [Network.structure_revision] or [Dpm.problem_revision] moves.
   Requirement shifts only assign, so they leave it valid. *)
type view = {
  v_net : Network.t;
  v_struct : int;
  v_probs : int;
  v_ncons : int;
  v_outs : string array; (* owned numeric outputs, sorted *)
  v_index : (string, int) Hashtbl.t; (* output name -> li *)
  v_derived : bool array; (* computed by a tool model *)
  v_models : Expr.t array; (* the model of each derived output *)
  v_hulls : Interval.t option array; (* initial hulls, clamp tool results *)
  (* per [li * v_ncons + cid]: the constraint's arguments voting Up / Down
     for the output, and whether the constraint reaches it *)
  v_up : int array;
  v_down : int array;
  v_touch : bool array;
  v_touches : int array; (* per li: constraints reaching it *)
  v_up_total : int array; (* per li: Up votes over every constraint *)
  v_down_total : int array;
  v_unpin : int list array; (* per li: derived outputs whose model mentions it *)
  v_owned : (Problem.t * int array) list;
      (* owned problems in DPM order, each with its numeric outputs' li *)
  (* scratch: outputs of this turn's addressable problems, and the values
     [recompute_derived] has computed *)
  v_active : bool array;
  v_done : bool array;
  v_vals : float array;
}

type t = {
  d_name : string;
  cfg : Config.t;
  rng : Rng.t;
  models : (string * Expr.t) list;
  tabu : (string, unit) Hashtbl.t;
  (* last repair direction and step per property, for adaptive delta *)
  repair_memory : (string, [ `Up | `Down ] * float) Hashtbl.t;
  (* violations that motivated repairs and await re-verification *)
  pending_reverify : (int, unit) Hashtbl.t;
  (* most recent own parameter assignment, so conventional-mode
     verifications can attribute freshly discovered violations to it
     (design-history tabu) *)
  mutable last_synthesis : (string * float) option;
  (* consecutive repairs of a parameter that resolved nothing: such
     parameters are demoted so siblings get a chance (design-history
     consultation, ADPM mode where feedback is immediate) *)
  failed_repairs : (string, int) Hashtbl.t;
  (* what this designer believes each constraint's status to be, rebuilt
     from delivered status transitions; consulted instead of the DPM's
     live view only under a nonzero notification latency, where the two
     can disagree (staleness is the phenomenon being modelled) *)
  believed : (int, Constr.status) Hashtbl.t;
  (* [believed] as violated flags by constraint id *)
  mutable believed_violated : bool array;
  (* queued NM deliveries, drained at the start of the next turn *)
  inbox : delivery Mailbox.t;
  mutable view : view option;
}

let create cfg ~rng ~models name =
  {
    d_name = name;
    cfg;
    rng;
    models;
    tabu = Hashtbl.create 64;
    repair_memory = Hashtbl.create 16;
    pending_reverify = Hashtbl.create 16;
    last_synthesis = None;
    failed_repairs = Hashtbl.create 16;
    believed = Hashtbl.create 64;
    believed_violated = [||];
    inbox = Mailbox.create ();
    view = None;
  }

let name d = d.d_name

(* With latency 0 and no fault plan the engine delivers every outcome
   before the next turn, so the DPM's live view and the believed table
   never disagree; using the live view on that path keeps its decisions
   those of an instant broadcast. Any latency or active fault
   plan makes the two diverge (deliveries lag, vanish, or die with their
   recipient), so decisions must come from the believed table. *)
let delayed_view d =
  d.cfg.Config.latency > 0
  || not (Adpm_fault.Fault.is_none d.cfg.Config.faults)

let believed_flags d n =
  let len = Array.length d.believed_violated in
  if len < n then begin
    let grown = Array.make (max n (2 * len)) false in
    Array.blit d.believed_violated 0 grown 0 len;
    d.believed_violated <- grown
  end;
  d.believed_violated

let believe d cid s =
  Hashtbl.replace d.believed cid s;
  (believed_flags d (cid + 1)).(cid) <- s = Constr.Violated

let learn_statuses d statuses = List.iter (fun (cid, s) -> believe d cid s) statuses

let believed_snapshot d =
  Hashtbl.fold (fun cid s acc -> (cid, s) :: acc) d.believed []
  |> List.sort compare

(* A crashed designer comes back with its working memory gone: believed
   statuses, queued deliveries, repair adaptation, re-verification
   bookkeeping. Only the tabu set survives — the design history lives in
   the shared database (Section 3.1.1), not in the designer's head. *)
let restart d =
  Hashtbl.reset d.believed;
  Array.fill d.believed_violated 0 (Array.length d.believed_violated) false;
  Hashtbl.reset d.repair_memory;
  Hashtbl.reset d.pending_reverify;
  Hashtbl.reset d.failed_repairs;
  d.last_synthesis <- None;
  ignore (Mailbox.drain d.inbox : delivery list)

let tabu_key prop value = Printf.sprintf "%s@%.9g" prop value

let is_tabu d prop value =
  d.cfg.Config.use_history_tabu && Hashtbl.mem d.tabu (tabu_key prop value)

let is_derived d prop = List.mem_assoc prop d.models

let initial_hull_env net prop =
  match Domain.hull (Network.initial_domain net prop) with
  | Some iv -> iv
  | None -> raise Not_found

(* Which way moving [x] helps, given that moving a derived argument
   [outer] helps and the argument's model has monotonicity [inner] in [x]. *)
let compose outer inner =
  match (outer, inner) with
  | `None, _ -> `None
  | _, (Monotone.Constant | Monotone.Unknown) -> `None
  | `Up, Monotone.Increasing | `Down, Monotone.Decreasing -> `Up
  | `Up, Monotone.Decreasing | `Down, Monotone.Increasing -> `Down

(* Every argument of every constraint votes for the output it is (its
   [Network.helps_direction]) and, when a tool model derives it, for every
   other output its model mentions (composed through the model). *)
let compile d dpm =
  let net = Dpm.network dpm in
  let numeric o =
    Network.mem_prop net o && Domain.is_numeric (Network.initial_domain net o)
  in
  let owned = Dpm.problems_owned_by dpm d.d_name in
  let outs =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map
            (fun p -> List.filter numeric p.Problem.pr_outputs)
            owned))
  in
  let n = Array.length outs in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun li o -> Hashtbl.replace index o li) outs;
  let models =
    Array.map
      (fun o -> Option.value ~default:(Expr.Const 0.) (List.assoc_opt o d.models))
      outs
  in
  let carr = Network.constraint_array net in
  let ncons = Array.length carr in
  let up = Array.make (n * ncons) 0 and down = Array.make (n * ncons) 0 in
  let touch = Array.make (n * ncons) false in
  let vote li cid dir =
    let k = (li * ncons) + cid in
    touch.(k) <- true;
    match dir with
    | `Up -> up.(k) <- up.(k) + 1
    | `Down -> down.(k) <- down.(k) + 1
    | `None -> ()
  in
  Array.iter
    (fun c ->
      let cid = c.Constr.id in
      List.iter
        (fun arg ->
          (match Hashtbl.find_opt index arg with
          | Some li -> vote li cid (Network.helps_direction net c arg)
          | None -> ());
          match List.assoc_opt arg d.models with
          | None -> ()
          | Some model ->
            Array.iteri
              (fun li x ->
                if (not (String.equal x arg)) && Expr.mentions model x then begin
                  let inner =
                    try Monotone.direction ~env:(initial_hull_env net) model x
                    with Not_found -> Monotone.Unknown
                  in
                  vote li cid (compose (Network.helps_direction net c arg) inner)
                end)
              outs)
        (Constr.args c))
    carr;
  let per_li f =
    Array.init n (fun li ->
        let acc = ref 0 in
        for cid = 0 to ncons - 1 do
          acc := !acc + f ((li * ncons) + cid)
        done;
        !acc)
  in
  let derived = Array.map (fun o -> List.mem_assoc o d.models) outs in
  {
    v_net = net;
    v_struct = Network.structure_revision net;
    v_probs = Dpm.problem_revision dpm;
    v_ncons = ncons;
    v_outs = outs;
    v_index = index;
    v_derived = derived;
    v_models = models;
    v_hulls = Array.map (fun o -> Domain.hull (Network.initial_domain net o)) outs;
    v_up = up;
    v_down = down;
    v_touch = touch;
    v_touches = per_li (fun k -> if touch.(k) then 1 else 0);
    v_up_total = per_li (fun k -> up.(k));
    v_down_total = per_li (fun k -> down.(k));
    v_unpin =
      Array.map
        (fun x ->
          List.filter
            (fun lj -> derived.(lj) && Expr.mentions models.(lj) x)
            (List.init n Fun.id))
        outs;
    v_owned =
      List.map
        (fun p ->
          ( p,
            Array.of_list
              (List.filter_map
                 (fun o -> if numeric o then Some (Hashtbl.find index o) else None)
                 p.Problem.pr_outputs) ))
        owned;
    v_active = Array.make n false;
    v_done = Array.make n false;
    v_vals = Array.make n 0.;
  }

let view d dpm =
  let net = Dpm.network dpm in
  match d.view with
  | Some v
    when v.v_net == net
         && v.v_struct = Network.structure_revision net
         && v.v_probs = Dpm.problem_revision dpm ->
    v
  | Some _ | None ->
    let v = compile d dpm in
    d.view <- Some v;
    v

let touches v li cid = v.v_touch.((li * v.v_ncons) + cid)

(* f_p: assigned problems that are not Waiting. Marks their outputs
   active for the rest of the turn. *)
let addressable_problems v =
  Array.fill v.v_active 0 (Array.length v.v_active) false;
  let probs =
    List.filter (fun (p, _) -> p.Problem.pr_status <> Problem.Waiting) v.v_owned
  in
  List.iter
    (fun (_, lis) -> Array.iter (fun li -> v.v_active.(li) <- true) lis)
    probs;
  probs

(* Active outputs, ascending, that are (not) tool-derived. *)
let active_outputs v ~derived =
  let acc = ref [] in
  for li = Array.length v.v_outs - 1 downto 0 do
    if v.v_active.(li) && v.v_derived.(li) = derived then acc := li :: !acc
  done;
  !acc

(* Design parameters: outputs the designer assigns directly (not computed
   by a tool model). *)
let free_outputs v = active_outputs v ~derived:false

(* The known violations this designer acts on, as flags by constraint id:
   the DPM's live set, or under a delayed view the believed table's. *)
let violated d dpm v =
  if delayed_view d then believed_flags d v.v_ncons else Dpm.known_violated dpm

let any_violated v kv =
  let rec go cid = cid < v.v_ncons && (kv.(cid) || go (cid + 1)) in
  go 0

(* Known violations reaching output [li], ascending. *)
let motivated_for v kv li =
  let acc = ref [] in
  for cid = v.v_ncons - 1 downto 0 do
    if kv.(cid) && touches v li cid then acc := cid :: !acc
  done;
  !acc

(* Repair votes for parameter [li]: how many known violations a move up
   (resp. down) would help fix, counting model-mediated influence. *)
let repair_votes v kv li =
  let up = ref 0 and down = ref 0 and alpha = ref 0 in
  let base = li * v.v_ncons in
  for cid = 0 to v.v_ncons - 1 do
    if kv.(cid) && v.v_touch.(base + cid) then begin
      incr alpha;
      if v.v_up.(base + cid) > 0 then incr up;
      if v.v_down.(base + cid) > 0 then incr down
    end
  done;
  (!up, !down, !alpha)

(* {2 Tool emulation}

   Recompute every derived output of the addressable problems whose model
   inputs are available, to a fixpoint (models may reference other derived
   properties). [extra] overrides the network's current assignment of one
   property. Returns the computed outputs whose value differs from the
   network's, ascending. *)
let recompute_derived dpm v ?extra () =
  let net = Dpm.network dpm in
  let targets = active_outputs v ~derived:true in
  List.iter (fun li -> v.v_done.(li) <- false) targets;
  let rec lookup name = function
    | li :: rest ->
      if v.v_done.(li) && String.equal v.v_outs.(li) name then Some v.v_vals.(li)
      else lookup name rest
    | [] -> (
      match extra with
      | Some (prop, x) when String.equal prop name -> Some x
      | Some _ | None -> (
        try Network.assigned_num net name with Invalid_argument _ -> None))
  in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun li ->
        if not v.v_done.(li) then
          match Expr.eval_opt (fun name -> lookup name targets) v.v_models.(li) with
          | Some raw when Float.is_finite raw ->
            (* the tool's output is clamped to the property's legal range *)
            let value =
              match v.v_hulls.(li) with
              | Some hull ->
                Float.min (Interval.hi hull) (Float.max (Interval.lo hull) raw)
              | None -> raw
            in
            v.v_vals.(li) <- value;
            v.v_done.(li) <- true;
            progress := true
          | Some _ | None -> ())
      targets
  done;
  List.filter_map
    (fun li ->
      if v.v_done.(li) && Network.assigned_num net v.v_outs.(li) <> Some v.v_vals.(li)
      then Some (li, v.v_vals.(li))
      else None)
    targets

let assignments v outputs =
  List.map (fun (li, x) -> (v.v_outs.(li), Value.Num x)) outputs

let problem_of_output probs li =
  Option.map fst (List.find_opt (fun (_, lis) -> Array.mem li lis) probs)

let synthesis_op d dpm v probs ?(motivated_by = []) li x =
  match problem_of_output probs li with
  | None -> None
  | Some p ->
    let prop = v.v_outs.(li) in
    let derived = recompute_derived dpm v ~extra:(prop, x) () in
    Some
      (Operator.synthesis ~motivated_by ~designer:d.d_name
         ~problem:p.Problem.pr_id
         ((prop, Value.Num x) :: assignments v derived))

(* {2 Value selection helpers} *)

let clamp iv x = Float.min (Interval.hi iv) (Float.max (Interval.lo iv) x)

let quantile_of_domain dom q =
  match dom with
  | Domain.Empty | Domain.Symbolic _ -> None
  | Domain.Continuous iv ->
    if Interval.is_bounded iv then
      Some (Interval.lo iv +. (q *. Interval.width iv))
    else Some (Interval.midpoint iv)
  | Domain.Finite arr ->
    let n = Array.length arr in
    let i = int_of_float (q *. float_of_int (n - 1)) in
    Some arr.(max 0 (min (n - 1) i))

let random_in_domain d dom =
  match dom with
  | Domain.Empty | Domain.Symbolic _ -> None
  | Domain.Continuous iv ->
    if Interval.is_bounded iv then
      Some (Rng.float_range d.rng (Interval.lo iv) (Interval.hi iv))
    else Some (Interval.midpoint iv)
  | Domain.Finite arr -> Some (Rng.pick_array d.rng arr)

(* Choose a value from a non-empty domain, preferring the quantile the
   direction votes suggest; repeated failed repairs escalate the choice
   toward the window's corner (the fix may only exist at the margin). *)
let pick_from_domain d prop dom direction =
  let fatigue =
    float_of_int (try Hashtbl.find d.failed_repairs prop with Not_found -> 0)
  in
  let push = Float.min 0.25 (0.08 *. fatigue) in
  let q =
    match direction with
    | `Up -> 0.75 +. push
    | `Down -> 0.25 -. push
    | `None -> 0.5
  in
  match quantile_of_domain dom q with
  | None -> None
  | Some v -> if is_tabu d prop v then None else Some v

(* The feasible-endpoint choice of f_v for forward synthesis: the top or
   bottom value according to which direction helps satisfy the most
   connected constraints (counting model-mediated connections). *)
let endpoint_from_votes d v li dom =
  let prop = v.v_outs.(li) in
  let hints = d.cfg.Config.use_monotone_hints in
  let up = if hints then v.v_up_total.(li) else 0 in
  let down = if hints then v.v_down_total.(li) else 0 in
  (* top or bottom of the feasible window per the votes, pulled slightly
     inside (with a little designer-to-designer jitter) so a boundary
     choice does not immediately pinch the margins of the other designers'
     windows *)
  let jitter = Rng.float d.rng 0.1 in
  let choice =
    if up > down then quantile_of_domain dom (0.75 +. jitter)
    else if down > up then quantile_of_domain dom (0.15 +. jitter)
    else quantile_of_domain dom (0.45 +. jitter)
  in
  match choice with
  | Some v when not (is_tabu d prop v) -> Some v
  | Some _ -> random_in_domain d dom
  | None -> None

(* The headroom-seeking f_v variant (the adaptability option): among
   candidate quantiles of the feasible window, pick the one maximizing
   log(min normalized headroom) over the connected constraints — keep
   every constraint comfortably away from its limit so a later
   requirement shift has margin to land in. Unbound teammate parameters
   are assumed at the middle of their feasible windows; each constraint
   check is charged as one tool evaluation. *)
let headroom_from_votes d dpm v li dom =
  let net = Dpm.network dpm in
  let prop = v.v_outs.(li) in
  if v.v_touches.(li) = 0 then None
  else begin
    let connected =
      List.filter (fun c -> touches v li c.Constr.id) (Network.constraints net)
    in
    let candidates =
      List.filter
        (fun x -> not (is_tabu d prop x))
        (List.sort_uniq compare
           (List.filter_map (quantile_of_domain dom)
              [ 0.1; 0.3; 0.5; 0.7; 0.9 ]))
    in
    let evals = ref 0 in
    let midpoint name =
      match Domain.hull (Network.feasible net name) with
      | Some iv when Interval.is_bounded iv -> Some (Interval.midpoint iv)
      | _ -> (
        match Domain.hull (Network.initial_domain net name) with
        | Some iv when Interval.is_bounded iv -> Some (Interval.midpoint iv)
        | _ -> None)
    in
    let score x =
      let derived = recompute_derived dpm v ~extra:(prop, x) () in
      let lookup name =
        if String.equal name prop then Some x
        else
          match
            List.find_opt (fun (lj, _) -> String.equal v.v_outs.(lj) name) derived
          with
          | Some (_, y) -> Some y
          | None -> (
            match Network.assigned_num net name with
            | Some y -> Some y
            | None -> midpoint name)
      in
      let worst =
        List.fold_left
          (fun acc c ->
            incr evals;
            match
              ( Expr.eval_opt lookup c.Constr.lhs,
                Expr.eval_opt lookup c.Constr.rhs )
            with
            | Some l, Some r when Float.is_finite l && Float.is_finite r ->
              let raw =
                match c.Constr.rel with
                | Constr.Le -> r -. l
                | Constr.Ge -> l -. r
                | Constr.Eq -> -.Float.abs (l -. r)
              in
              let headroom = raw /. (1. +. Float.abs r) in
              Some (match acc with None -> headroom | Some a -> Float.min a headroom)
            | _ -> acc)
          None connected
      in
      match worst with
      | None -> None
      | Some s ->
        (* log of the worst headroom; an already-violated candidate ranks
           strictly below every positive-margin one, more-negative worse *)
        Some (if s > 0. then Float.log s else -1e18 +. s)
    in
    let best =
      List.fold_left
        (fun acc x ->
          match score x with
          | None -> acc
          | Some s -> (
            match acc with
            | Some (_, best_s) when best_s >= s -> acc
            | _ -> Some (x, s)))
        None candidates
    in
    Dpm.charge_evaluations dpm !evals;
    Option.map fst best
  end

(* Delta move for repairs (f_v's "choose from initial subspace" branch):
   exponential search while the direction persists, bisection on flip. *)
let delta_move d dpm prop direction =
  let net = Dpm.network dpm in
  let initial = Network.initial_domain net prop in
  match Domain.hull initial with
  | None -> None
  | Some hull ->
    let width = if Interval.is_bounded hull then Interval.width hull else 1.0 in
    let base_step = width /. d.cfg.Config.delta_divisor in
    let step =
      if d.cfg.Config.adaptive_delta then
        match Hashtbl.find_opt d.repair_memory prop with
        | Some (last_dir, last_step) when last_dir = direction ->
          Float.min (last_step *. 2.) (width /. 2.)
        | Some (_, last_step) -> Float.max (last_step /. 2.) (base_step /. 16.)
        | None -> base_step
      else base_step
    in
    Hashtbl.replace d.repair_memory prop (direction, step);
    let cur =
      match Network.assigned_num net prop with
      | Some v -> v
      | None -> Interval.midpoint hull
    in
    let signed s = match direction with `Up -> s | `Down -> -.s in
    let snap v =
      match initial with
      | Domain.Finite arr ->
        let beyond =
          Array.to_list arr
          |> List.filter (fun x ->
                 match direction with `Up -> x > cur | `Down -> x < cur)
        in
        (match (direction, beyond) with
        | `Up, x :: _ -> x
        | `Down, _ :: _ -> List.nth beyond (List.length beyond - 1)
        | _, [] -> v)
      | Domain.Continuous _ | Domain.Empty | Domain.Symbolic _ -> v
    in
    let discrete = match initial with Domain.Finite _ -> true | _ -> false in
    let rec attempt step tries =
      let candidate = snap (clamp hull (cur +. signed step)) in
      if candidate = cur then None (* saturated at a range bound *)
      else if
        (* pinned against a bound: the residual move is too small to fix
           anything and would starve better repair candidates *)
        (not discrete)
        && Float.abs (candidate -. cur) < base_step /. 8.
      then None
      else if is_tabu d prop candidate && tries < 6 then
        attempt (step *. 2.) (tries + 1)
      else if is_tabu d prop candidate then None
      else Some candidate
    in
    attempt step 0

(* {2 Operation construction} *)

(* Conventional mode: request verification of every eligible constraint of
   one owned problem (one tool-run batch; Section 3.1.2: verification
   operators run when a subsystem is complete). *)
let verification_op d dpm probs =
  match Dpm.mode dpm with
  | Dpm.Adpm -> None
  | Dpm.Conventional -> (
    let candidates =
      List.filter_map
        (fun (p, _) ->
          match
            List.filter (Dpm.verification_eligible dpm) p.Problem.pr_constraints
          with
          | [] -> None
          | cids -> Some (p, cids))
        probs
    in
    match candidates with
    | [] -> None
    | _ ->
      let p, cids = Rng.pick d.rng candidates in
      let motivated_by =
        List.filter (fun cid -> Hashtbl.mem d.pending_reverify cid) cids
      in
      Some
        (Operator.verification ~motivated_by ~designer:d.d_name
           ~problem:p.Problem.pr_id cids))

(* Repair: f_a picks the parameter whose single directed move is likely to
   fix the most known violations; f_v picks its new value. *)
let repair_op d dpm v probs =
  let kv = violated d dpm v in
  let params = free_outputs v in
  let votes = List.map (fun li -> (li, repair_votes v kv li)) params in
  let candidates = List.filter (fun (_, (_, _, a)) -> a > 0) votes in
  match candidates with
  | [] -> None
  | _ ->
    let score (li, (up, down, alpha)) =
      if d.cfg.Config.use_alpha_repair then begin
        (* primary: violations fixable by one directed move, discounted
           when other violations pull the opposite way and when recent
           repairs of this parameter resolved nothing; secondary: alpha *)
        let fixable =
          if d.cfg.Config.use_monotone_hints then
            float_of_int (max up down) -. (0.5 *. float_of_int (min up down))
          else 0.
        in
        let fatigue =
          float_of_int
            (try Hashtbl.find d.failed_repairs v.v_outs.(li) with Not_found -> 0)
        in
        -.(fixable -. fatigue +. (float_of_int alpha /. 1000.))
      end
      else Rng.float d.rng 1.0
    in
    let ranked =
      List.sort (fun a b -> compare (score a) (score b))
        (Rng.shuffle d.rng candidates)
    in
    let direction_for (up, down) =
      if not d.cfg.Config.use_monotone_hints then
        if Rng.bool d.rng then `Up else `Down
      else if up > down then `Up
      else if down > up then `Down
      else if Rng.bool d.rng then `Up
      else `Down
    in
    let repair_value li direction =
      let net = Dpm.network dpm in
      let prop = v.v_outs.(li) in
      let current = Network.assigned_num net prop in
      let differs = function
        | Some x when current <> Some x -> Some x
        | Some _ | None -> None
      in
      match Dpm.mode dpm with
      | Dpm.Adpm when d.cfg.Config.use_relaxed_feasible -> (
        (* constraint-margin window for the parameter, letting its
           dependent performance properties move with it *)
        let unpin =
          List.filter_map
            (fun lj -> if v.v_active.(lj) then Some v.v_outs.(lj) else None)
            v.v_unpin.(li)
        in
        let dom = Dpm.relaxed_feasible_group dpm ~target:prop ~unpin in
        match differs (pick_from_domain d prop dom direction) with
        | Some x when not (is_tabu d prop x) -> Some x
        | Some _ | None -> (
          match differs (random_in_domain d dom) with
          | Some x -> Some x
          | None -> delta_move d dpm prop direction))
      | Dpm.Adpm | Dpm.Conventional -> delta_move d dpm prop direction
    in
    (* escape of last resort: every candidate is tabu-locked or saturated —
       restart one of them at a fresh random value inside E_i *)
    let random_restart () =
      let net = Dpm.network dpm in
      let viable =
        List.filter_map
          (fun (li, _) ->
            let prop = v.v_outs.(li) in
            let current = Network.assigned_num net prop in
            let rec draw tries =
              if tries = 0 then None
              else
                match random_in_domain d (Network.initial_domain net prop) with
                | Some x when current <> Some x && not (is_tabu d prop x) ->
                  Some (li, x)
                | Some _ | None -> draw (tries - 1)
            in
            draw 8)
          ranked
      in
      match viable with [] -> None | _ -> Some (Rng.pick d.rng viable)
    in
    let rec try_candidates = function
      | [] -> (
        match random_restart () with
        | None -> None
        | Some (li, x) ->
          synthesis_op d dpm v probs ~motivated_by:(motivated_for v kv li) li x)
      | (li, (up, down, _)) :: rest -> (
        let direction = direction_for (up, down) in
        match repair_value li direction with
        | None -> try_candidates rest
        | Some x ->
          synthesis_op d dpm v probs ~motivated_by:(motivated_for v kv li) li x)
    in
    try_candidates ranked

(* Forward progress: f_a picks the unbound parameter with the smallest
   feasible subspace (ADPM) or a random one (conventional); f_v picks the
   value. *)
let forward_op d dpm v probs =
  let net = Dpm.network dpm in
  let unbound =
    List.filter
      (fun li -> not (Network.is_bound net v.v_outs.(li)))
      (free_outputs v)
  in
  match unbound with
  | [] -> (
    (* all parameters placed: run the tool once more if some performance
       property is still uncomputed *)
    let stale = recompute_derived dpm v () in
    let pending =
      List.filter (fun (li, _) -> not (Network.is_bound net v.v_outs.(li))) stale
    in
    match pending with
    | [] -> None
    | (li, _) :: _ -> (
      match problem_of_output probs li with
      | None -> None
      | Some p ->
        Some
          (Operator.synthesis ~designer:d.d_name ~problem:p.Problem.pr_id
             (assignments v stale))))
  | _ ->
    let pick_by score =
      match
        List.sort (fun a b -> compare (score a) (score b))
          (Rng.shuffle d.rng unbound)
      with
      | [] -> None
      | x :: _ -> Some x
    in
    let target =
      match (d.cfg.Config.forward_ordering, Dpm.mode dpm) with
      | Config.Smallest_subspace, Dpm.Adpm ->
        (* the mined relative size of v_F (Heuristic_data.hi_relative_size) *)
        pick_by (fun li ->
            let prop = v.v_outs.(li) in
            Domain.relative_measure
              ~initial:(Network.initial_domain net prop)
              (Network.feasible net prop))
      | Config.Most_constrained, (Dpm.Adpm | Dpm.Conventional) ->
        (* constraint membership is static knowledge, available either way;
           count model-mediated membership too (the 2.3.2 extension) *)
        pick_by (fun li -> -.float_of_int v.v_touches.(li))
      | (Config.Smallest_subspace | Config.Random_target), _ ->
        Some (Rng.pick d.rng unbound)
    in
    (match target with
    | None -> None
    | Some li ->
      let prop = v.v_outs.(li) in
      let value =
        match Dpm.mode dpm with
        | Dpm.Adpm -> (
          let feasible = Network.feasible net prop in
          if Domain.is_empty feasible then
            (* v_F = empty: choose from the initial range *)
            random_in_domain d (Network.initial_domain net prop)
          else
            let vote =
              match d.cfg.Config.value_policy with
              | Config.Endpoint -> endpoint_from_votes d v li feasible
              | Config.Headroom -> (
                match headroom_from_votes d dpm v li feasible with
                | Some x -> Some x
                | None -> endpoint_from_votes d v li feasible)
            in
            match vote with
            | Some x -> Some x
            | None -> random_in_domain d (Network.initial_domain net prop))
        | Dpm.Conventional ->
          (* no feasibility information: an engineering guess from the
             middle half of the initial range *)
          quantile_of_domain
            (Network.initial_domain net prop)
            (0.25 +. Rng.float d.rng 0.5)
      in
      (match value with
      | None -> None
      | Some x -> synthesis_op d dpm v probs li x))

(* Which of f_a's orderings actually drives forward target selection for
   this configuration and mode (the fallbacks in [forward_op]). *)
let forward_heuristic d dpm =
  match (d.cfg.Config.forward_ordering, Dpm.mode dpm) with
  | Config.Smallest_subspace, Dpm.Adpm -> Event.Smallest_subspace
  | Config.Most_constrained, (Dpm.Adpm | Dpm.Conventional) ->
    Event.Most_constrained
  | (Config.Smallest_subspace | Config.Random_target), _ -> Event.Random_target

let trace_decision d dpm heuristic op =
  let tr = Dpm.tracer dpm in
  if Tracer.active tr then begin
    let target =
      match op.Operator.op_kind with
      | Operator.Synthesis ((prop, _) :: _) -> Some prop
      | Operator.Synthesis [] | Operator.Verification _
      | Operator.Decompose _ ->
        None
    in
    let net = Dpm.network dpm in
    let alpha, beta =
      match target with
      | Some prop when Network.mem_prop net prop ->
        (Network.alpha net prop, Network.beta net prop)
      | Some _ | None -> (0, 0)
    in
    Tracer.emit tr
      (Event.Designer_decision
         { designer = d.d_name; heuristic; target; alpha; beta })
  end

let choose_operation d dpm =
  let v = view d dpm in
  let probs = addressable_problems v in
  match probs with
  | [] -> None
  | _ -> (
    let violations_known = any_violated v (violated d dpm v) in
    let chosen =
      if violations_known then
        match repair_op d dpm v probs with
        | Some op -> Some (Event.Conflict_resolution, op)
        | None -> (
          match verification_op d dpm probs with
          | Some op -> Some (Event.Verification_request, op)
          | None ->
            Option.map
              (fun op -> (forward_heuristic d dpm, op))
              (forward_op d dpm v probs))
      else
        match forward_op d dpm v probs with
        | Some op -> Some (forward_heuristic d dpm, op)
        | None ->
          Option.map
            (fun op -> (Event.Verification_request, op))
            (verification_op d dpm probs)
    in
    match chosen with
    | None -> None
    | Some (heuristic, op) ->
      trace_decision d dpm heuristic op;
      Some op)

let synthesis_with_tools d dpm prop x =
  let v = view d dpm in
  let probs = addressable_problems v in
  (* a property that is not one of my numeric outputs has no addressable
     problem to synthesize it in *)
  match Hashtbl.find_opt v.v_index prop with
  | None -> None
  | Some li ->
    let motivated_by = motivated_for v (violated d dpm v) li in
    synthesis_op d dpm v probs ~motivated_by li x

let request_verification d dpm =
  verification_op d dpm (addressable_problems (view d dpm))

let observe d dpm ~own op result =
  (* Every delivered outcome updates the believed constraint statuses —
     this is the knowledge the NM pushes. [r_status_changes] includes the
     conventional-mode freshness decays (Violated fading back to
     Consistent) that the violated/resolved lists omit. *)
  List.iter
    (fun (cid, _old, status) -> believe d cid status)
    result.Dpm.r_status_changes;
  match op.Operator.op_kind with
  | Operator.Synthesis assignments when own ->
    if result.Dpm.r_newly_violated <> [] && d.cfg.Config.use_history_tabu then
      List.iter
        (fun (prop, value) ->
          match value with
          | Value.Num v when not (is_derived d prop) ->
            Hashtbl.replace d.tabu (tabu_key prop v) ()
          | Value.Num _ | Value.Sym _ -> ())
        assignments;
    (match assignments with
    | (prop, Value.Num v) :: _ when not (is_derived d prop) ->
      d.last_synthesis <- Some (prop, v);
      (* ADPM feedback is immediate: a repair that resolved nothing tires
         out its parameter; one that helped restores it *)
      if Dpm.mode dpm = Dpm.Adpm && op.Operator.op_motivated_by <> [] then begin
        if result.Dpm.r_resolved = [] then begin
          let n = try Hashtbl.find d.failed_repairs prop with Not_found -> 0 in
          Hashtbl.replace d.failed_repairs prop (n + 1)
        end
        else Hashtbl.reset d.failed_repairs
      end
    | _ -> d.last_synthesis <- None);
    (* repairs await re-verification before the fix is trusted *)
    List.iter
      (fun cid -> Hashtbl.replace d.pending_reverify cid ())
      op.Operator.op_motivated_by
  | Operator.Verification cids ->
    (* Verification results — whoever ran them, including the leader's
       integration checks — are how conventional mode discovers damage.
       Attribute fresh violations touching my last assignment to it (the
       design-history consultation, Section 3.1.1 footnote). *)
    let touches_last prop =
      let v = view d dpm in
      match Hashtbl.find_opt v.v_index prop with
      | None -> false
      | Some li ->
        List.exists (fun cid -> touches v li cid) result.Dpm.r_newly_violated
    in
    (if d.cfg.Config.use_history_tabu then
       match d.last_synthesis with
       | Some (prop, v) when touches_last prop ->
         Hashtbl.replace d.tabu (tabu_key prop v) ()
       | Some _ | None -> ());
    (* repair fatigue, conventional flavour: a verification that re-finds a
       violation my repairs were supposed to fix — or surfaces a new one on
       the parameter I just moved — tires out that parameter; a resolution
       restores everyone *)
    (match d.last_synthesis with
    | Some (prop, _) ->
      let refound =
        List.exists
          (fun cid -> Hashtbl.mem d.pending_reverify cid)
          result.Dpm.r_newly_violated
      in
      if refound || touches_last prop then begin
        let n = try Hashtbl.find d.failed_repairs prop with Not_found -> 0 in
        Hashtbl.replace d.failed_repairs prop (n + 1)
      end
      else if result.Dpm.r_resolved <> [] then Hashtbl.reset d.failed_repairs
    | None -> ());
    List.iter (fun cid -> Hashtbl.remove d.pending_reverify cid) cids
  | Operator.Synthesis _ | Operator.Decompose _ -> ()

(* {2 Inspection} *)

let compiled_votes d dpm ~cid prop =
  let v = view d dpm in
  Option.map
    (fun li ->
      let k = (li * v.v_ncons) + cid in
      (v.v_up.(k), v.v_down.(k), v.v_touch.(k)))
    (Hashtbl.find_opt v.v_index prop)

let known_violated_ids d dpm =
  let v = view d dpm in
  let kv = violated d dpm v in
  List.filter (fun cid -> kv.(cid)) (List.init v.v_ncons Fun.id)

(* {2 Mailbox} *)

let deliver d ~own op result =
  Mailbox.push d.inbox { dv_own = own; dv_op = op; dv_result = result }

let drain d dpm =
  let pending = Mailbox.drain d.inbox in
  List.iter
    (fun { dv_own; dv_op; dv_result } -> observe d dpm ~own:dv_own dv_op dv_result)
    pending;
  List.length pending
