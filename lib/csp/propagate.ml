open Adpm_interval
open Adpm_expr
open Adpm_trace

type outcome = {
  feasible : Domain.t array;
  statuses : Constr.status array;
  evaluations : int;
  revisions : int;
  fixpoint : bool;
}

(* The working box store of a propagation run: struct-of-arrays float
   layout indexed by dense prop id, so the HC4 kernels revise it without
   boxing intervals. [mask] is true where the property has a box (numeric
   and not symbolically assigned); it never changes during a run. *)
type store = { lo : float array; hi : float array; mask : bool array }

let store_box st pid = Interval.make st.lo.(pid) st.hi.(pid)

(* [narrowed] is always a sub-interval of [old_iv] (HC4 intersects with the
   input box); requeue only when the width shrank. When both widths are
   infinite their difference says nothing ([inf < inf] is false even when a
   bound genuinely moved, e.g. [-inf,+inf] -> [0,+inf]), so compare the
   bounds directly. *)
let[@inline] narrower_f ~olo ~ohi ~nlo ~nhi =
  let old_w = ohi -. olo and new_w = nhi -. nlo in
  if Float.is_finite old_w then new_w < old_w
  else if Float.is_finite new_w then true
  else nlo > olo || nhi < ohi

let is_numeric (p : Network.prop) = Domain.is_numeric p.Network.p_initial

(* Load the start box of numeric property [p] ({!Network.box}): its
   assigned point when bound and [pinned], otherwise the hull of its
   initial range. *)
let load_prop st (p : Network.prop) ~pinned =
  let pid = p.Network.p_id in
  match if pinned then p.Network.p_assigned else None with
  | Some (Value.Num x) ->
    st.lo.(pid) <- x;
    st.hi.(pid) <- x;
    st.mask.(pid) <- true
  | Some (Value.Sym _) -> ()
  | None -> (
    match Domain.hull p.Network.p_initial with
    | Some iv ->
      st.lo.(pid) <- Interval.lo iv;
      st.hi.(pid) <- Interval.hi iv;
      st.mask.(pid) <- true
    | None -> ())

let initial_store net =
  let n = Network.prop_count net in
  let st =
    { lo = Array.make n 0.; hi = Array.make n 0.; mask = Array.make n false }
  in
  for pid = 0 to n - 1 do
    let p = Network.prop_by_id net pid in
    if is_numeric p then load_prop st p ~pinned:true
  done;
  st

let copy_store st =
  { lo = Array.copy st.lo; hi = Array.copy st.hi; mask = Array.copy st.mask }

(* The HC4 fixpoint core, shared by hull propagation and shaving probes.
   Mutates the store; returns the evaluation count, whether some constraint
   became certainly unsatisfiable on the box, and whether the revision
   budget was exhausted. Constraints found Empty are recorded in
   [empty_marks] when provided. When [waves] is given, it receives the
   revision count of each propagation wave in order: wave 0 is the initial
   queue — [seed] when given (the incremental engine's dirty-seeded
   worklist), every constraint otherwise — and wave n+1 the constraints
   requeued while processing wave n.

   The loop runs entirely on dense ids and allocates nothing per
   revision: kernels come from the cached id-indexed array, the worklist is
   a ring buffer of constraint ids with plain bool membership flags (a
   constraint is queued at most once, so [n_con] slots suffice), and a
   revision is one [Hc4.revise_kernel] call against the float store
   followed by an in-place gate over the kernel's accumulator slots. *)
let fixpoint ~max_revisions ?empty_marks ?waves ?seed net st =
  let kernels = Network.kernels net in
  let adj = Network.adjacency_by_id net in
  let n_con = Array.length kernels in
  let cap = max 1 n_con in
  let ring = Array.make cap 0 and head = ref 0 and queue_len = ref 0 in
  let queued = Array.make cap false in
  let enqueue cid =
    if not queued.(cid) then begin
      queued.(cid) <- true;
      ring.((!head + !queue_len) mod cap) <- cid;
      incr queue_len
    end
  in
  (match seed with
  | Some cs -> List.iter (fun c -> enqueue c.Constr.id) cs
  | None ->
    for cid = 0 to n_con - 1 do
      enqueue cid
    done);
  let evaluations = ref 0 in
  let budget_hit = ref false in
  let any_empty = ref false in
  let wave_sizes = ref [] (* reversed *) in
  let this_wave = ref 0 in
  let wave_boundary = ref !queue_len in
  let continue_loop () =
    if !queue_len = 0 then false
    else if !evaluations >= max_revisions then begin
      budget_hit := true;
      false
    end
    else true
  in
  while continue_loop () do
    if !wave_boundary = 0 then begin
      wave_sizes := !this_wave :: !wave_sizes;
      this_wave := 0;
      wave_boundary := !queue_len
    end;
    let cid = ring.(!head) in
    head := (!head + 1) mod cap;
    decr queue_len;
    queued.(cid) <- false;
    decr wave_boundary;
    incr this_wave;
    incr evaluations;
    let k = kernels.(cid) in
    if not (Hc4.revise_kernel k ~lo:st.lo ~hi:st.hi) then begin
      any_empty := true;
      match empty_marks with
      | Some marks -> Hashtbl.replace marks cid ()
      | None -> ()
    end
    else begin
      let kv = k.Hc4.k_vars in
      let acc_lo = k.Hc4.k_acc_lo and acc_hi = k.Hc4.k_acc_hi in
      for j = 0 to Array.length kv - 1 do
        let pid = kv.(j) in
        let olo = st.lo.(pid) and ohi = st.hi.(pid) in
        let nlo = acc_lo.(j) and nhi = acc_hi.(j) in
        (* A bound move that leaves the width unchanged is discarded, not
           just left unqueued: applying it would make the final box depend
           on the revision trajectory, and the incremental engine restarts
           from the stored fixpoint along a different trajectory than a
           from-scratch run. Discarding leaves the stored boxes an exact
           fixpoint of this gated contraction, so both converge to
           bit-identical results. *)
        if (not (olo = nlo && ohi = nhi)) && narrower_f ~olo ~ohi ~nlo ~nhi
        then begin
          st.lo.(pid) <- nlo;
          st.hi.(pid) <- nhi;
          (* The revised constraint requeues itself too: HC4-revise is
             not idempotent, and fair scheduling (iterate until no
             revise can change anything) is what makes the final boxes
             a true fixpoint — and therefore independent of revision
             order, which the incremental engine's bit-identical
             equivalence with from-scratch runs rests on. *)
          let near = adj.(pid) in
          for i = 0 to Array.length near - 1 do
            enqueue near.(i)
          done
        end
      done
    end
  done;
  if !this_wave > 0 then wave_sizes := !this_wave :: !wave_sizes;
  (match waves with
  | Some cell -> cell := List.rev !wave_sizes
  | None -> ());
  (!evaluations, !any_empty, !budget_hit)

(* 3B-style bound shaving: try to prove the outermost [1/slices] slice of a
   variable's box infeasible by running the fixpoint on a copy; on success
   the bound moves inward. Each probe's revisions are charged to the
   caller's counter. *)
let shave_bounds ~max_revisions ~slices net st evaluations =
  let probe pid slice =
    let cp = copy_store st in
    cp.lo.(pid) <- Interval.lo slice;
    cp.hi.(pid) <- Interval.hi slice;
    let evals, infeasible, _ =
      fixpoint ~max_revisions:(max_revisions / 4) net cp
    in
    evaluations := !evaluations + evals;
    infeasible
  in
  let shave_prop pid =
    let changed = ref false in
    let attempt side =
      let iv = store_box st pid in
      let w = Interval.width iv in
      if Float.is_finite w && w > 0. then begin
        let step = w /. float_of_int slices in
        let lo = Interval.lo iv and hi = Interval.hi iv in
        let slice, rest =
          match side with
          | `Low -> (Interval.make lo (lo +. step), Interval.make (lo +. step) hi)
          | `High -> (Interval.make (hi -. step) hi, Interval.make lo (hi -. step))
        in
        if probe pid slice then begin
          st.lo.(pid) <- Interval.lo rest;
          st.hi.(pid) <- Interval.hi rest;
          changed := true
        end
      end
    in
    attempt `Low;
    attempt `High;
    !changed
  in
  let unbound =
    List.filter_map
      (fun pid ->
        let p = Network.prop_by_id net pid in
        if is_numeric p && p.Network.p_assigned = None then Some pid else None)
      (List.init (Network.prop_count net) Fun.id)
  in
  (* one shaving sweep per variable, repeated while it makes progress and
     the budget allows; bounded to avoid slow convergence *)
  let rec shave_rounds remaining =
    if remaining = 0 || !evaluations >= max_revisions then ()
    else begin
      let progress =
        List.fold_left
          (fun acc pid ->
            if !evaluations >= max_revisions then acc
            else shave_prop pid || acc)
          false unbound
      in
      if progress then begin
        (* re-contract with plain propagation after successful shaves *)
        let evals, _, _ = fixpoint ~max_revisions net st in
        evaluations := !evaluations + evals;
        shave_rounds (remaining - 1)
      end
    end
  in
  shave_rounds 3

(* The feasible subspace of property [p] on the store: its initial range
   refined by its contracted box. *)
let feasible_of st (p : Network.prop) =
  let pid = p.Network.p_id in
  if st.mask.(pid) then Domain.refine p.Network.p_initial (store_box st pid)
  else p.Network.p_initial

(* True when every argument of kernel [k] has an interval box in the store
   (no NaN, [lo <= hi]), which the forward-pass status needs. *)
let boxes_valid st k =
  let vars = k.Hc4.k_vars in
  let ok = ref true in
  for j = 0 to Array.length vars - 1 do
    let pid = vars.(j) in
    if not (st.mask.(pid) && st.lo.(pid) <= st.hi.(pid)) then ok := false
  done;
  !ok

(* The final classification sweep shared by both paths: status of every
   constraint on the contracted box (one evaluation each, a forward pass of
   its kernel) plus the feasible subspace of every property, both indexed
   by id. *)
let classify net st empty_marks revisions =
  let carr = Network.constraint_array net and kernels = Network.kernels net in
  let statuses =
    Array.mapi
      (fun cid c ->
        let k = kernels.(cid) in
        if Hashtbl.mem empty_marks cid then Constr.Violated
        else if boxes_valid st k then Constr.status_of_kernel c k ~lo:st.lo ~hi:st.hi
        else
          (* a NaN or inverted bound: the boxed evaluation raises on it *)
          let env name =
            let pid = Network.prop_id net name in
            if st.mask.(pid) then store_box st pid
            else raise (Expr.Unbound_variable name)
          in
          Constr.status_on_box env c)
      carr
  in
  let feasible =
    Array.init (Network.prop_count net) (fun pid ->
        feasible_of st (Network.prop_by_id net pid))
  in
  (statuses, feasible, revisions + Array.length carr)

(* [base_revisions] charges work done before this run to its counters: a
   full restart that replaces an aborted incremental attempt inherits the
   attempt's revisions, so reported costs reflect all HC4 work performed. *)
let run_core ~max_revisions ~consistency ~tracer ~engine ~st ~empty_marks
    ~seed ?(base_revisions = 0) net =
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Propagation_started { constraints = Network.constraint_count net });
  let seeded =
    match seed with
    | Some cs -> List.length cs
    | None -> Network.constraint_count net
  in
  let waves = ref [] in
  let evals, _, budget_hit =
    fixpoint ~max_revisions ~empty_marks ~waves ?seed net st
  in
  let revisions = ref (base_revisions + evals) in
  (match consistency with
  | `Hull -> ()
  | `Shave slices ->
    if slices < 2 then invalid_arg "Propagate.run: shaving needs >= 2 slices";
    shave_bounds ~max_revisions ~slices net st revisions);
  let statuses, feasible, evaluations = classify net st empty_marks !revisions in
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Propagation_finished
         {
           engine;
           seeded;
           evaluations;
           revisions = !revisions;
           waves = !waves;
           empties = Hashtbl.length empty_marks;
           fixpoint = not budget_hit;
         });
  { feasible; statuses; evaluations; revisions = !revisions; fixpoint = not budget_hit }

let run ?(max_revisions = 10_000) ?(consistency = `Hull) ?(tracer = Tracer.null)
    net =
  run_core ~max_revisions ~consistency ~tracer ~engine:"full"
    ~st:(initial_store net)
    ~empty_marks:(Hashtbl.create 8)
    ~seed:None net

(* Constraints touching any dirty property, first-seen order, deduplicated. *)
let dirty_seed net dirty =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let acc =
    List.fold_left
      (fun acc name ->
        List.fold_left
          (fun acc c ->
            if Hashtbl.mem seen c.Constr.id then acc
            else begin
              Hashtbl.replace seen c.Constr.id ();
              c :: acc
            end)
          acc
          (Network.constraints_of_prop net name))
      [] dirty
  in
  List.rev acc

let run_incremental ?(max_revisions = 10_000) ?(tracer = Tracer.null) net =
  let persist st empty_marks outcome =
    Network.store_prop_state net
      {
        Network.ps_lo = st.lo;
        ps_hi = st.hi;
        ps_mask = st.mask;
        ps_empties = empty_marks;
      };
    Network.clear_dirty net;
    outcome
  in
  let full_restart ?(base_revisions = 0) () =
    let st = initial_store net in
    let empty_marks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    persist st empty_marks
      (run_core ~max_revisions ~consistency:`Hull ~tracer ~engine:"full"
         ~st ~empty_marks ~seed:None ~base_revisions net)
  in
  match Network.prop_state net with
  | None -> full_restart ()
  | Some ps when Array.length ps.Network.ps_lo <> Network.prop_count net ->
    (* stale shape (shouldn't happen: structural edits invalidate) *)
    full_restart ()
  | Some ps ->
    let dirty = Network.dirty_props net in
    (* Restarting from the previous fixpoint is sound only when every dirty
       property's fresh box lies inside the stored contracted box:
       propagation is a monotone contraction, so narrowing the start can
       only reproduce the same greatest fixpoint. Unassignments and
       assignments outside the stored box widen the start, in which case a
       stale contraction could wrongly survive — fall back to a
       from-scratch run. *)
    let narrowing_only =
      List.for_all
        (fun name ->
          match Network.box net name with
          | None -> true (* symbolic: propagation never sees it *)
          | Some fresh ->
            let pid = Network.prop_id net name in
            ps.Network.ps_mask.(pid)
            && ps.Network.ps_lo.(pid) <= Interval.lo fresh
            && Interval.hi fresh <= ps.Network.ps_hi.(pid))
        dirty
    in
    (* Empty constraints break the order-independence argument: a revise
       that returns Empty contributes no narrowings, so *when* a constraint
       turns empty along a trajectory decides which of its earlier
       narrowings survive in the final box. Emptiness is monotone downward
       (both the backward projections and the box shrink as the box
       shrinks, so a constraint empty on a box is empty on every sub-box),
       which yields a sound discipline: only restart incrementally from an
       empty-free stored state, and discard the attempt if it discovers
       any empty. An empty-free attempt then certifies the from-scratch
       run is empty-free too — a constraint empty anywhere along the full
       trajectory would be empty on the attempt's (tighter) fixpoint, and
       fair scheduling revises every constraint at its arguments' final
       values, so the attempt (or, for untouched constraints, the previous
       run) would have marked it. *)
    if (not narrowing_only) || Hashtbl.length ps.Network.ps_empties > 0 then
      full_restart ()
    else begin
      let st =
        {
          lo = Array.copy ps.Network.ps_lo;
          hi = Array.copy ps.Network.ps_hi;
          mask = Array.copy ps.Network.ps_mask;
        }
      in
      List.iter
        (fun name ->
          match Network.box net name with
          | Some fresh ->
            let pid = Network.prop_id net name in
            st.lo.(pid) <- Interval.lo fresh;
            st.hi.(pid) <- Interval.hi fresh
          | None -> ())
        dirty;
      let empty_marks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let outcome =
        run_core ~max_revisions ~consistency:`Hull ~tracer
          ~engine:"incremental" ~st ~empty_marks
          ~seed:(Some (dirty_seed net dirty))
          net
      in
      if Hashtbl.length empty_marks > 0 then
        (* A dirty assignment introduced a conflict: the attempt's result
           is trajectory-dependent, so rerun from scratch, charging the
           aborted attempt's work to the restart. *)
        full_restart ~base_revisions:outcome.revisions ()
      else persist st empty_marks outcome
    end

let apply net outcome =
  Array.iteri
    (fun pid d ->
      let p = Network.prop_by_id net pid in
      if is_numeric p then Network.set_feasible net p.Network.p_name d)
    outcome.feasible;
  Array.iteri (fun cid s -> Network.set_status net cid s) outcome.statuses

let numeric_feasible net outcome =
  List.filter_map
    (fun pid ->
      let p = Network.prop_by_id net pid in
      if is_numeric p then Some (p.Network.p_name, outcome.feasible.(pid))
      else None)
    (List.init (Array.length outcome.feasible) Fun.id)

let run_incremental_and_apply ?max_revisions ?tracer net =
  let outcome = run_incremental ?max_revisions ?tracer net in
  apply net outcome;
  outcome

(* The store starts as a full run's would, except that [target] and the
   [unpin] properties start from their initial hulls; only the fixpoint
   runs, the network is not copied, and only the target's feasible subspace
   is read off. The evaluation charge stays that of a full run: the
   revisions plus one status evaluation per constraint. *)
let relaxed_feasible_group ?(max_revisions = 10_000) net ~target ~unpin =
  let freed = List.map (Network.find_prop net) (target :: unpin) in
  let st = initial_store net in
  List.iter (fun p -> if is_numeric p then load_prop st p ~pinned:false) freed;
  let revisions, _, _ = fixpoint ~max_revisions net st in
  (feasible_of st (List.hd freed), revisions + Network.constraint_count net)

let relaxed_feasible ?max_revisions net name =
  relaxed_feasible_group ?max_revisions net ~target:name ~unpin:[]
