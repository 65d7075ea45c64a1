open Adpm_interval
open Adpm_expr

type prop = {
  p_name : string;
  p_id : int;
  p_initial : Domain.t;
  mutable p_assigned : Value.t option;
  mutable p_feasible : Domain.t;
  p_meta : (string * string) list;
}

type pstate = {
  ps_lo : float array;
  ps_hi : float array;
  ps_mask : bool array;
  ps_empties : (int, unit) Hashtbl.t;
}

type t = {
  props : (string, prop) Hashtbl.t;
  mutable prop_order : string list; (* reversed insertion order *)
  mutable by_id : prop array; (* dense, index = p_id *)
  constrs : (int, Constr.t) Hashtbl.t;
  mutable constr_order : int list; (* reversed *)
  adjacency : (string, int list) Hashtbl.t; (* reversed per prop *)
  statuses : (int, Constr.status) Hashtbl.t;
  declared_mono : (string, Monotone.direction) Hashtbl.t;
  (* key: "<cid>/<prop>" *)
  mutable next_cid : int;
  mutable n_rev : int;
  mutable n_struct : int;
  (* Structural revision: bumped only by add_prop/add_constraint/
     declare_monotone. The derived views below are keyed on it rather than
     on [n_rev], which also moves on every assignment and status update. *)
  mutable c_list_cache : (int * Constr.t list) option;
  mutable c_arr_cache : (int * Constr.t array) option;
  mutable adj_cache : (int * int array array) option;
  mutable k_arr_cache : (int * Hc4.kernel array) option;
  (* Compiled HC4 kernels indexed by constraint id. Kernels carry mutable
     scratch, so a network (and its copies, which share compiled kernels)
     must stay within one domain — which holds: every simulation run builds
     its own network. *)
  dirty : (string, unit) Hashtbl.t;
  mutable n_pstate : pstate option;
}

let create () =
  {
    props = Hashtbl.create 64;
    prop_order = [];
    by_id = [||];
    constrs = Hashtbl.create 64;
    constr_order = [];
    adjacency = Hashtbl.create 64;
    statuses = Hashtbl.create 64;
    declared_mono = Hashtbl.create 16;
    next_cid = 0;
    n_rev = 0;
    n_struct = 0;
    c_list_cache = None;
    c_arr_cache = None;
    adj_cache = None;
    k_arr_cache = None;
    dirty = Hashtbl.create 16;
    n_pstate = None;
  }

let bump t = t.n_rev <- t.n_rev + 1

let bump_struct t =
  t.n_struct <- t.n_struct + 1;
  bump t

let revision t = t.n_rev
let structure_revision t = t.n_struct
let mark_dirty t name = Hashtbl.replace t.dirty name ()
let dirty_props t = Hashtbl.fold (fun name () acc -> name :: acc) t.dirty []
let clear_dirty t = Hashtbl.reset t.dirty
let prop_state t = t.n_pstate

let store_prop_state t ps =
  t.n_pstate <- Some ps;
  bump t

let invalidate_prop_state t = t.n_pstate <- None

let copy_pstate ps =
  {
    ps_lo = Array.copy ps.ps_lo;
    ps_hi = Array.copy ps.ps_hi;
    ps_mask = Array.copy ps.ps_mask;
    ps_empties = Hashtbl.copy ps.ps_empties;
  }

let copy t =
  let fresh = create () in
  Hashtbl.iter
    (fun name p -> Hashtbl.replace fresh.props name { p with p_name = p.p_name })
    t.props;
  fresh.prop_order <- t.prop_order;
  fresh.by_id <-
    Array.map (fun p -> Hashtbl.find fresh.props p.p_name) t.by_id;
  Hashtbl.iter (fun id c -> Hashtbl.replace fresh.constrs id c) t.constrs;
  fresh.constr_order <- t.constr_order;
  Hashtbl.iter (fun name ids -> Hashtbl.replace fresh.adjacency name ids) t.adjacency;
  Hashtbl.iter (fun id s -> Hashtbl.replace fresh.statuses id s) t.statuses;
  Hashtbl.iter (fun k d -> Hashtbl.replace fresh.declared_mono k d) t.declared_mono;
  fresh.next_cid <- t.next_cid;
  fresh.n_rev <- t.n_rev;
  fresh.n_struct <- t.n_struct;
  (* compiled kernels are immutable programs + scratch: safe to share
     between sequentially-used copies *)
  fresh.k_arr_cache <- t.k_arr_cache;
  Hashtbl.iter (fun name () -> Hashtbl.replace fresh.dirty name ()) t.dirty;
  fresh.n_pstate <- Option.map copy_pstate t.n_pstate;
  fresh

let add_prop t ?(meta = []) name domain =
  if Hashtbl.mem t.props name then
    invalid_arg (Printf.sprintf "Network.add_prop: duplicate property %s" name);
  if Domain.is_empty domain then
    invalid_arg (Printf.sprintf "Network.add_prop: empty initial domain for %s" name);
  let p =
    { p_name = name; p_id = Array.length t.by_id; p_initial = domain;
      p_assigned = None; p_feasible = domain; p_meta = meta }
  in
  Hashtbl.replace t.props name p;
  t.prop_order <- name :: t.prop_order;
  t.by_id <- Array.append t.by_id [| p |];
  (* structural change: any persisted propagation state is stale *)
  invalidate_prop_state t;
  bump_struct t

let prop_names t = List.rev t.prop_order

let find_prop t name =
  match Hashtbl.find_opt t.props name with
  | Some p -> p
  | None ->
    invalid_arg (Printf.sprintf "Network.find_prop: unknown property '%s'" name)

let mem_prop t name = Hashtbl.mem t.props name
let prop_count t = Array.length t.by_id
let prop_by_id t id = t.by_id.(id)
let prop_id t name = (find_prop t name).p_id
let initial_domain t name = (find_prop t name).p_initial
let feasible t name = (find_prop t name).p_feasible
let set_feasible t name d =
  (find_prop t name).p_feasible <- d;
  bump t

let assign t name value =
  let p = find_prop t name in
  (match (value, p.p_initial) with
  | Value.Num x, (Domain.Continuous _ | Domain.Finite _) ->
    (match Domain.hull p.p_initial with
    | Some iv when Interval.mem x iv -> ()
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "Network.assign: %g outside initial range of %s" x name))
  | Value.Sym s, Domain.Symbolic _ ->
    if not (Domain.mem_sym s p.p_initial) then
      invalid_arg
        (Printf.sprintf "Network.assign: %s outside initial range of %s" s name)
  | Value.Num _, (Domain.Symbolic _ | Domain.Empty)
  | Value.Sym _, (Domain.Continuous _ | Domain.Finite _ | Domain.Empty) ->
    invalid_arg (Printf.sprintf "Network.assign: kind mismatch for %s" name));
  p.p_assigned <- Some value;
  mark_dirty t name;
  bump t

let unassign t name =
  (find_prop t name).p_assigned <- None;
  mark_dirty t name;
  bump t
let assigned t name = (find_prop t name).p_assigned

let assigned_num t name =
  match assigned t name with
  | Some (Value.Num x) -> Some x
  | Some (Value.Sym _) | None -> None

let is_bound t name = assigned t name <> None

let numeric_props t =
  List.filter (fun n -> Domain.is_numeric (initial_domain t n)) (prop_names t)

let all_numeric_bound t = List.for_all (fun n -> is_bound t n) (numeric_props t)

let box t name =
  let p = find_prop t name in
  match p.p_assigned with
  | Some (Value.Num x) -> Some (Interval.of_point x)
  | Some (Value.Sym _) -> None
  | None -> Domain.hull p.p_initial

let env_box t name =
  match box t name with
  | Some iv -> iv
  | None -> raise (Expr.Unbound_variable name)

let env_point t name =
  match assigned_num t name with
  | Some x -> x
  | None -> raise (Expr.Unbound_variable name)

let add_constraint t ~name lhs rel rhs =
  let c = Constr.make ~id:t.next_cid ~name lhs rel rhs in
  List.iter
    (fun arg ->
      (match Hashtbl.find_opt t.props arg with
      | None ->
        invalid_arg
          (Printf.sprintf "Network.add_constraint: unknown property %s in %s" arg name)
      | Some p ->
        if not (Domain.is_numeric p.p_initial) then
          invalid_arg
            (Printf.sprintf
               "Network.add_constraint: symbolic property %s in %s" arg name));
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.adjacency arg) in
      Hashtbl.replace t.adjacency arg (c.Constr.id :: prev))
    (Constr.args c);
  Hashtbl.replace t.constrs c.Constr.id c;
  t.constr_order <- c.Constr.id :: t.constr_order;
  t.next_cid <- t.next_cid + 1;
  invalidate_prop_state t;
  bump_struct t;
  c

let find_constraint t id =
  match Hashtbl.find_opt t.constrs id with
  | Some c -> c
  | None ->
    invalid_arg (Printf.sprintf "Network.find_constraint: unknown constraint id %d" id)

let constraints t =
  match t.c_list_cache with
  | Some (r, cs) when r = t.n_struct -> cs
  | _ ->
    let cs = List.rev_map (fun id -> find_constraint t id) t.constr_order in
    t.c_list_cache <- Some (t.n_struct, cs);
    cs

let constraint_array t =
  match t.c_arr_cache with
  | Some (r, arr) when r = t.n_struct -> arr
  | _ ->
    (* constraint ids are dense (allocated 0,1,2,.. and never removed), so
       the array is indexed directly by id *)
    let arr = Array.of_list (constraints t) in
    Array.iteri
      (fun i c -> assert (c.Constr.id = i))
      arr;
    t.c_arr_cache <- Some (t.n_struct, arr);
    arr

let constraint_count t = Hashtbl.length t.constrs

let constraints_of_prop t name =
  match Hashtbl.find_opt t.adjacency name with
  | None ->
    if not (Hashtbl.mem t.props name) then
      invalid_arg
        (Printf.sprintf "Network.constraints_of_prop: unknown property '%s'" name);
    []
  | Some ids -> List.rev_map (fun id -> find_constraint t id) ids

let adjacency_by_id t =
  match t.adj_cache with
  | Some (r, arr) when r = t.n_struct -> arr
  | _ ->
    let arr =
      Array.map
        (fun p ->
          match Hashtbl.find_opt t.adjacency p.p_name with
          | None -> [||]
          | Some ids ->
            (* stored reversed; emit insertion order *)
            let a = Array.of_list ids in
            let n = Array.length a in
            Array.init n (fun i -> a.(n - 1 - i)))
        t.by_id
    in
    t.adj_cache <- Some (t.n_struct, arr);
    arr

let kernels t =
  match t.k_arr_cache with
  | Some (r, arr) when r = t.n_struct -> arr
  | cached ->
    (* constraints are never removed and prop ids never move, so kernels
       compiled before a structural change stay valid: keep them, compile
       only the constraints added since *)
    let old = match cached with Some (_, arr) -> arr | None -> [||] in
    let arr =
      Array.mapi
        (fun i c ->
          if i < Array.length old then old.(i)
          else
            Hc4.compile
              ~var_id:(fun x -> (find_prop t x).p_id)
              (Constr.diff c) ~target:(Constr.target c))
        (constraint_array t)
    in
    t.k_arr_cache <- Some (t.n_struct, arr);
    arr

let kernel t c = (kernels t).(c.Constr.id)

let status t id =
  match Hashtbl.find_opt t.statuses id with
  | Some s -> s
  | None -> Constr.Consistent

let set_status t id s =
  Hashtbl.replace t.statuses id s;
  bump t

let reset_statuses t =
  Hashtbl.reset t.statuses;
  bump t

let violated t =
  List.filter (fun c -> status t c.Constr.id = Constr.Violated) (constraints t)

let beta t name = List.length (constraints_of_prop t name)

let alpha t name =
  List.length
    (List.filter
       (fun c -> status t c.Constr.id = Constr.Violated)
       (constraints_of_prop t name))

let mono_key cid prop = Printf.sprintf "%d/%s" cid prop

let declare_monotone t cid prop dir =
  Hashtbl.replace t.declared_mono (mono_key cid prop) dir;
  bump_struct t

let diff_direction t c prop =
  match Hashtbl.find_opt t.declared_mono (mono_key c.Constr.id prop) with
  | Some dir -> dir
  | None ->
    let env name =
      match Domain.hull (initial_domain t name) with
      | Some iv -> iv
      | None -> raise Not_found
    in
    (try Monotone.direction ~env (Constr.diff c) prop
     with Not_found -> Monotone.Unknown)

let helps_direction t c prop =
  let dir = diff_direction t c prop in
  match (c.Constr.rel, dir) with
  | _, (Monotone.Constant | Monotone.Unknown) -> `None
  | Constr.Le, Monotone.Increasing -> `Down (* shrinking lhs-rhs helps *)
  | Constr.Le, Monotone.Decreasing -> `Up
  | Constr.Ge, Monotone.Increasing -> `Up
  | Constr.Ge, Monotone.Decreasing -> `Down
  | Constr.Eq, (Monotone.Increasing | Monotone.Decreasing) -> `None

let check_constraint_point t c = Constr.check_point (env_point t) c

let solved t =
  all_numeric_bound t
  && List.for_all (fun c -> check_constraint_point t c) (constraints t)

let reset_assignments t =
  Hashtbl.iter (fun _ p -> p.p_assigned <- None) t.props;
  invalidate_prop_state t;
  clear_dirty t;
  bump t
