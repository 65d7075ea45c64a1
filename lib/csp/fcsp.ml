type t = {
  nvars : int;
  domains : int list array;
  constraints : (int * int * (int -> int -> bool)) list;
}

let make ~nvars ~domains ~constraints =
  if Array.length domains <> nvars then
    invalid_arg "Fcsp.make: domains array length mismatch";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= nvars || j < 0 || j >= nvars || i = j then
        invalid_arg "Fcsp.make: bad constraint scope")
    constraints;
  { nvars; domains = Array.copy domains; constraints }

let degree csp v =
  List.length (List.filter (fun (i, j, _) -> i = v || j = v) csp.constraints)

let consistent_assignment csp assignment =
  List.for_all
    (fun (i, j, ok) -> ok assignment.(i) assignment.(j))
    csp.constraints

type ac3_result = Consistent of int list array | Inconsistent

(* Directed arcs: for constraint (i, j, ok) we revise i against j and j
   against i. *)
let ac3 csp =
  let domains = Array.copy csp.domains in
  let arcs =
    List.concat_map
      (fun (i, j, ok) -> [ (i, j, ok); (j, i, fun a b -> ok b a) ])
      csp.constraints
  in
  let queue = Queue.create () in
  List.iter (fun arc -> Queue.add arc queue) arcs;
  let revisions = ref 0 in
  let wiped = ref false in
  while (not !wiped) && not (Queue.is_empty queue) do
    let i, j, ok = Queue.pop queue in
    incr revisions;
    let supported vi = List.exists (fun vj -> ok vi vj) domains.(j) in
    let kept = List.filter supported domains.(i) in
    if List.length kept < List.length domains.(i) then begin
      domains.(i) <- kept;
      if kept = [] then wiped := true
      else
        List.iter
          (fun (a, b, okab) ->
            if b = i && a <> j then Queue.add (a, b, okab) queue;
            if a = i && b <> j then
              Queue.add (b, a, (fun x y -> okab y x)) queue)
          csp.constraints
    end
  done;
  if !wiped then (Inconsistent, !revisions) else (Consistent domains, !revisions)

let solutions ?(limit = max_int) csp =
  let found = ref [] in
  let count = ref 0 in
  let assignment = Array.make csp.nvars min_int in
  let compatible v value =
    List.for_all
      (fun (i, j, ok) ->
        if i = v && j < v then ok value assignment.(j)
        else if j = v && i < v then ok assignment.(i) value
        else true)
      csp.constraints
  in
  let rec go v =
    if !count >= limit then ()
    else if v = csp.nvars then begin
      found := Array.copy assignment :: !found;
      incr count
    end
    else
      List.iter
        (fun value ->
          if !count < limit && compatible v value then begin
            assignment.(v) <- value;
            go (v + 1)
          end)
        csp.domains.(v)
  in
  go 0;
  List.rev !found
