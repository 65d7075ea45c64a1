(* Shared-memory domain pool.

   Work distribution is chunk-handoff self-scheduling: one Atomic counter
   of the next unclaimed item index; each domain (the spawned workers and
   the calling domain, which participates) grabs items with
   [fetch_and_add] until the list is drained. No work queue, no
   stealing — for batches of similar-cost items (seed sweeps) this is
   within noise of a work-stealing deque and has no failure modes.

   Each result cell is written by exactly one domain and read by the
   caller only after [Domain.join] of every worker, which establishes the
   necessary happens-before edge; the item array is read-only after
   construction. No other state is shared — the item function must itself
   be domain-safe (the simulation runner is: each run builds its own
   network, Rng and DCM from the scenario closure). *)

exception Worker_error of { index : int; message : string }

let run_batch ~jobs ~f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let r =
        match f arr.(i) with
        | v -> Ok v
        | exception e -> Error ("worker raised: " ^ Printexc.to_string e)
      in
      out.(i) <- Some r;
      work ()
    end
  in
  let helpers = max 0 (min jobs n - 1) in
  let domains = Array.init helpers (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join domains;
  Array.map (function Some r -> r | None -> assert false) out

let map ~jobs ~f items =
  let results = run_batch ~jobs ~f items in
  let failure = ref None in
  (* scan right-to-left so the surviving failure is the lowest index:
     which domain failed first must not show in the report *)
  for i = Array.length results - 1 downto 0 do
    match results.(i) with
    | Error message -> failure := Some (i, message)
    | Ok _ -> ()
  done;
  match !failure with
  | Some (index, message) -> raise (Worker_error { index; message })
  | None ->
    Array.to_list
      (Array.map (function Ok v -> v | Error _ -> assert false) results)
