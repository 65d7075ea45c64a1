(* Tests for the multi-seed runner: Engine.run_many on the shared-memory
   domain pool returns summary lists bit-identical to the sequential
   reference on every scenario, both modes, jobs in {1,2,4}, in seed
   order; and the Dpool failure contract — a raising worker surfaces as
   Worker_error with the lowest failing index, which run_many reports as
   a Failure naming that seed. [suite] sweeps randomized seeds;
   [parallel_suite] pins the fixed seeds 1-4 and the small-input edges of
   Dpool.map. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
module Dpool = Adpm_parallel.Dpool

let summary =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Metrics.summary_line s))
    ( = )

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let scenarios =
  [
    Simple.scenario;
    Lna.scenario;
    Sensor.scenario;
    Receiver.scenario;
    Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3);
  ]

(* The seed lists are randomized (drawn fresh per scenario x mode cell from
   a master PRNG) so repeated CI runs sweep different corners of seed
   space; the fixed corner (seeds 1-4) is always covered by
   [test_fixed_seed_equivalence]. The master seed is printed in every
   failure message so any discrepancy is reproducible with
   ADPM_TEST_SEED. *)
let master_seed =
  match Sys.getenv_opt "ADPM_TEST_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5eed)
  | None -> 0x5eed

(* Three execution paths must agree: a plain List.map over Engine.run (the
   reference), run_many's sequential path (jobs = 1) and the domain pool
   (jobs 2 and 4). *)
let test_three_path_equivalence () =
  let rng = Random.State.make [| master_seed |] in
  List.iter
    (fun scenario ->
      List.iter
        (fun mode ->
          let seeds =
            List.init 4 (fun _ -> 1 + Random.State.int rng 10_000)
          in
          let cfg = Config.default ~mode ~seed:0 in
          let reference =
            List.map
              (fun seed ->
                (Engine.run (Config.with_seed cfg seed) scenario)
                  .Engine.o_summary)
              seeds
          in
          List.iter
            (fun jobs ->
              let got = Engine.run_many ~jobs cfg scenario ~seeds in
              List.iter2
                (fun want have ->
                  Alcotest.check summary
                    (Printf.sprintf "%s/%s jobs=%d seed=%d (ADPM_TEST_SEED=%d)"
                       scenario.Scenario.sc_name (Dpm.mode_to_string mode)
                       jobs want.Metrics.s_seed master_seed)
                    want have)
                reference got)
            [ 1; 2; 4 ])
        [ Dpm.Conventional; Dpm.Adpm ])
    scenarios

let test_seed_order_preserved () =
  let seeds = [ 9; 3; 7; 1; 5 ] in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:0 in
  let summaries = Engine.run_many ~jobs:3 cfg Sensor.scenario ~seeds in
  Alcotest.(check (list int))
    "seed order preserved" seeds
    (List.map (fun s -> s.Metrics.s_seed) summaries)

let test_dpool_identity () =
  let items = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let f x = string_of_int (x * x) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d keeps order" jobs)
        expected
        (Dpool.map ~jobs ~f items))
    [ 1; 2; 3; 8; 100 ];
  Alcotest.(check (list string))
    "empty input" []
    (Dpool.map ~jobs:4 ~f:(fun (_ : int) -> "x") [])

let test_dpool_worker_raises_lowest_index () =
  (* Many items, several raising: the reported index must be the lowest
     failing one regardless of which domain got there first. *)
  let items = List.init 64 (fun i -> i) in
  let f i = if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i) else i in
  List.iter
    (fun jobs ->
      match Dpool.map ~jobs ~f items with
      | (_ : int list) -> Alcotest.failf "jobs=%d: expected Worker_error" jobs
      | exception Dpool.Worker_error { index; message } ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: lowest failing index" jobs)
          3 index;
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: message carries the exception" jobs)
          true
          (contains message "worker raised" && contains message "boom 3"))
    [ 1; 2; 4; 16 ]

let test_domains_failure_names_seed () =
  (* A deterministically-raising build surfaces through the domain pool as
     Failure naming the lowest failing seed. *)
  let broken =
    Scenario.make ~name:"broken" ~description:"always fails" (fun ~mode:_ ->
        failwith "synthetic build failure")
  in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:0 in
  match
    Engine.run_many ~jobs:2 cfg broken ~seeds:[ 7; 8; 9 ]
  with
  | (_ : Metrics.run_summary list) -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool)
      "failure names the lowest failing seed" true (contains msg "seed 7");
    Alcotest.(check bool)
      "failure carries the worker message" true
      (contains msg "synthetic build failure")

let suite =
  [
    Alcotest.test_case "three-backend randomized equivalence" `Slow
      test_three_path_equivalence;
    Alcotest.test_case "run_many preserves seed order" `Quick
      test_seed_order_preserved;
    Alcotest.test_case "dpool map is order-preserving List.map" `Quick
      test_dpool_identity;
    Alcotest.test_case "dpool raise surfaces lowest index" `Quick
      test_dpool_worker_raises_lowest_index;
    Alcotest.test_case "domains run_many failure names seed" `Quick
      test_domains_failure_names_seed;
  ]

(* {2 Fixed seeds and small-input edges} *)

let test_fixed_seed_equivalence () =
  let seeds = [ 1; 2; 3; 4 ] in
  List.iter
    (fun scenario ->
      List.iter
        (fun mode ->
          let cfg = Config.default ~mode ~seed:0 in
          let reference = Engine.run_many ~jobs:1 cfg scenario ~seeds in
          List.iter
            (fun jobs ->
              Alcotest.(check (list summary))
                (Printf.sprintf "%s/%s jobs=%d" scenario.Scenario.sc_name
                   (Dpm.mode_to_string mode) jobs)
                reference
                (Engine.run_many ~jobs cfg scenario ~seeds))
            [ 2; 4 ])
        [ Dpm.Conventional; Dpm.Adpm ])
    scenarios

let test_dpool_order_many_items () =
  (* Far more items than domains: self-scheduling hands items out in any
     order, yet every result must land in its input slot. *)
  let items = List.init 1000 (fun i -> (i * 7919) mod 1000) in
  let f x = string_of_int (x * x) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d keeps order" jobs)
        expected
        (Dpool.map ~jobs ~f items))
    [ 1; 2; 3; 8; 100 ]

let test_dpool_empty_and_singleton () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d empty input" jobs)
        []
        (Dpool.map ~jobs ~f:(fun (_ : int) -> "x") []);
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d single item" jobs)
        [ "42" ]
        (Dpool.map ~jobs ~f:string_of_int [ 42 ]))
    [ 0; 1; 4 ]

let check_worker_error name expected_index f =
  match f () with
  | (_ : string list) -> Alcotest.failf "%s: expected Worker_error" name
  | exception Dpool.Worker_error { index; message } ->
    Alcotest.(check int) (name ^ ": failing index") expected_index index;
    Alcotest.(check bool)
      (name ^ ": message is not empty")
      true
      (String.length message > 0)

let test_dpool_single_raise () =
  (* Item 3 fails, every other item succeeds: the pool must still raise,
     on both the spawning and the calling-domain-only paths. *)
  let f x = if x = 30 then failwith "boom on 30" else string_of_int x in
  let items = [ 0; 10; 20; 30; 40 ] in
  check_worker_error "domains" 3 (fun () -> Dpool.map ~jobs:2 ~f items);
  check_worker_error "sequential" 3 (fun () -> Dpool.map ~jobs:1 ~f items)

let test_dpool_first_item_succeeds () =
  (* Every even item fails but the first item does not: index 1 wins. *)
  let f x = if x mod 2 = 0 then failwith "even" else string_of_int x in
  check_worker_error "many failures" 1 (fun () ->
      Dpool.map ~jobs:3 ~f [ 1; 2; 3; 4; 5; 6 ])

let test_failure_names_seed_by_position () =
  (* The reported seed is the one at the lowest failing position, not the
     numerically smallest. *)
  let broken =
    Scenario.make ~name:"broken" ~description:"always fails" (fun ~mode:_ ->
        failwith "synthetic build failure")
  in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:0 in
  match Engine.run_many ~jobs:3 cfg broken ~seeds:[ 9; 4; 6 ] with
  | (_ : Metrics.run_summary list) -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names seed 9" msg)
      true
      (contains msg "seed 9" && not (contains msg "seed 4"))

let parallel_suite =
  [
    ("pool identity and order", `Quick, test_dpool_order_many_items);
    ("pool empty input", `Quick, test_dpool_empty_and_singleton);
    ("pool worker raises", `Quick, test_dpool_single_raise);
    ("pool lowest failing index", `Quick, test_dpool_first_item_succeeds);
    ("parallel equals sequential", `Slow, test_fixed_seed_equivalence);
    ("worker failure names seed", `Quick, test_failure_names_seed_by_position);
  ]
