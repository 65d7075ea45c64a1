(* Golden run fingerprints for [Engine.run].

   One row per (scenario, mode, seed, configuration): completed,
   operations, evaluations, spins, virtual makespan, and [profile_digest]
   of the per-op profile. The rows were generated once, just before the
   synchronous reference loop (every designer observes every outcome
   right after it executes) was deleted, after checking on every row
   that [Engine.run] equalled that loop — full summary and makespan — and
   that each [ops500] run was unchanged under a zero-rate fault plan.
   They now pin that contract: a change that moves any number fails the
   row that names it. Regenerate them only with a change that is meant to
   move run outcomes, and say so. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

(* the [ops500] scenarios, labelled as in the rows *)
let scenarios =
  [
    ("simple", Simple.scenario);
    ("lna", Lna.scenario);
    ("sensor", Sensor.scenario);
    ("receiver", Receiver.scenario);
    ( "gen4x3",
      Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3) );
  ]

(* first 16 hex digits of the MD5 of the profile, one line per record *)
let profile_digest s =
  let line r =
    Printf.sprintf "%d %s %s %d %d %d %b" r.Metrics.m_index r.Metrics.m_designer
      r.Metrics.m_kind r.Metrics.m_evaluations r.Metrics.m_new_violations
      r.Metrics.m_known_violations r.Metrics.m_spin
  in
  String.sub
    (Digest.to_hex
       (Digest.string (String.concat "\n" (List.map line s.Metrics.s_profile))))
    0 16

(* max_ops 500, latency 0, otherwise [Config.default]: the five scenarios
   of [test_des]/[test_fault] *)
let ops500 =
  [
    ("simple", "ADPM", 1, true, 9, 434, 5, 9, "87fb342c799527b5");
    ("simple", "ADPM", 2, true, 4, 143, 0, 4, "99c72f4e782b4242");
    ("simple", "ADPM", 3, true, 5, 189, 1, 5, "0ee1b8503c27d0f2");
    ("simple", "ADPM", 4, true, 6, 258, 2, 6, "2a7ef9819d4256fd");
    ("simple", "ADPM", 5, true, 6, 256, 2, 6, "9c75341255f29660");
    ("simple", "conventional", 1, true, 7, 11, 0, 7, "72f97a1e29bd2356");
    ("simple", "conventional", 2, true, 7, 11, 0, 7, "72f97a1e29bd2356");
    ("simple", "conventional", 3, true, 7, 11, 0, 7, "268f0e5a7377a832");
    ("simple", "conventional", 4, true, 19, 39, 4, 19, "e14e14f80cacdb0d");
    ("simple", "conventional", 5, true, 31, 67, 8, 31, "1b8a46ab3a3d2653");
    ("lna", "ADPM", 1, true, 3, 96, 0, 3, "3a439a68254c0634");
    ("lna", "ADPM", 2, true, 3, 96, 0, 3, "3a439a68254c0634");
    ("lna", "ADPM", 3, true, 3, 95, 0, 3, "15d92d4244001cdc");
    ("lna", "ADPM", 4, true, 3, 96, 0, 3, "3a439a68254c0634");
    ("lna", "ADPM", 5, true, 3, 96, 0, 3, "3a439a68254c0634");
    ("lna", "conventional", 1, true, 89, 122, 7, 89, "b9768f0ae71073c3");
    ("lna", "conventional", 2, true, 63, 83, 4, 63, "803c11ddac3690bc");
    ("lna", "conventional", 3, true, 45, 64, 0, 45, "b020d48ed6c3514b");
    ("lna", "conventional", 4, true, 59, 85, 0, 59, "fc1a69fa5afbd282");
    ("lna", "conventional", 5, true, 39, 53, 4, 39, "930586c0548703a8");
    ("sensor", "ADPM", 1, true, 6, 332, 0, 6, "6e8f9481ceb8b35a");
    ("sensor", "ADPM", 2, true, 6, 330, 0, 6, "402aa39847f8f3ec");
    ("sensor", "ADPM", 3, true, 6, 335, 0, 6, "16db27c74436366d");
    ("sensor", "ADPM", 4, true, 6, 332, 0, 6, "19bfabdd1c35e35c");
    ("sensor", "ADPM", 5, true, 6, 332, 0, 6, "6e8f9481ceb8b35a");
    ("sensor", "conventional", 1, true, 48, 97, 0, 48, "810c6052f07d183c");
    ("sensor", "conventional", 2, true, 38, 51, 0, 38, "bb25e084d94459ca");
    ("sensor", "conventional", 3, true, 45, 71, 0, 45, "68c9ebdcf2bee9c3");
    ("sensor", "conventional", 4, true, 71, 125, 6, 71, "370a2074f03f04c0");
    ("sensor", "conventional", 5, true, 39, 43, 0, 39, "0254918135e51dd7");
    ("receiver", "ADPM", 1, true, 14, 1070, 0, 14, "c91047ba3ab6cf2e");
    ("receiver", "ADPM", 2, true, 16, 1367, 0, 16, "812db8a4b75fcfb4");
    ("receiver", "ADPM", 3, true, 14, 1009, 0, 14, "989ad277321e7de3");
    ("receiver", "ADPM", 4, true, 19, 1832, 0, 19, "f377abe9847767c5");
    ("receiver", "ADPM", 5, true, 14, 1098, 0, 14, "07e8b6bd1c4f9a2d");
    ("receiver", "conventional", 1, true, 255, 537, 26, 255, "7154e9ab6b6f6f59");
    ("receiver", "conventional", 2, true, 97, 187, 0, 97, "1dc28042cf88879c");
    ("receiver", "conventional", 3, false, 500, 1013, 26, 500, "e59bb30ecb248514");
    ("receiver", "conventional", 4, true, 170, 336, 18, 170, "1f4fd4719f8e273c");
    ("receiver", "conventional", 5, true, 131, 269, 12, 131, "7c3fc6b8729f18ee");
    ("gen4x3", "ADPM", 1, true, 15, 552, 2, 15, "b46da9c982b792dd");
    ("gen4x3", "ADPM", 2, true, 14, 500, 1, 14, "866335e43c86c7df");
    ("gen4x3", "ADPM", 3, true, 14, 503, 1, 14, "4381e48318a74d26");
    ("gen4x3", "ADPM", 4, true, 18, 792, 5, 18, "2cd03ce28b1e32dd");
    ("gen4x3", "ADPM", 5, true, 15, 555, 2, 15, "d2c084a9a0b06c0b");
    ("gen4x3", "conventional", 1, true, 17, 13, 0, 17, "3b7cecc15722c175");
    ("gen4x3", "conventional", 2, true, 18, 13, 0, 18, "ae3acc049722440f");
    ("gen4x3", "conventional", 3, true, 17, 13, 0, 17, "d04477b0efea00bb");
    ("gen4x3", "conventional", 4, true, 65, 89, 17, 65, "55dfbda24cec1266");
    ("gen4x3", "conventional", 5, true, 17, 13, 0, 17, "012158e0c62f308a");
  ]

(* [ops500] under the headroom value policy, gen:n=3,k=2 *)
let headroom =
  [
    ("gen3x2", "ADPM", 1, true, 6, 298, 0, 6, "428cdcf5070ed1b1");
    ("gen3x2", "ADPM", 2, true, 6, 321, 0, 6, "42fd385042cd77c0");
    ("gen3x2", "ADPM", 3, true, 16, 815, 10, 16, "d50359af7cf5ee2f");
  ]

(* [Config.default] (max_ops 2000): the Fig. 9 grid *)
let default =
  [
    ("sensor", "ADPM", 1, true, 6, 332, 0, 6, "6e8f9481ceb8b35a");
    ("sensor", "ADPM", 2, true, 6, 330, 0, 6, "402aa39847f8f3ec");
    ("sensor", "ADPM", 3, true, 6, 335, 0, 6, "16db27c74436366d");
    ("sensor", "ADPM", 4, true, 6, 332, 0, 6, "19bfabdd1c35e35c");
    ("sensor", "ADPM", 5, true, 6, 332, 0, 6, "6e8f9481ceb8b35a");
    ("sensor", "ADPM", 6, true, 6, 332, 0, 6, "9e7b21ac449f30ca");
    ("sensor", "ADPM", 7, true, 6, 332, 0, 6, "6e8f9481ceb8b35a");
    ("sensor", "ADPM", 8, true, 6, 335, 0, 6, "568a79dbf5420d03");
    ("sensor", "ADPM", 9, true, 6, 332, 0, 6, "6e8f9481ceb8b35a");
    ("sensor", "ADPM", 10, true, 6, 335, 0, 6, "9e9e94a4e1a14e27");
    ("sensor", "ADPM", 11, true, 6, 332, 0, 6, "01bbe81ca9be0c71");
    ("sensor", "ADPM", 12, true, 6, 332, 0, 6, "01bbe81ca9be0c71");
    ("sensor", "conventional", 1, true, 48, 97, 0, 48, "810c6052f07d183c");
    ("sensor", "conventional", 2, true, 38, 51, 0, 38, "bb25e084d94459ca");
    ("sensor", "conventional", 3, true, 45, 71, 0, 45, "68c9ebdcf2bee9c3");
    ("sensor", "conventional", 4, true, 71, 125, 6, 71, "370a2074f03f04c0");
    ("sensor", "conventional", 5, true, 39, 43, 0, 39, "0254918135e51dd7");
    ("sensor", "conventional", 6, true, 85, 165, 10, 85, "14d1a5ceebf1656f");
    ("sensor", "conventional", 7, true, 37, 60, 0, 37, "46c437a8afb2e3ce");
    ("sensor", "conventional", 8, true, 119, 242, 14, 119, "c73696fa68e6c6ca");
    ("sensor", "conventional", 9, true, 39, 73, 2, 39, "d5adf53714d4cd71");
    ("sensor", "conventional", 10, true, 122, 233, 15, 122, "acca37ceda455e84");
    ("sensor", "conventional", 11, true, 72, 141, 10, 72, "678b702b6e427a84");
    ("sensor", "conventional", 12, true, 81, 173, 8, 81, "a30a588cef5918fe");
    ("receiver", "ADPM", 1, true, 14, 1070, 0, 14, "c91047ba3ab6cf2e");
    ("receiver", "ADPM", 2, true, 16, 1367, 0, 16, "812db8a4b75fcfb4");
    ("receiver", "ADPM", 3, true, 14, 1009, 0, 14, "989ad277321e7de3");
    ("receiver", "ADPM", 4, true, 19, 1832, 0, 19, "f377abe9847767c5");
    ("receiver", "ADPM", 5, true, 14, 1098, 0, 14, "07e8b6bd1c4f9a2d");
    ("receiver", "ADPM", 6, true, 16, 1343, 0, 16, "37a3559c4ef128f5");
    ("receiver", "ADPM", 7, true, 16, 1415, 0, 16, "32e6ea67e6fcee67");
    ("receiver", "ADPM", 8, true, 14, 1032, 0, 14, "328efcdbe5c67c42");
    ("receiver", "ADPM", 9, true, 14, 1021, 0, 14, "04f4f4a1fda7bc9b");
    ("receiver", "ADPM", 10, true, 14, 1103, 0, 14, "ea656516f70d28f0");
    ("receiver", "ADPM", 11, true, 14, 1058, 0, 14, "ee3e0e6c4acfb8fc");
    ("receiver", "ADPM", 12, true, 14, 996, 0, 14, "f2db67a722a8f8d9");
    ("receiver", "conventional", 1, true, 255, 537, 26, 255, "7154e9ab6b6f6f59");
    ("receiver", "conventional", 2, true, 97, 187, 0, 97, "1dc28042cf88879c");
    ("receiver", "conventional", 3, true, 589, 1258, 27, 589, "6ab746ee5bd42ef4");
    ("receiver", "conventional", 4, true, 170, 336, 18, 170, "1f4fd4719f8e273c");
    ("receiver", "conventional", 5, true, 131, 269, 12, 131, "7c3fc6b8729f18ee");
    ("receiver", "conventional", 6, true, 282, 574, 7, 282, "9a6e41a9abcc827a");
    ("receiver", "conventional", 7, true, 191, 306, 0, 191, "e1ee9f30199a3b97");
    ("receiver", "conventional", 8, true, 202, 392, 18, 202, "6d8bb74bfb15cbe7");
    ("receiver", "conventional", 9, true, 197, 370, 5, 197, "75b62889e75ac922");
    ("receiver", "conventional", 10, true, 495, 1009, 19, 495, "d07cd1f20c8e53ab");
    ("receiver", "conventional", 11, true, 100, 217, 0, 100, "74340feedd9f6929");
    ("receiver", "conventional", 12, true, 142, 317, 17, 142, "5cc79e8b0b76c6ad");
  ]

(* [check rows ~name cfg scenario] runs [Engine.run cfg scenario] and
   compares it field by field with the row of [rows] for [name] (the
   scenario's label in the table) at [cfg]'s mode and seed; returns the
   summary. *)
let check rows ~name cfg scenario =
  let o = Engine.run cfg scenario in
  let s = o.Engine.o_summary in
  let mode = Dpm.mode_to_string cfg.Config.mode and seed = cfg.Config.seed in
  let row = Printf.sprintf "%s/%s seed %d" name mode seed in
  match
    List.find_opt
      (fun (n, m, sd, _, _, _, _, _, _) -> n = name && m = mode && sd = seed)
      rows
  with
  | None -> Alcotest.failf "%s: no golden row" row
  | Some (_, _, _, completed, ops, evals, spins, makespan, digest) ->
    let int field want got =
      Alcotest.(check int) (row ^ ": " ^ field) want got
    in
    Alcotest.(check bool) (row ^ ": completed") completed s.Metrics.s_completed;
    int "operations" ops s.Metrics.s_operations;
    int "evaluations" evals s.Metrics.s_evaluations;
    int "spins" spins s.Metrics.s_spins;
    int "makespan" makespan o.Engine.o_makespan;
    Alcotest.(check string) (row ^ ": profile") digest (profile_digest s);
    Alcotest.(check bool) (row ^ ": no faults") true
      (s.Metrics.s_faults = Metrics.no_faults);
    s

(* [check_grid rows cfg scenarios seeds]: [check] every labelled scenario
   in both modes at every seed, configured by [cfg mode seed] *)
let check_grid rows cfg scenarios seeds =
  List.iter
    (fun (name, sc) ->
      List.iter
        (fun mode ->
          List.iter
            (fun seed ->
              ignore (check rows ~name (cfg mode seed) sc : Metrics.run_summary))
            seeds)
        [ Dpm.Adpm; Dpm.Conventional ])
    scenarios
