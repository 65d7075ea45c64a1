(** The Section 2.4 walkthrough: team-based design of a MEMS-based wireless
    receiver front-end (LNA + mixer and a MEMS filtering device).

    The constraint constants are chosen so that the published feasible
    windows of Fig. 2 fall out of propagation: once the device engineer sets
    the beam length to 13 um, the frequency-inductor window becomes
    (0.174255, 0.5) uH and the differential-pair-width window becomes
    (2.5, 3.698225) um. The differential pair width appears in exactly three
    constraints (power, input impedance, gain), giving beta = 3 as in
    Fig. 3; after the gain violation and the leader's impedance tightening
    to 40 Ohm it is connected to two violations (alpha = 2, Fig. 4), and a
    single re-sizing to 3.5 um clears both. *)

open Adpm_teamsim

val scenario : Scenario.t
(** The simulation case: the requirements are fixed inputs of the leader's
    top-level problem, with [Min-LNA-Zin] at its tightened 40 Ohm. *)

val walkthrough : Scenario.t
(** The scripted walkthrough of Figs. 2-4, derived from [source]: the
    requirements are outputs of the top-level problem so the leader can
    tighten them mid-design, and [Min-LNA-Zin] starts at 25 Ohm. Not in
    the registry. *)

(** Property names used by the walkthrough script and tests. *)

val diff_pair_w : string
val freq_ind : string
val beam_length : string
val min_zin : string

val source : string
(** The scenario in DDDL: its one definition, which [scenario] and
    [walkthrough] are elaborated from. *)
