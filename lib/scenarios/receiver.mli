(** The MEMS-based wireless receiver front-end design case (Section 3.2).

    Mixed-signal circuitry (LNA + mixer) and a MEMS channel-selection filter
    designed concurrently, with constraints on channel bandwidth, system
    gain, input impedance, frequency-selection precision, and power
    consumption. The network holds 35 properties and 30 constraints, most
    of them non-linear — matching the statistics the paper reports, which
    makes this the "harder" of the two cases. *)

open Adpm_teamsim

val scenario : Scenario.t

val gain_sweep : float list
(** The values of the [req-gain] requirement (minimum end-to-end voltage
    gain, 30 in [source]) that the Fig. 10 tightness sweep runs. *)

val source : string
(** The scenario in DDDL: its one definition, which [scenario] is
    elaborated from. Run it under changed requirements through
    {!Adpm_dddl.Elaborate.override_requirements}. *)
