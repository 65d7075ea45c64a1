(** The simplified design case of Fig. 7.

    Two subsystems designed concurrently by two designers, each with two
    free design variables and two performance parameters tied to them by
    model bands, plus three cross-subsystem constraints (a power budget
    [pa + pb <= p_max] — the paper's introductory example constraint — a
    gain floor [ga + gb >= g_min], and a gain-balance coupling). Small
    enough that per-operation profiles (violations found, evaluations
    executed) are easy to read. *)

open Adpm_teamsim

val scenario : Scenario.t

val source : string
(** The scenario in DDDL: its one definition, which [scenario] is
    elaborated from. Run it under changed requirements through
    {!Adpm_dddl.Elaborate.override_requirements}. *)
