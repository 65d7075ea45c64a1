(** Elaboration of a DDDL description into a runnable TeamSim scenario.

    Performs the semantic checks the parser cannot (unknown property and
    constraint references, duplicate declarations, models targeting
    non-properties, monotonicity declarations naming properties outside the
    constraint, requirement values outside their property's domain, cyclic
    sibling orderings) and produces a {!Adpm_teamsim.Scenario.t} whose build
    function constructs a fresh network, problem hierarchy and DPM per
    run. *)

exception Error of string

val scenario : Ast.scenario_decl -> Adpm_teamsim.Scenario.t
(** @raise Error on semantic errors. *)

val override_requirements :
  (string * float) list -> Ast.scenario_decl -> Ast.scenario_decl
(** [override_requirements values decl] gives each named requirement of
    [decl] its new value, keeping declaration order: the one way to run a
    scenario under changed requirements (e.g. the Fig. 10 gain sweep).
    {!scenario} range-checks the new values.
    @raise Error when a name is not a declared requirement of [decl], so a
    typo cannot silently run the default. *)

val load_string : string -> Adpm_teamsim.Scenario.t
(** Parse then elaborate. Lexer and parser failures are re-raised as
    {!Error} with a caret-style message carrying the line, column and the
    offending source line, so every failure mode of a DDDL source string
    surfaces through one exception.
    @raise Error on lexical, syntactic or semantic errors. *)
