(* The benchmark's parameters, read from perfbench/spec.json (which also
   documents every workload and the layer -> end-to-end mapping). *)

module Json = Adpm_trace.Json

type serve = {
  rate_adpm : float;  (** open-loop requests per second, ADPM sessions *)
  rate_conventional : float;
  latency_limit_ms : float;
  late_limit_ms : float;
  max_connections : int;
  sessions : int;
  commands_per_session : int;
  w_auto : int;
  w_step : int;
  w_status : int;
  open_share : float;
  closed_share : float;
}

type t = {
  scenarios : string list;
  seed_pool : int;
  held_out_seed : int;
  held_out_first : int;  (** first simulation seed of the held-out pool *)
  pins : string;
  sweep_setup_repeats : int;
  reference_rate : float;  (** calibration units per second, see [Calib] *)
  setup_units : int;
  units_per_round_adpm : int;
  units_per_round_conventional : int;
  trace_rounds_adpm : int;
  trace_rounds_conventional : int;
  serve : serve;
}

let path = "perfbench/spec.json"

let fail fmt = Printf.ksprintf failwith fmt

let field j k =
  match Json.member k j with Some v -> v | None -> fail "%s: missing %S" path k

let num j k =
  match Json.to_float (field j k) with
  | Some f -> f
  | None -> fail "%s: %S is not a number" path k

let int j k =
  match Json.to_int (field j k) with
  | Some i -> i
  | None -> fail "%s: %S is not an integer" path k

let str j k =
  match Json.to_str (field j k) with
  | Some s -> s
  | None -> fail "%s: %S is not a string" path k

let list j k =
  match Json.to_list (field j k) with
  | Some l -> l
  | None -> fail "%s: %S is not a list" path k

let load () =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j =
    match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e
  in
  let sw = field j "sweep" and sv = field j "serve" in
  let rounds = field sw "trace_rounds" in
  let cal = field sw "calibration" in
  let per_round = field cal "units_per_round" in
  let weights = field sv "command_weights" in
  let rate = field sv "rate_per_s" and held = field j "held_out" in
  {
    scenarios =
      List.map
        (fun s ->
          match Json.to_str s with Some s -> s | None -> fail "%s: scenario" path)
        (list sw "scenarios");
    seed_pool = int sw "seed_pool";
    held_out_seed = int held "seed";
    held_out_first = int held "pool_first";
    pins = str sw "pins";
    sweep_setup_repeats = int sw "setup_repeats";
    reference_rate = num cal "reference_rate";
    setup_units = int cal "setup_units";
    units_per_round_adpm = int per_round "adpm";
    units_per_round_conventional = int per_round "conventional";
    trace_rounds_adpm = int rounds "adpm";
    trace_rounds_conventional = int rounds "conventional";
    serve =
      {
        rate_adpm = num rate "adpm";
        rate_conventional = num rate "conventional";
        latency_limit_ms = num sv "latency_limit_ms";
        late_limit_ms = num sv "late_limit_ms";
        max_connections = int sv "max_connections";
        sessions = int sv "sessions";
        commands_per_session = int sv "commands_per_session";
        w_auto = int weights "auto";
        w_step = int weights "step";
        w_status = int weights "status";
        open_share = num sv "open_share";
        closed_share = num sv "closed_share";
      };
  }
