(* teamsimd load bench: N concurrent scripted sessions over real unix
   sockets against an in-process daemon, all driven from one thread (the
   client's [pump] runs the daemon's event loop while it waits — no
   domains, so the section can run before the domain runner in main.ml).

   Reports the session count, aggregate exec throughput, and the p99
   per-op round-trip latency (client send -> response frame decoded). *)

open Adpm_serve
module Stats_acc = Adpm_util.Stats_acc

type result = {
  sessions : int;
  total_ops : int;
  ops_per_s : float;
  p99_ms : float;
  wall_s : float;
}

let designers = [| "alice"; "bob"; "leader" |]

let run ?(sessions = 64) ?(ops_per_session = 8) () =
  let path =
    let f = Filename.temp_file "teamsimd_bench" ".sock" in
    Sys.remove f;
    f
  in
  let cfg =
    {
      (Daemon.default_config ~addr:(Daemon.Unix_path path)
         ~scenarios:[ Adpm_scenarios.Simple.scenario ])
      with
      Daemon.dc_max_sessions = sessions;
    }
  in
  let daemon = Daemon.create cfg in
  let pump () = ignore (Daemon.step ~timeout:0. daemon : bool) in
  let rpc c req = Client.rpc ~timeout:60. ~pump c req in
  let clients =
    Array.init sessions (fun _ ->
        let c = Client.connect (Unix.ADDR_UNIX path) in
        pump ();
        c)
  in
  let session_ids =
    Array.mapi
      (fun i c ->
        let resp =
          rpc c
            (Wire.Open
               {
                 scenario = "simple";
                 mode = Adpm_core.Dpm.Adpm;
                 seed = i + 1;
                 designer = designers.(i mod Array.length designers);
               })
        in
        match Client.body_str resp "session" with
        | Some sid -> sid
        | None ->
          failwith
            (Printf.sprintf "daemon_bench: open %d failed: %s" i
               (Adpm_trace.Json.to_string resp.Wire.r_body)))
      clients
  in
  let latencies = Stats_acc.create () in
  let total_ops = ref 0 in
  let t0 = Unix.gettimeofday () in
  for round = 1 to ops_per_session do
    let line = if round mod 3 = 0 then "step" else "auto" in
    Array.iteri
      (fun i c ->
        let s0 = Unix.gettimeofday () in
        let resp = rpc c (Wire.Exec { session = session_ids.(i); line }) in
        Stats_acc.add latencies ((Unix.gettimeofday () -. s0) *. 1000.);
        incr total_ops;
        if not resp.Wire.r_ok then
          failwith
            (Printf.sprintf "daemon_bench: exec failed: %s"
               (Adpm_trace.Json.to_string resp.Wire.r_body)))
      clients
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun i c ->
      ignore (rpc c (Wire.Close { session = session_ids.(i) }) : Wire.response);
      Client.close c)
    clients;
  Daemon.stop daemon;
  {
    sessions;
    total_ops = !total_ops;
    ops_per_s = float_of_int !total_ops /. wall;
    p99_ms = Stats_acc.quantile latencies 0.99;
    wall_s = wall;
  }

let render r =
  Printf.sprintf
    "%d concurrent sessions, %d exec ops in %.2fs -> %.0f ops/s, p99 %.2fms\n"
    r.sessions r.total_ops r.wall_s r.ops_per_s r.p99_ms
