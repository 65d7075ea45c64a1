(* The result line: the last line of standard output is one JSON object
   {correct, attempted, failed, metrics}. *)

module Json = Adpm_trace.Json

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable invalid : string list;  (** reasons the run is not valid *)
  mutable metrics : (string * float * string) list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; invalid = []; metrics = [] }

(* One correctness check: counts toward [attempted], and toward [failed]
   (with a note on stderr) when [ok] is false. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        if r.failed <= 20 then prerr_endline ("perfbench: FAILED " ^ msg)
      end)
    fmt

let invalid r fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: INVALID " ^ msg);
      r.invalid <- msg :: r.invalid)
    fmt

let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics

let print r =
  let metrics = List.rev r.metrics in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then invalid r "metric %s is not finite" name)
    metrics;
  let correct = r.failed = 0 && r.invalid = [] && r.attempted > 0 in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int (max 1 r.attempted)));
        ("failed", Json.Num (float_of_int r.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 ( name,
                   Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ] ))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)
