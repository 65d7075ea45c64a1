open Adpm_interval
open Adpm_csp

type event =
  | Violation_detected of int
  | Violation_resolved of int
  | Feasible_reduced of string * Domain.t
  | Feasible_empty of string

type notification = { n_recipient : string; n_events : event list }

type subscriptions = (string * string list) list

let routed_events ~args_of ~old_statuses ~new_statuses ~old_feasible
    ~new_feasible =
  let status_events =
    List.concat_map
      (fun (cid, s) ->
        let old_s = old_statuses cid in
        if s = old_s then []
        else
          match s with
          | Constr.Violated -> [ (args_of cid, Violation_detected cid) ]
          | Constr.Satisfied | Constr.Consistent ->
            if old_s = Constr.Violated then
              [ (args_of cid, Violation_resolved cid) ]
            else [])
      new_statuses
  in
  let feasible_events =
    List.filter_map
      (fun (prop, d) ->
        let old_d = old_feasible prop in
        if Domain.equal d old_d then None
        else if Domain.is_empty d then Some ([ prop ], Feasible_empty prop)
        else if Domain.measure d < Domain.measure old_d then
          Some ([ prop ], Feasible_reduced (prop, d))
        else None)
      new_feasible
  in
  status_events @ feasible_events

let diff ~subscriptions ~args_of ~old_statuses ~new_statuses ~old_feasible
    ~new_feasible =
  let events =
    routed_events ~args_of ~old_statuses ~new_statuses ~old_feasible
      ~new_feasible
  in
  match events with
  | [] -> []
  | _ ->
    List.filter_map
      (fun (designer, props) ->
        (* one hash set per recipient, instead of a List.mem scan of the
           subscription list for every touched property of every event *)
        let subscribed = Hashtbl.create (max 8 (List.length props)) in
        List.iter (fun p -> Hashtbl.replace subscribed p ()) props;
        let relevant =
          List.filter_map
            (fun (touched, event) ->
              if List.exists (Hashtbl.mem subscribed) touched then Some event
              else None)
            events
        in
        match relevant with
        | [] -> None
        | _ -> Some { n_recipient = designer; n_events = relevant })
      subscriptions

let event_label = function
  | Violation_detected cid -> Printf.sprintf "violation-detected:%d" cid
  | Violation_resolved cid -> Printf.sprintf "violation-resolved:%d" cid
  | Feasible_reduced (prop, _) -> "feasible-reduced:" ^ prop
  | Feasible_empty prop -> "feasible-empty:" ^ prop

let detected_violations n =
  List.filter_map
    (function Violation_detected cid -> Some cid | _ -> None)
    n.n_events

let trace_pushed tracer ~op_index notifications =
  let open Adpm_trace in
  if Tracer.active tracer then
    List.iter
      (fun n ->
        Tracer.emit tracer
          (Event.Notification_pushed
             {
               recipient = n.n_recipient;
               op_index;
               events = List.map event_label n.n_events;
               violations = detected_violations n;
             }))
      notifications
