(* Real-time diagnostics (Section 3).

   "A continuous query specified in SeNDlog can be used to compute the
   number of changes to a routing table entry over past T seconds, and
   generate an alarm event when the number of changes exceeds a
   threshold as an indication of possible divergence.  Upon receiving
   the alarm, the system may generate a distributed recursive query
   over the network provenance to detect the source of malicious
   activities."

   The monitoring program counts [routeEvent(@S, D, T)] tuples per
   (S, D) inside a sliding window implemented by the soft-state TTL
   (Section 2.1: "the time-based window size essentially corresponds
   to the soft-state lifetime"). *)

open Engine

(* The monitoring program ([Ndlog.Programs.diagnostics_src]), for a
   window of whole seconds and a threshold. *)
let monitor_program ~(window_seconds : float) ~(threshold : int) : Ndlog.Ast.program =
  Ndlog.Programs.parse
    (Ndlog.Programs.diagnostics_src ~window_seconds:(int_of_float window_seconds) ~threshold)

type alarm = {
  al_node : string;
  al_destination : string;
  al_changes : int;
}

(* Report a route change at [node] for destination [dest]; the event
   timestamp doubles as the counted witness. *)
let report_change (t : Runtime.t) ~(node : string) ~(dest : string) : unit =
  let now = Runtime.now t in
  let tuple =
    Tuple.make "routeEvent"
      [ Value.V_str node; Value.V_str dest; Value.V_float now ]
  in
  Runtime.install_fact t ~at:node tuple

let alarms (t : Runtime.t) : alarm list =
  List.filter_map
    (fun (_, tuple) ->
      match tuple.Tuple.args with
      | [| Value.V_str node; Value.V_str dest; Value.V_int n |] ->
        Some { al_node = node; al_destination = dest; al_changes = n }
      | _ -> None)
    (Runtime.query_all t "alarm")
