(* Per-layer measurement from outside the program.

   Two sources, neither of which needs a change to the program:
   - the counters and histograms the layers already record in
     [Obs.Metrics.default], read before and after each operation so
     every delta belongs to exactly one closed-loop operation;
   - a replay of the wire messages captured with
     [Runtime.set_message_tap], timed through the public codecs of
     the wire, crypto and provenance layers after the run. *)

(* --- registry deltas ---------------------------------------------------- *)

(* Every series of the default registry summed over its labels: a
   counter's value, a gauge's value, a histogram's sum (and its count
   under "<name>#count"). *)
let snapshot () : (string, float) Hashtbl.t =
  let tbl = Hashtbl.create 128 in
  let add name v =
    Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)
  in
  List.iter
    (fun (_, m) ->
      match m with
      | Obs.Metrics.M_counter c -> add c.Obs.Metrics.c_name (float_of_int c.Obs.Metrics.c_value)
      | Obs.Metrics.M_gauge g -> add g.Obs.Metrics.g_name g.Obs.Metrics.g_value
      | Obs.Metrics.M_histogram h ->
        add h.Obs.Metrics.h_name h.Obs.Metrics.h_sum;
        add (h.Obs.Metrics.h_name ^ "#count") (float_of_int h.Obs.Metrics.h_count))
    (Obs.Metrics.sorted_metrics Obs.Metrics.default);
  tbl

type acc = (string, float) Hashtbl.t

let create_acc () : acc = Hashtbl.create 128

let get (acc : acc) (name : string) : float =
  Option.value (Hashtbl.find_opt acc name) ~default:0.0

let add (acc : acc) (name : string) (v : float) : unit =
  Hashtbl.replace acc name (get acc name +. v)

(* Run [f] and add the registry's movement during it to [acc]. *)
let record (acc : acc) (f : unit -> 'a) : 'a =
  let before = snapshot () in
  let r = f () in
  let after = snapshot () in
  Hashtbl.iter
    (fun name v -> add acc name (v -. Option.value (Hashtbl.find_opt before name) ~default:0.0))
    after;
  r

(* High-water marks are not deltas: track the largest reading. *)
let record_max (acc : acc) (name : string) (v : float) : unit =
  if v > get acc name then Hashtbl.replace acc name v

(* Fold one episode's deltas into [into]: time series (names ending in
   "seconds" or "_s") are multiplied by [scale], high-water marks
   ("#max") keep the larger reading, everything else adds up. *)
let merge ~(scale : float) ~(into : acc) (src : acc) : unit =
  Hashtbl.iter
    (fun name v ->
      if String.ends_with ~suffix:"#max" name then record_max into name v
      else if String.ends_with ~suffix:"seconds" name || String.ends_with ~suffix:"_s" name
      then add into name (v *. scale)
      else add into name v)
    src

(* --- replay -------------------------------------------------------------- *)

type replay = {
  messages : int;
  encode_us : float; (* per message, Net.Wire.encode_message *)
  decode_us : float; (* per message, Net.Wire.decode_message *)
  signatures : int;
  sign_us : float; (* per signature, Crypto.Rsa.sign over the signed bytes *)
  verify_us : float; (* per signature, Sendlog.Auth.verify *)
  blocks : int; (* messages carrying a condensed provenance block *)
  of_wire_s : float; (* total, Condense.of_wire with a fresh context *)
  to_wire_s : float; (* total, Condense.to_wire with a fresh context *)
  mismatches : int; (* codec round trips or signatures that did not check *)
}

let timed (f : unit -> unit) : float =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let per_us (seconds : float) (count : int) : float =
  if count = 0 then 0.0 else 1e6 *. seconds /. float_of_int count

(* Replay [corpus] through each layer's codec in turn.  Every message
   is signed with its sender's key whatever the configuration, so the
   crypto replay also prices the signatures an unauthenticated run
   does not ship. *)
let replay ~(directory : Sendlog.Principal.directory) (corpus : Net.Wire.message array) :
    replay =
  let mismatches = ref 0 in
  let encoded = Array.make (Array.length corpus) "" in
  let encode_s =
    timed (fun () -> Array.iteri (fun i m -> encoded.(i) <- Net.Wire.encode_message m) corpus)
  in
  let decoded = Array.make (Array.length corpus) None in
  let decode_s =
    timed (fun () ->
        Array.iteri (fun i s -> decoded.(i) <- Some (Net.Wire.decode_message s)) encoded)
  in
  Array.iteri
    (fun i d ->
      match d with
      | Some m when String.equal (Net.Wire.encode_message m) encoded.(i) -> ()
      | _ -> incr mismatches)
    decoded;
  let signed =
    Array.of_list
      (List.filter_map
         (fun (m : Net.Wire.message) ->
           let src = m.Net.Wire.msg_src and dst = m.Net.Wire.msg_dst in
           let bytes =
             match m.Net.Wire.msg_kind with
             | Net.Wire.K_data -> Some (Net.Wire.signed_bytes ~src ~dst m.Net.Wire.msg_tuple)
             | Net.Wire.K_retract ->
               Some (Net.Wire.retract_signed_bytes ~src ~dst m.Net.Wire.msg_tuple)
             | Net.Wire.K_ack -> None
           in
           match (bytes, Sendlog.Principal.find directory src) with
           | Some b, Some p -> Some (p, b)
           | _ -> None)
         (Array.to_list corpus))
  in
  let signatures = Array.make (Array.length signed) "" in
  let sign_s =
    timed (fun () ->
        Array.iteri
          (fun i ((p : Sendlog.Principal.t), b) ->
            signatures.(i) <- Crypto.Rsa.sign p.Sendlog.Principal.keypair.Crypto.Rsa.private_ b)
          signed)
  in
  let verify_s =
    timed (fun () ->
        Array.iteri
          (fun i ((p : Sendlog.Principal.t), b) ->
            let auth =
              Net.Wire.A_signature
                { principal = p.Sendlog.Principal.name; signature = signatures.(i) }
            in
            match Sendlog.Auth.verify Sendlog.Auth.Auth_rsa directory auth b with
            | Sendlog.Auth.Verified _ -> ()
            | _ -> incr mismatches)
          signed)
  in
  let blocks =
    Array.of_list
      (List.filter_map (fun (m : Net.Wire.message) -> m.Net.Wire.msg_provenance)
         (Array.to_list corpus))
  in
  let exprs = Array.make (Array.length blocks) Provenance.Prov_expr.zero in
  let decode_ctx = Provenance.Condense.create_ctx () in
  let of_wire_s =
    timed (fun () ->
        Array.iteri (fun i b -> exprs.(i) <- Provenance.Condense.of_wire decode_ctx b) blocks)
  in
  let rewired = Array.make (Array.length blocks) "" in
  let encode_ctx = Provenance.Condense.create_ctx () in
  let to_wire_s =
    timed (fun () ->
        Array.iteri (fun i e -> rewired.(i) <- Provenance.Condense.to_wire encode_ctx e) exprs)
  in
  Array.iteri
    (fun i e ->
      let back = Provenance.Condense.of_wire decode_ctx rewired.(i) in
      if
        not
          (String.equal
             (Provenance.Prov_expr.canonical_string back)
             (Provenance.Prov_expr.canonical_string e))
      then incr mismatches)
    exprs;
  { messages = Array.length corpus;
    encode_us = per_us encode_s (Array.length corpus);
    decode_us = per_us decode_s (Array.length corpus);
    signatures = Array.length signed;
    sign_us = per_us sign_s (Array.length signed);
    verify_us = per_us verify_s (Array.length signed);
    blocks = Array.length blocks;
    of_wire_s;
    to_wire_s;
    mismatches = !mismatches }

(* The replay's times in reference seconds (see [Calib]). *)
let scale_replay (scale : float) (r : replay) : replay =
  { r with
    encode_us = r.encode_us *. scale;
    decode_us = r.decode_us *. scale;
    sign_us = r.sign_us *. scale;
    verify_us = r.verify_us *. scale;
    of_wire_s = r.of_wire_s *. scale;
    to_wire_s = r.to_wire_s *. scale }

(* Keep every [stride]-th captured message, up to [limit]: the replay
   prices each layer per message, so an even sample of the traffic is
   enough and keeps RSA signing of the corpus under a second. *)
let sample ~(limit : int) (captured : Net.Wire.message list) : Net.Wire.message array =
  let all = Array.of_list (List.rev captured) in
  let n = Array.length all in
  if n <= limit then all
  else
    let stride = (n + limit - 1) / limit in
    Array.init (n / stride) (fun i -> all.(i * stride))
