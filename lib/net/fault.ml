(* Deterministic fault injection for the simulated network.

   The paper's forensics and traceback use cases (Sections 4-5) are
   only interesting on networks that misbehave, so this module lets a
   run subject every link to loss, duplication and reordering, and
   schedule fail-stop node crashes.

   Determinism invariant: every per-message verdict is derived from a
   SHA-256 hash of (model seed, src, dst, message identity, attempt)
   that seeds a private [Crypto.Rng], never from a shared RNG stream.
   Handler durations in the simulator include measured wall CPU, so
   event *interleaving* varies run to run; hashing per message makes
   each verdict independent of delivery order, which is what keeps a
   faulty run byte-for-byte reproducible from its seed.  The identity
   key is the message's *content* (kind-prefixed tuple identity), not
   its per-channel sequence number: sequence numbers are assigned in
   enqueue order, which the sharded engine does not preserve across
   shard counts, whereas the set of (channel, content) pairs a run
   ships is interleaving-independent — so verdicts reproduce
   bit-for-bit across [--shards] values. *)

type spec = {
  drop : float; (* P(message lost in transit), per attempt *)
  duplicate : float; (* P(one extra copy delivered) *)
  reorder : float; (* P(a copy is delayed by extra jitter) *)
  jitter : float; (* max extra delay, seconds, drawn uniformly *)
}

let no_faults = { drop = 0.0; duplicate = 0.0; reorder = 0.0; jitter = 0.0 }

let uniform ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(jitter = 0.05) () :
    spec =
  let check name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Fault.uniform: %s=%g not in [0,1]" name p)
  in
  check "drop" drop;
  check "duplicate" duplicate;
  check "reorder" reorder;
  if jitter < 0.0 then invalid_arg "Fault.uniform: negative jitter";
  { drop; duplicate; reorder; jitter }

(* Fail-stop crash with state retained: during [cr_at, restart) the
   node neither receives nor processes; its database and provenance
   store survive (stable storage), so on restart the fixpoint can
   resume from retransmitted messages. *)
type crash = {
  cr_node : string;
  cr_at : float; (* virtual time the node goes down *)
  cr_restart : float option; (* back up at this time; [None] = forever *)
}

type model = {
  seed : int; (* mixed into every per-message hash *)
  default_spec : spec; (* every link's behaviour *)
  crashes : crash list;
}

let ideal : model =
  { seed = 0; default_spec = no_faults; crashes = [] }

let make ?(seed = 0) ?(default_spec = no_faults) ?(crashes = []) () : model =
  List.iter
    (fun c ->
      if c.cr_at < 0.0 then invalid_arg "Fault.make: crash time must be >= 0";
      match c.cr_restart with
      | Some r when r <= c.cr_at ->
        invalid_arg "Fault.make: crash restart must come after the crash"
      | _ -> ())
    crashes;
  { seed; default_spec; crashes }

let with_seed (m : model) (seed : int) : model = { m with seed }

(* A spec with all-zero probabilities never misbehaves, whatever its
   jitter bound (jitter only applies to reordered copies). *)
let spec_is_harmless (s : spec) : bool =
  s.drop = 0.0 && s.duplicate = 0.0 && s.reorder = 0.0

let is_ideal (m : model) : bool = spec_is_harmless m.default_spec && m.crashes = []

(* --- per-message verdicts -------------------------------------------- *)

let rng_for (m : model) ~(src : string) ~(dst : string) ~(ident : string)
    ~(attempt : int) : Crypto.Rng.t =
  let key = Printf.sprintf "fault|%d|%s|%s|%s|%d" m.seed src dst ident attempt in
  let d = Crypto.Sha256.digest key in
  let s = ref 0 in
  for i = 0 to 7 do
    s := (!s lsl 8) lor Char.code d.[i]
  done;
  Crypto.Rng.create ~seed:!s

(* Returns one extra-delay value per copy the network actually
   delivers: [[]] means the attempt was dropped, a two-element list
   means it was duplicated.  All randomness is drawn in a fixed order
   so verdicts never depend on which branch is taken. *)
let decide (m : model) ~(src : string) ~(dst : string) ~(ident : string)
    ~(attempt : int) : float list =
  let spec = m.default_spec in
  if spec_is_harmless spec then [ 0.0 ]
  else begin
    let rng = rng_for m ~src ~dst ~ident ~attempt in
    let dropped = Crypto.Rng.float rng 1.0 < spec.drop in
    let duplicated = Crypto.Rng.float rng 1.0 < spec.duplicate in
    let extra_delay () =
      let delayed = Crypto.Rng.float rng 1.0 < spec.reorder in
      let magnitude = Crypto.Rng.float rng (max spec.jitter 1e-9) in
      if delayed then magnitude else 0.0
    in
    let d0 = extra_delay () in
    let d1 = extra_delay () in
    if dropped then []
    else if duplicated then [ d0; d1 ]
    else [ d0 ]
  end

(* --- crash queries ---------------------------------------------------- *)

let covering_crashes (m : model) ~(now : float) (node : string) : crash list =
  List.filter
    (fun c ->
      String.equal c.cr_node node
      && now >= c.cr_at
      && match c.cr_restart with None -> true | Some r -> now < r)
    m.crashes

let is_down (m : model) ~(now : float) (node : string) : bool =
  covering_crashes m ~now node <> []

(* When a node that is down at [now] comes back: [Some t] with t > now,
   or [None] if it is up already or down forever.  Retransmission
   timers that fire while their sender is down park themselves here. *)
let restart_after (m : model) ~(now : float) (node : string) : float option =
  match covering_crashes m ~now node with
  | [] -> None
  | covering ->
    if List.exists (fun c -> c.cr_restart = None) covering then None
    else
      Some
        (List.fold_left
           (fun acc c -> max acc (Option.get c.cr_restart))
           neg_infinity covering)

(* --- link flaps ------------------------------------------------------- *)

(* One link-state transition of a Poisson flap process: at [fl_at] the
   (directed) link goes down ([fl_down]) or comes back up. *)
type flap = {
  fl_src : string;
  fl_dst : string;
  fl_at : float;
  fl_down : bool;
}

(* Exponential inter-arrival draw; clamped away from 0 so two events
   of one link never coincide. *)
let exp_draw (rng : Crypto.Rng.t) (mean : float) : float =
  let u = max 1e-12 (Crypto.Rng.float rng 1.0) in
  max 1e-6 (-.mean *. log u)

(* [flap_schedule m ~links ~rate ~horizon] samples a seed-reproducible
   Poisson flap process per directed link: up-times are exponential
   with mean [1/rate], down-times exponential with mean
   [mean_downtime].  Determinism follows the per-message verdict
   idiom: each link's randomness comes from a private RNG seeded by
   SHA-256 of (model seed, src, dst), so a link's flap history never
   depends on the order links are listed or on any shared RNG
   stream.  Events are returned sorted by (time, src, dst). *)
let flap_schedule (m : model) ~(links : (string * string) list) ~(rate : float)
    ?(mean_downtime = 0.5) ~(horizon : float) () : flap list =
  if rate < 0.0 then invalid_arg "Fault.flap_schedule: negative rate";
  if mean_downtime <= 0.0 then
    invalid_arg "Fault.flap_schedule: mean downtime must be positive";
  if rate = 0.0 || horizon <= 0.0 then []
  else begin
    let events = ref [] in
    List.iter
      (fun (src, dst) ->
        let key = Printf.sprintf "flap|%d|%s|%s" m.seed src dst in
        let d = Crypto.Sha256.digest key in
        let s = ref 0 in
        for i = 0 to 7 do
          s := (!s lsl 8) lor Char.code d.[i]
        done;
        let rng = Crypto.Rng.create ~seed:!s in
        let t = ref (exp_draw rng (1.0 /. rate)) in
        let up = ref true in
        while !t < horizon do
          events := { fl_src = src; fl_dst = dst; fl_at = !t; fl_down = !up } :: !events;
          let dwell =
            if !up then exp_draw rng mean_downtime else exp_draw rng (1.0 /. rate)
          in
          up := not !up;
          t := !t +. dwell
        done;
        (* A link down at the horizon comes back just after it, so
           every flap run converges to the static topology. *)
        if not !up then
          events :=
            { fl_src = src; fl_dst = dst; fl_at = horizon; fl_down = false }
            :: !events)
      links;
    List.sort
      (fun a b ->
        match compare a.fl_at b.fl_at with
        | 0 -> (
          match String.compare a.fl_src b.fl_src with
          | 0 -> String.compare a.fl_dst b.fl_dst
          | c -> c)
        | c -> c)
      !events
  end

(* --- crash-spec syntax ------------------------------------------------ *)

(* "node@at" (down forever) or "node@at+duration" (restarts at
   at+duration); used by the psn CLI's --crash flag. *)
let crash_of_string (s : string) : (crash, string) result =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "crash spec %S: expected NODE@TIME[+DURATION]" s)
  | Some i ->
    let node = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    if node = "" then Error (Printf.sprintf "crash spec %S: empty node name" s)
    else begin
      let at_str, dur_str =
        match String.index_opt rest '+' with
        | None -> (rest, None)
        | Some j ->
          ( String.sub rest 0 j,
            Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      match (float_of_string_opt at_str, dur_str) with
      | None, _ -> Error (Printf.sprintf "crash spec %S: bad crash time" s)
      | Some at, None -> Ok { cr_node = node; cr_at = at; cr_restart = None }
      | Some at, Some d -> (
        match float_of_string_opt d with
        | None -> Error (Printf.sprintf "crash spec %S: bad duration" s)
        | Some d when d <= 0.0 ->
          Error (Printf.sprintf "crash spec %S: duration must be positive" s)
        | Some d -> Ok { cr_node = node; cr_at = at; cr_restart = Some (at +. d) })
    end

let crash_to_string (c : crash) : string =
  match c.cr_restart with
  | None -> Printf.sprintf "%s@%g" c.cr_node c.cr_at
  | Some r -> Printf.sprintf "%s@%g+%g" c.cr_node c.cr_at (r -. c.cr_at)

let describe (m : model) : string =
  if is_ideal m then "ideal"
  else
    Printf.sprintf "drop=%g dup=%g reorder=%g jitter=%g crashes=[%s] seed=%d"
      m.default_spec.drop m.default_spec.duplicate m.default_spec.reorder
      m.default_spec.jitter
      (String.concat "," (List.map crash_to_string m.crashes))
      m.seed
