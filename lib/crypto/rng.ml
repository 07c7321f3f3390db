(* Deterministic pseudo-random generator (SplitMix64).

   Every source of randomness in the repository (topologies, key
   generation, workloads) flows from a seeded [Rng.t] so that tests and
   benchmarks are reproducible run-to-run.  Not cryptographically
   secure - see the security caveat in DESIGN.md. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* One SplitMix64 step: advance the state and scramble the output. *)
let next64 (t : t) : int64 =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [bits t k] returns a uniform int in [0, 2^k), 0 <= k <= 62. *)
let bits (t : t) (k : int) : int =
  if k < 0 || k > 62 then invalid_arg "Rng.bits";
  if k = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next64 t) (64 - k)) land ((1 lsl k) - 1)

(* [int t n] returns a uniform int in [0, n). *)
let int (t : t) (n : int) : int =
  if n <= 0 then invalid_arg "Rng.int";
  let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
  let k = width 0 (n - 1) in
  let rec go () =
    let v = bits t (max k 1) in
    if v < n then v else go ()
  in
  go ()

let int_in_range (t : t) ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range";
  lo + int t (hi - lo + 1)

let float (t : t) (bound : float) : float =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

(* Fisher-Yates shuffle (in place). *)
let shuffle (t : t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick (t : t) (l : 'a list) : 'a =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

(* Derive an independent child generator; used to give each simulated
   node its own stream without cross-coupling. *)
let split (t : t) : t = { state = next64 t }

(* Adapter with the signature [Bignum.Nat.random_bits] expects. *)
let nat_rand (t : t) : int -> int = fun k -> bits t k
