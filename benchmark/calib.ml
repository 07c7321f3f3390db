(* Host-speed calibration.

   A shared two-core virtual machine changes speed every second or so,
   by up to 1.5x.  The slow state stretches memory-bound work; an
   arithmetic loop does not slow down at all.  Raw wall times of the
   same operation there spread by 10-20% from one 12 s window to the
   next.

   The probe kernel below fills and reads a small hash table of fresh
   strings: it allocates and misses the cache the way the program does,
   and so slows down with it.  In a 10-minute study of identical
   operations of every workload, dividing each operation's wall time
   by the probe time measured around it halved the spread between
   12 s windows (18% to 9% for NDLog, 20% to 7% for SeNDLog).  The
   probe keeps the fastest of three runs, so a cold cache left by the
   operation before it does not count as a slow host.

   Each episode of a workload is bracketed by two probes, and its wall
   times are scaled by [reference / probe]: times are reported in
   reference seconds, the time they would have taken had the probe
   taken [reference].  The kernel assumes the OCaml runtime's default
   GC settings, which the program does not change. *)

let reference = 0.004

let kernel () : int =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 20_000 do
    Hashtbl.replace h (i land 4095) (string_of_int i);
    acc := !acc + String.length (Hashtbl.find h (i land 4095))
  done;
  !acc

let run_once () : float =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* Seconds the kernel takes now: the fastest of three runs. *)
let probe () : float =
  let a = run_once () in
  let b = run_once () in
  Float.min a (Float.min b (run_once ()))

(* Run [f] between two probes; returns its result and the factor that
   turns wall seconds measured during it into reference seconds. *)
let scaled (f : unit -> 'a) : 'a * float =
  let before = probe () in
  let r = f () in
  let after = probe () in
  (r, reference /. ((before +. after) /. 2.0))
