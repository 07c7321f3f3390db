(* Order statistics shared by the runner and [--compare]. *)

let mean (xs : float list) : float =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile, [p] in [0, 1]; 0 for an empty sample. *)
let percentile (p : float) (xs : float list) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so [--compare] reports the
   numbers a reader recomputes from the raw values.  A single value is
   its own quartiles. *)
let quartiles (xs : float list) : float * float * float =
  match List.sort compare xs with
  | [] -> (0.0, 0.0, 0.0)
  | [ x ] -> (x, x, x)
  | sorted ->
    let a = Array.of_list sorted in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread (xs : float list) : float =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let ratio (num : float) (den : float) : float = if den = 0.0 then 0.0 else num /. den
