(* Signed arbitrary-precision integers, layered on [Nat].

   Zero is always represented with a positive sign so that structural
   and [compare]-based equality agree. *)

type sign = Pos | Neg

type t = { sign : sign; mag : Nat.t }

let mk sign mag = if Nat.is_zero mag then { sign = Pos; mag } else { sign; mag }

let zero = { sign = Pos; mag = Nat.zero }
let one = { sign = Pos; mag = Nat.one }
let minus_one = { sign = Neg; mag = Nat.one }

let of_nat mag = { sign = Pos; mag }

let to_nat_opt t = match t.sign with Pos -> Some t.mag | Neg -> None

let to_nat_exn t =
  match to_nat_opt t with
  | Some n -> n
  | None -> invalid_arg "Bigint.to_nat_exn: negative"

let of_int i =
  if i >= 0 then { sign = Pos; mag = Nat.of_int i }
  else if i = min_int then
    (* -min_int overflows; build via the magnitude of (min_int+1) + 1. *)
    { sign = Neg; mag = Nat.add (Nat.of_int (-(i + 1))) Nat.one }
  else { sign = Neg; mag = Nat.of_int (-i) }

let is_zero t = Nat.is_zero t.mag
let is_negative t = t.sign = Neg && not (is_zero t)
let sign_int t = if is_zero t then 0 else match t.sign with Pos -> 1 | Neg -> -1

let neg t = mk (match t.sign with Pos -> Neg | Neg -> Pos) t.mag
let abs t = { t with sign = Pos }

let compare a b =
  match (a.sign, b.sign) with
  | Pos, Neg -> if is_zero a && is_zero b then 0 else 1
  | Neg, Pos -> if is_zero a && is_zero b then 0 else -1
  | Pos, Pos -> Nat.compare a.mag b.mag
  | Neg, Neg -> Nat.compare b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  match (a.sign, b.sign) with
  | Pos, Pos | Neg, Neg -> mk a.sign (Nat.add a.mag b.mag)
  | Pos, Neg | Neg, Pos ->
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (Nat.sub a.mag b.mag)
    else mk b.sign (Nat.sub b.mag a.mag)

let sub a b = add a (neg b)

let mul a b =
  let s = if a.sign = b.sign then Pos else Neg in
  mk s (Nat.mul a.mag b.mag)

(* Truncated division (round toward zero), like OCaml's [/] and [mod]:
   the remainder has the sign of the dividend. *)
let divmod a b =
  if Nat.is_zero b.mag then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  let qs = if a.sign = b.sign then Pos else Neg in
  (mk qs q, mk a.sign r)

let rem a b = snd (divmod a b)

(* Euclidean remainder in [0, |b|), used by modular arithmetic. *)
let erem a b =
  let r = rem a b in
  if is_negative r then add r (abs b) else r

(* Extended gcd: [egcd a b] returns [(g, x, y)] with [a*x + b*y = g]
   and [g = gcd a b >= 0]. *)
let rec egcd a b =
  if is_zero b then (abs a, (if is_negative a then minus_one else one), zero)
  else begin
    let q, r = divmod a b in
    let g, x, y = egcd b r in
    (g, y, sub x (mul q y))
  end

(* Modular inverse: [mod_inverse a m] is the unique [x] in [1, m) with
   [a*x = 1 (mod m)], or [None] when [gcd a m <> 1]. *)
let mod_inverse a m =
  if is_zero m then invalid_arg "Bigint.mod_inverse: zero modulus";
  let g, x, _ = egcd a m in
  if not (equal g one) then None else Some (erem x m)

let to_string t = (if is_negative t then "-" else "") ^ Nat.to_string t.mag

let pp fmt t = Format.pp_print_string fmt (to_string t)
