(* Arbitrary-precision natural numbers.

   Representation: little-endian [int array] of limbs, each limb in
   [0, base) with base = 2^26, and no trailing zero limb (the canonical
   form of zero is the empty array).  A product of two limbs is below
   2^52, so a product plus a limb and a carry fits OCaml's native
   63-bit [int] on 64-bit platforms: schoolbook loops carry after every
   product.  The Montgomery kernel ([Mont], below) runs in C over
   64-bit limbs. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (a : t) = Array.length a = 0

let num_limbs (a : t) = Array.length a

(* Strip trailing zero limbs to restore canonical form. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (i : int) : t =
  if i < 0 then invalid_arg "Nat.of_int: negative";
  if i = 0 then zero
  else begin
    let rec count acc i = if i = 0 then acc else count (acc + 1) (i lsr limb_bits) in
    let n = count 0 i in
    let a = Array.make n 0 in
    let rec fill k i =
      if i <> 0 then begin
        a.(k) <- i land limb_mask;
        fill (k + 1) (i lsr limb_bits)
      end
    in
    fill 0 i;
    a
  end

let to_int_opt (a : t) : int option =
  (* max_int has 62 bits; accept values of at most 62 bits. *)
  let rec go acc shift k =
    if k >= Array.length a then Some acc
    else if shift >= 62 then None
    else
      let limb = a.(k) in
      if shift + limb_bits > 62 && limb lsr (62 - shift) <> 0 then None
      else go (acc lor (limb lsl shift)) (shift + limb_bits) (k + 1)
  in
  go 0 0 0

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go k =
      if k < 0 then 0
      else if a.(k) <> b.(k) then Stdlib.compare a.(k) b.(k)
      else go (k - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for k = 0 to n - 1 do
    let s = (if k < la then a.(k) else 0) + (if k < lb then b.(k) else 0) + !carry in
    r.(k) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for k = 0 to la - 1 do
    let d = a.(k) - (if k < lb then b.(k) else 0) - !borrow in
    if d < 0 then begin
      r.(k) <- d + base;
      borrow := 1
    end else begin
      r.(k) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        (* Propagate the final carry; it can span several limbs only if
           r already held values there, which single-step propagation
           handles since carry < base. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land limb_mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let mul_int (a : t) (m : int) : t =
  if m < 0 then invalid_arg "Nat.mul_int: negative";
  mul a (of_int m)

let shift_left (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for k = 0 to la - 1 do
      let v = a.(k) lsl bit_shift in
      r.(k + limb_shift) <- r.(k + limb_shift) lor (v land limb_mask);
      r.(k + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for k = 0 to n - 1 do
        let lo = a.(k + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || k + limb_shift + 1 >= la then 0
          else (a.(k + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(k) <- lo lor hi
      done;
      normalize r
    end
  end

let bits (a : t) : int =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((la - 1) * limb_bits) + width 0 top
  end

let testbit (a : t) (i : int) : bool =
  if i < 0 then invalid_arg "Nat.testbit";
  let k = i / limb_bits in
  k < Array.length a && (a.(k) lsr (i mod limb_bits)) land 1 = 1

let is_even (a : t) = not (testbit a 0)

(* Division by a single limb; returns (quotient, remainder). *)
let divmod_limb (a : t) (d : int) : t * int =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_limb";
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for k = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(k) in
    q.(k) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D.  [divmod u v] returns (q, r)
   with u = q*v + r and 0 <= r < v. *)
let divmod (u : t) (v : t) : t * t =
  if is_zero v then raise Division_by_zero;
  if compare u v < 0 then (zero, u)
  else if Array.length v = 1 then begin
    let q, r = divmod_limb u v.(0) in
    (q, of_int r)
  end else begin
    (* D1: normalize so that the top limb of v is >= base/2. *)
    let shift =
      let top = v.(Array.length v - 1) in
      let rec go s t = if t >= base / 2 then s else go (s + 1) (t lsl 1) in
      go 0 top
    in
    let un = shift_left u shift and vn = shift_left v shift in
    let n = Array.length vn in
    let m = Array.length un - n in
    (* Working copy of the dividend with an explicit extra top limb. *)
    let w = Array.make (Array.length un + 1) 0 in
    Array.blit un 0 w 0 (Array.length un);
    let q = Array.make (m + 1) 0 in
    let v1 = vn.(n - 1) and v2 = vn.(n - 2) in
    for j = m downto 0 do
      (* D3: estimate qhat from the top two limbs of the current window. *)
      let top2 = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
      let qhat = ref (top2 / v1) and rhat = ref (top2 mod v1) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := top2 - (base - 1) * v1
      end;
      let continue = ref true in
      while !continue && !rhat < base do
        (* Test qhat*v2 against rhat*base + w.(j+n-2). *)
        if !qhat * v2 > (!rhat lsl limb_bits) lor w.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + v1
        end else continue := false
      done;
      (* D4: multiply and subtract qhat * vn from the window. *)
      let borrow = ref 0 and carry = ref 0 in
      for k = 0 to n - 1 do
        let p = !qhat * vn.(k) + !carry in
        carry := p lsr limb_bits;
        let d = w.(j + k) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          w.(j + k) <- d + base;
          borrow := 1
        end else begin
          w.(j + k) <- d;
          borrow := 0
        end
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* D6: qhat was one too large; add back. *)
        w.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for k = 0 to n - 1 do
          let s = w.(j + k) + vn.(k) + !c in
          w.(j + k) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        w.(j + n) <- (w.(j + n) + !c) land limb_mask
      end else w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub w 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mod_pow (b : t) (e : t) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let b = rem b m in
    let result = ref one and acc = ref b in
    let nbits = bits e in
    for i = 0 to nbits - 1 do
      if testbit e i then result := rem (mul !result !acc) m;
      if i < nbits - 1 then acc := rem (mul !acc !acc) m
    done;
    !result
  end

let gcd (a : t) (b : t) : t =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* --- Montgomery arithmetic -------------------------------------------- *)

(* Modular exponentiation for an odd modulus m in the Montgomery
   domain, R = 2^(64k) for the k 64-bit limbs m fills.  The whole
   exponentiation is one C call (mont_stubs.c): OCaml has no 64x64 ->
   128-bit multiply, so the kernel converts to 64-bit limbs on entry
   and back on exit.  The context holds what the kernel takes besides
   the operands, R^2 mod m; the stub works out -m^-1 mod 2^64 itself. *)
module Mont = struct
  type ctx = {
    modulus : t;
    r2 : t; (* R^2 mod modulus *)
  }

  (* Bounds the stub's stack buffers: 512 26-bit limbs fill 208
     64-bit limbs. *)
  let max_limbs = 512

  let ctx (modulus : t) : ctx =
    if is_zero modulus || is_even modulus || equal modulus one then
      invalid_arg "Nat.Mont.ctx: modulus must be odd and > 1";
    if Array.length modulus > max_limbs then
      invalid_arg "Nat.Mont.ctx: modulus wider than 512 limbs";
    let k = (bits modulus + 63) / 64 in
    { modulus; r2 = rem (shift_left one (128 * k)) modulus }

  let modulus (c : ctx) : t = c.modulus

  (* [pow m r2 b e out] writes b^e mod m into [out], which has as many
     limbs as m; b < m.  It allocates nothing and holds no lock. *)
  external pow : t -> t -> t -> t -> int array -> unit = "bignum_mont_pow" [@@noalloc]

  let mod_pow (c : ctx) (b : t) (e : t) : t =
    let out = Array.make (Array.length c.modulus) 0 in
    pow c.modulus c.r2 (rem b c.modulus) e out;
    normalize out
end

let pow (b : t) (e : int) : t =
  if e < 0 then invalid_arg "Nat.pow";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one b e

(* Hexadecimal I/O (most significant digit first). *)
let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let nb = bits a in
    let ndigits = (nb + 3) / 4 in
    let buf = Buffer.create ndigits in
    for i = ndigits - 1 downto 0 do
      let d = ref 0 in
      for j = 3 downto 0 do
        d := (!d lsl 1) lor (if testbit a ((i * 4) + j) then 1 else 0)
      done;
      Buffer.add_char buf "0123456789abcdef".[!d]
    done;
    Buffer.contents buf
  end

let of_hex (s : string) : t =
  if String.length s = 0 then invalid_arg "Nat.of_hex: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Nat.of_hex: bad digit"
      in
      if d >= 0 then acc := add (shift_left !acc 4) (of_int d))
    s;
  !acc

let to_string (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod_limb a 10 in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + r))
      end
    in
    go a;
    Buffer.contents buf
  end

let of_string (s : string) : t =
  if String.length s = 0 then invalid_arg "Nat.of_string: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_string: bad digit")
    s;
  !acc

(* Big-endian byte-string conversions, used by the crypto layer.  Both
   are one pass from the least significant end through a bit
   accumulator that never holds more than 26 + 8 bits. *)
let to_bytes_be (a : t) : string =
  if is_zero a then "\000"
  else begin
    let nbytes = (bits a + 7) / 8 in
    let s = Bytes.create nbytes in
    let acc = ref 0 and nacc = ref 0 and pos = ref (nbytes - 1) in
    Array.iter
      (fun limb ->
        acc := !acc lor (limb lsl !nacc);
        nacc := !nacc + limb_bits;
        while !nacc >= 8 && !pos >= 0 do
          Bytes.set s !pos (Char.unsafe_chr (!acc land 0xff));
          acc := !acc lsr 8;
          nacc := !nacc - 8;
          decr pos
        done)
      a;
    (* The top byte, when the limbs end mid-byte. *)
    if !pos = 0 then Bytes.set s 0 (Char.unsafe_chr !acc);
    Bytes.unsafe_to_string s
  end

let of_bytes_be (s : string) : t =
  let len = String.length s in
  let r = Array.make (((len * 8) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nacc = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !nacc);
    nacc := !nacc + 8;
    if !nacc >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      nacc := !nacc - limb_bits;
      incr k
    end
  done;
  if !nacc > 0 then r.(!k) <- !acc;
  normalize r

(* [random_bits ~rand n] draws a uniformly random natural below 2^n.
   [rand k] must return a uniformly random int in [0, 2^k) for k <= 26. *)
let random_bits ~(rand : int -> int) (n : int) : t =
  if n < 0 then invalid_arg "Nat.random_bits";
  let nlimbs = (n + limb_bits - 1) / limb_bits in
  let a = Array.make (max nlimbs 0) 0 in
  for k = 0 to nlimbs - 1 do
    let w = min limb_bits (n - (k * limb_bits)) in
    a.(k) <- rand w
  done;
  normalize a

(* Uniform random natural in [0, bound) by rejection sampling. *)
let random_below ~(rand : int -> int) (bound : t) : t =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let nb = bits bound in
  let rec go () =
    let c = random_bits ~rand nb in
    if compare c bound < 0 then c else go ()
  in
  go ()

let pp fmt a = Format.pp_print_string fmt (to_string a)
