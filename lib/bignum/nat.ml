(* Arbitrary-precision natural numbers.

   Representation: little-endian [int array] of limbs, each limb in
   [0, base) with base = 2^26, and no trailing zero limb (the canonical
   form of zero is the empty array).  A product of two limbs is below
   2^52, so a sum of up to 2^10 such products plus a 36-bit carry still
   fits OCaml's native 63-bit [int] on 64-bit platforms: schoolbook
   loops carry after every product, and the Montgomery kernel below
   sums whole columns of up to 1024 products (hence its 512-limb
   bound) before carrying once. *)

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

let to_int_exn (a : t) : int =
  match to_int_opt a with
  | Some i -> i
  | None -> invalid_arg "Nat.to_int_exn: does not fit in int"

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

(* Modular arithmetic for an odd modulus m held in Montgomery form:
   values are a*R mod m with R = base^k, and [mul_into] / [sqr_into]
   compute a*b*R^-1 mod m by product scanning instead of the full Knuth
   divmod that [mod_pow] pays on every step.

   Product scanning walks the output columns of a*b + u*m in order (u
   the Montgomery quotient) and sums each column in one native int,
   carrying once per column rather than once per limb product.  A
   column holds at most 2k products below 2^52 plus the previous
   column's carry (below 2^36), so the sum stays below 2^62 while
   k <= [max_limbs] = 512; [ctx] rejects wider moduli.

   The kernel is destination-passing: it writes into [dst] and keeps u
   in a caller-supplied k-limb scratch, so an exponentiation allocates
   its buffers once and nothing per step.  [dst] may alias either
   input: output column i (i >= k) is stored into limb i-k, and every
   later column reads only limbs above i-k. *)
module Mont = struct
  type ctx = {
    modulus : t;
    m : int array; (* the modulus, exactly k limbs *)
    k : int;
    n0' : int; (* -modulus^-1 mod base *)
    r2 : int array; (* R^2 mod modulus, padded to k limbs *)
  }

  let max_limbs = 512

  let pad (k : int) (a : t) : int array =
    let r = Array.make k 0 in
    Array.blit a 0 r 0 (Array.length a);
    r

  (* -m0^-1 mod base by Newton iteration: each step doubles the number
     of correct low bits, and an odd m0 is its own inverse mod 8. *)
  let neg_inv_limb (m0 : int) : int =
    let x = ref m0 in
    for _ = 1 to 4 do
      x := (!x * (2 - (m0 * !x))) land limb_mask
    done;
    (base - !x) land limb_mask

  let ctx (modulus : t) : ctx =
    if is_zero modulus || is_even modulus || equal modulus one then
      invalid_arg "Nat.Mont.ctx: modulus must be odd and > 1";
    let k = Array.length modulus in
    if k > max_limbs then invalid_arg "Nat.Mont.ctx: modulus wider than 512 limbs";
    { modulus;
      m = Array.copy modulus;
      k;
      n0' = neg_inv_limb modulus.(0);
      r2 = pad k (rem (shift_left one (2 * k * limb_bits)) modulus) }

  let modulus (c : ctx) : t = c.modulus

  (* [dst] := [dst] - m when the value (top * R + dst) is >= m.  Both
     kernels leave a value below 2m, so one subtraction restores the
     range [0, m). *)
  let reduce_once (c : ctx) (dst : int array) (top : int) : unit =
    let k = c.k and m = c.m in
    let j = ref (k - 1) in
    while !j >= 0 && dst.(!j) = m.(!j) do
      decr j
    done;
    if top <> 0 || !j < 0 || dst.(!j) > m.(!j) then begin
      let borrow = ref 0 in
      for j = 0 to k - 1 do
        let d = dst.(j) - m.(j) - !borrow in
        dst.(j) <- d land limb_mask;
        borrow := -(d asr limb_bits)
      done
    end

  (* Unchecked limb reads for the two kernels' column loops: every
     index there lies in [0, k), and every operand is a k-limb array
     built inside this module.  The [int array] annotation compiles the
     read to a plain load, without the float-array tag test. *)
  let ( .%() ) (a : int array) (i : int) : int = Array.unsafe_get a i

  (* [dst] := a*b*R^-1 mod m.  Inputs are k-limb arrays holding values
     < m; [u] is the k-limb scratch for the quotient digits.  Column i
     < k picks u_i so that the column's low limb vanishes; column i >= k
     is output limb i-k. *)
  let mul_into (c : ctx) (u : int array) (dst : int array) (a : int array)
      (b : int array) : unit =
    let k = c.k and m = c.m and n0' = c.n0' in
    let acc = ref 0 in
    for i = 0 to (2 * k) - 2 do
      let s = ref (if i < k then !acc + (a.%(i) * b.%(0)) else !acc) in
      for j = Int.max 0 (i - k + 1) to Int.min (i - 1) (k - 1) do
        s := !s + (a.%(j) * b.%(i - j)) + (u.%(j) * m.%(i - j))
      done;
      if i < k then begin
        let ui = ((!s land limb_mask) * n0') land limb_mask in
        u.(i) <- ui;
        acc := (!s + (ui * m.%(0))) lsr limb_bits
      end
      else begin
        dst.(i - k) <- !s land limb_mask;
        acc := !s lsr limb_bits
      end
    done;
    dst.(k - 1) <- !acc land limb_mask;
    reduce_once c dst (!acc lsr limb_bits)

  (* [dst] := a*a*R^-1 mod m: as [mul_into], but in each column of
     a*a the cross products a_j*a_(i-j) with j < i-j are summed once
     (into [x], alongside the first u*m products) and then doubled. *)
  let sqr_into (c : ctx) (u : int array) (dst : int array) (a : int array) : unit =
    let k = c.k and m = c.m and n0' = c.n0' in
    let acc = ref 0 in
    for i = 0 to (2 * k) - 2 do
      let lo = Int.max 0 (i - k + 1) and half = (i - 1) asr 1 in
      let x = ref 0 and s = ref !acc in
      for j = lo to half do
        x := !x + (a.%(j) * a.%(i - j));
        s := !s + (u.%(j) * m.%(i - j))
      done;
      for j = half + 1 to Int.min (i - 1) (k - 1) do
        s := !s + (u.%(j) * m.%(i - j))
      done;
      let s = !s + (2 * !x) + if i land 1 = 0 then a.%(i lsr 1) * a.%(i lsr 1) else 0 in
      if i < k then begin
        let ui = ((s land limb_mask) * n0') land limb_mask in
        u.(i) <- ui;
        acc := (s + (ui * m.%(0))) lsr limb_bits
      end
      else begin
        dst.(i - k) <- s land limb_mask;
        acc := s lsr limb_bits
      end
    done;
    dst.(k - 1) <- !acc land limb_mask;
    reduce_once c dst (!acc lsr limb_bits)

  (* A fresh k-limb Montgomery form of [a]. *)
  let to_mont (c : ctx) (u : int array) (a : t) : int array =
    let r = pad c.k (rem a c.modulus) in
    mul_into c u r r c.r2;
    r

  (* Leaves Montgomery form, consuming [a]. *)
  let from_mont (c : ctx) (u : int array) (a : int array) : t =
    let one_limb = Array.make c.k 0 in
    one_limb.(0) <- 1;
    mul_into c u a a one_limb;
    normalize a

  (* The bits of [e], least significant first, as bytes 0/1: one pass
     over the limbs instead of a [testbit] per step. *)
  let exponent_bits (e : t) : Bytes.t =
    let nbits = bits e in
    let s = Bytes.create nbits in
    Array.iteri
      (fun l limb ->
        let lo = l * limb_bits in
        for j = 0 to Int.min limb_bits (nbits - lo) - 1 do
          Bytes.set s (lo + j) (Char.unsafe_chr ((limb lsr j) land 1))
        done)
      e;
    s

  let window_bits (n : int) : int =
    if n <= 24 then 2 else if n <= 160 then 3 else if n <= 768 then 4 else 5

  (* b^e mod m by sliding-window exponentiation in the Montgomery
     domain: one squaring per exponent bit plus one multiply per (odd)
     window, with a precomputed table of the odd powers b^1, b^3, ...,
     b^(2^w - 1).  The steps work in place on one accumulator. *)
  let mod_pow (c : ctx) (b : t) (e : t) : t =
    let nbits = bits e in
    if nbits = 0 then one
    else begin
      let ebits = exponent_bits e in
      let bit i = Char.code (Bytes.get ebits i) in
      let w = window_bits nbits in
      let u = Array.make c.k 0 in
      let g1 = to_mont c u b in
      let g2 = Array.make c.k 0 in
      sqr_into c u g2 g1;
      let table = Array.make (1 lsl (w - 1)) g1 in
      for i = 1 to Array.length table - 1 do
        let t = Array.make c.k 0 in
        mul_into c u t table.(i - 1) g2;
        table.(i) <- t
      done;
      let r = Array.make c.k 0 in
      let first = ref true in
      let i = ref (nbits - 1) in
      while !i >= 0 do
        if bit !i = 0 then begin
          sqr_into c u r r;
          decr i
        end
        else begin
          (* Widest window [l, i] that ends on a set bit. *)
          let l = ref (Int.max 0 (!i - w + 1)) in
          while bit !l = 0 do
            incr l
          done;
          let v = ref 0 in
          for j = !i downto !l do
            v := (!v lsl 1) lor bit j
          done;
          if !first then begin
            (* The first window starts at the top bit, where the
               accumulator is still 1: take the window's power. *)
            Array.blit table.(!v lsr 1) 0 r 0 c.k;
            first := false
          end
          else begin
            for _ = !l to !i do
              sqr_into c u r r
            done;
            mul_into c u r r table.(!v lsr 1)
          end;
          i := !l - 1
        end
      done;
      from_mont c u r
    end

  (* Small public exponents (RSA verify: e = 65537) skip the Nat
     exponent walk entirely: square-and-multiply over the bits of a
     machine int. *)
  let mod_pow_int (c : ctx) (b : t) (e : int) : t =
    if e < 0 then invalid_arg "Nat.Mont.mod_pow_int: negative exponent";
    if e = 0 then one
    else begin
      let u = Array.make c.k 0 in
      let g = to_mont c u b in
      let r = Array.copy g in
      let rec top_bit n = if n <= 1 then 0 else 1 + top_bit (n lsr 1) in
      for j = top_bit e - 1 downto 0 do
        sqr_into c u r r;
        if (e lsr j) land 1 = 1 then mul_into c u r r g
      done;
      from_mont c u r
    end
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
