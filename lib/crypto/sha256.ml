(* SHA-256 (FIPS 180-4), implemented on native ints masked to 32 bits.

   Substitute for the OpenSSL digests the paper uses when signing
   tuples and provenance.  Verified against the FIPS test vectors in
   the test suite. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = { h : int array; mutable len : int; buf : Buffer.t }

let init () =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    len = 0;
    buf = Buffer.create 64 }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress (h : int array) (block : string) (off : int) =
  let w = Array.make 64 0 in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code block.[off + (4 * t)] lsl 24)
      lor (Char.code block.[off + (4 * t) + 1] lsl 16)
      lor (Char.code block.[off + (4 * t) + 2] lsl 8)
      lor Char.code block.[off + (4 * t) + 3]
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_sub (ctx : ctx) (s : string) (pos : int) (len : int) =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub: range outside input";
  ctx.len <- ctx.len + len;
  if Buffer.length ctx.buf = 0 then begin
    (* Block-aligned fast path: compress straight out of the caller's
       buffer, no staging copy. *)
    let blocks = len / 64 in
    for i = 0 to blocks - 1 do
      compress ctx.h s (pos + (i * 64))
    done;
    Buffer.add_substring ctx.buf s (pos + (blocks * 64)) (len - (blocks * 64))
  end
  else begin
    Buffer.add_substring ctx.buf s pos len;
    let data = Buffer.contents ctx.buf in
    let n = String.length data in
    let blocks = n / 64 in
    for i = 0 to blocks - 1 do
      compress ctx.h data (i * 64)
    done;
    Buffer.clear ctx.buf;
    Buffer.add_substring ctx.buf data (blocks * 64) (n - (blocks * 64))
  end

let feed (ctx : ctx) (s : string) = feed_sub ctx s 0 (String.length s)

(* Feed a [Bytes] sub-range without copying.  Sound: [compress] only
   reads, and does so before control returns to the caller. *)
let feed_bytes (ctx : ctx) (b : Bytes.t) ~(pos : int) ~(len : int) =
  feed_sub ctx (Bytes.unsafe_to_string b) pos len

let finalize (ctx : ctx) : string =
  let bit_len = ctx.len * 8 in
  let pad_len =
    let r = (ctx.len + 1) mod 64 in
    if r <= 56 then 56 - r else 120 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail (1 + pad_len + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  (* Bypass [feed]'s length accounting for the padding bytes. *)
  Buffer.add_bytes ctx.buf (Bytes.to_string tail |> Bytes.of_string);
  let data = Buffer.contents ctx.buf in
  let blocks = String.length data / 64 in
  for i = 0 to blocks - 1 do
    compress ctx.h data (i * 64)
  done;
  String.init 32 (fun i ->
      Char.chr ((ctx.h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

let digest (s : string) : string =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_bytes (b : Bytes.t) ~(pos : int) ~(len : int) : string =
  let ctx = init () in
  feed_bytes ctx b ~pos ~len;
  finalize ctx

let to_hex (d : string) : string =
  let buf = Buffer.create (2 * String.length d) in
  String.iter
    (fun c ->
      Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
      Buffer.add_char buf "0123456789abcdef".[Char.code c land 0xF])
    d;
  Buffer.contents buf

let hex_digest (s : string) : string = to_hex (digest s)
