(* Growable byte arena with a cursor-based writer and zero-copy slice
   reads.

   The wire codec used to allocate per field through [Buffer]; the
   arena replaces that with one preallocated [Bytes] per writer that
   doubles on demand and is reused across messages ([reset] rewinds
   the cursor without shrinking).  Readers never copy: a [slice] is a
   (base, offset, length) view into the arena — or, via [of_string],
   into an existing string — and the cursor [reader] walks a slice
   in place, so receivers can parse and digest straight out of the
   buffer a message arrived in. *)

exception Bounds_error of string

let bounds fmt = Printf.ksprintf (fun s -> raise (Bounds_error s)) fmt

type t = { mutable buf : Bytes.t; mutable len : int }

let create ?(capacity = 256) () : t =
  if capacity < 1 then invalid_arg "Arena.create: capacity must be >= 1";
  { buf = Bytes.create capacity; len = 0 }

let length (a : t) : int = a.len

let reset (a : t) : unit = a.len <- 0

let ensure (a : t) (extra : int) : unit =
  let need = a.len + extra in
  if need > Bytes.length a.buf then begin
    let cap = ref (Bytes.length a.buf) in
    while need > !cap do
      cap := !cap * 2
    done;
    let nbuf = Bytes.create !cap in
    Bytes.blit a.buf 0 nbuf 0 a.len;
    a.buf <- nbuf
  end

let add_char (a : t) (c : char) : unit =
  ensure a 1;
  Bytes.unsafe_set a.buf a.len c;
  a.len <- a.len + 1

let add_u32 (a : t) (i : int) : unit =
  ensure a 4;
  let b = a.buf and p = a.len in
  Bytes.unsafe_set b p (Char.unsafe_chr ((i lsr 24) land 0xFF));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((i lsr 16) land 0xFF));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((i lsr 8) land 0xFF));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (i land 0xFF));
  a.len <- p + 4

let add_u16 (a : t) (i : int) : unit =
  ensure a 2;
  let b = a.buf and p = a.len in
  Bytes.unsafe_set b p (Char.unsafe_chr ((i lsr 8) land 0xFF));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (i land 0xFF));
  a.len <- p + 2

let add_u64 (a : t) (i : int64) : unit =
  ensure a 8;
  Bytes.set_int64_be a.buf a.len i;
  a.len <- a.len + 8

let add_substring (a : t) (s : string) (pos : int) (n : int) : unit =
  ensure a n;
  Bytes.blit_string s pos a.buf a.len n;
  a.len <- a.len + n

let add_string (a : t) (s : string) : unit =
  add_substring a s 0 (String.length s)

(* Reserve a 4-byte hole for a length prefix whose value is only known
   after the payload is written; [patch_u32] fills it in. *)
let reserve_u32 (a : t) : int =
  let at = a.len in
  add_u32 a 0;
  at

let patch_u32 (a : t) (at : int) (i : int) : unit =
  if at < 0 || at + 4 > a.len then bounds "Arena.patch_u32: offset %d outside arena" at;
  let b = a.buf in
  Bytes.unsafe_set b at (Char.unsafe_chr ((i lsr 24) land 0xFF));
  Bytes.unsafe_set b (at + 1) (Char.unsafe_chr ((i lsr 16) land 0xFF));
  Bytes.unsafe_set b (at + 2) (Char.unsafe_chr ((i lsr 8) land 0xFF));
  Bytes.unsafe_set b (at + 3) (Char.unsafe_chr (i land 0xFF))

let contents (a : t) : string = Bytes.sub_string a.buf 0 a.len

(* --- slices ----------------------------------------------------------- *)

type slice = { base : Bytes.t; off : int; len : int }

(* View of everything written so far.  Valid until the next write or
   [reset] on a reused arena: growth replaces the backing [Bytes], so a
   slice taken before a write may alias a stale buffer. *)
let slice (a : t) : slice = { base = a.buf; off = 0; len = a.len }

let slice_from (a : t) (off : int) : slice =
  if off < 0 || off > a.len then bounds "Arena.slice_from: offset %d outside arena" off;
  { base = a.buf; off; len = a.len - off }

(* Zero-copy view of a string.  Sound because slices are never written
   through: the reader side only peeks bytes. *)
let of_string (s : string) : slice =
  { base = Bytes.unsafe_of_string s; off = 0; len = String.length s }

let slice_length (s : slice) : int = s.len

let sub (s : slice) ~(pos : int) ~(len : int) : slice =
  if pos < 0 || len < 0 || pos + len > s.len then
    bounds "Arena.sub: [%d, %d) outside slice of length %d" pos (pos + len) s.len;
  { base = s.base; off = s.off + pos; len }

let get (s : slice) (i : int) : char =
  if i < 0 || i >= s.len then bounds "Arena.get: index %d outside slice of length %d" i s.len;
  Bytes.unsafe_get s.base (s.off + i)

let to_string (s : slice) : string = Bytes.sub_string s.base s.off s.len

(* Expose the backing range to a read-only consumer (digests, MACs)
   without copying.  The consumer must not write through the bytes and
   must not retain them past the call. *)
let with_bytes (s : slice) (f : Bytes.t -> pos:int -> len:int -> 'a) : 'a =
  f s.base ~pos:s.off ~len:s.len

(* --- cursor reader ---------------------------------------------------- *)

type reader = { r : slice; mutable pos : int }

let reader (s : slice) : reader = { r = s; pos = 0 }

let reader_of_string (s : string) : reader = reader (of_string s)

let remaining (r : reader) : int = r.r.len - r.pos

let check (r : reader) (n : int) : unit =
  if r.pos + n > r.r.len then
    bounds "Arena: read of %d bytes at %d overruns slice of length %d" n r.pos r.r.len

let u8 (r : reader) : int =
  check r 1;
  let c = Char.code (Bytes.unsafe_get r.r.base (r.r.off + r.pos)) in
  r.pos <- r.pos + 1;
  c

let u16 (r : reader) : int =
  check r 2;
  let b = r.r.base and p = r.r.off + r.pos in
  r.pos <- r.pos + 2;
  (Char.code (Bytes.unsafe_get b p) lsl 8) lor Char.code (Bytes.unsafe_get b (p + 1))

let u32 (r : reader) : int =
  check r 4;
  let b = r.r.base and p = r.r.off + r.pos in
  r.pos <- r.pos + 4;
  (Char.code (Bytes.unsafe_get b p) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (p + 3))

let u64 (r : reader) : int64 =
  check r 8;
  let v = Bytes.get_int64_be r.r.base (r.r.off + r.pos) in
  r.pos <- r.pos + 8;
  v

(* Take the next [n] bytes as a sub-slice: a view, not a copy. *)
let take (r : reader) (n : int) : slice =
  check r n;
  let s = { base = r.r.base; off = r.r.off + r.pos; len = n } in
  r.pos <- r.pos + n;
  s

let take_string (r : reader) (n : int) : string = to_string (take r n)

(* --- domain-local scratch --------------------------------------------- *)

(* A per-domain scratch arena for transient encodes (signed bytes that
   are digested immediately and never retained).  Callers must consume
   any slice into the scratch before the next [scratch] call on the
   same domain: each call resets the cursor. *)
let scratch_key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> create ~capacity:1024 ())

let scratch () : t =
  let a = Domain.DLS.get scratch_key in
  reset a;
  a
