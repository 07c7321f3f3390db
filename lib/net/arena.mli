(** Growable byte arena: cursor-based writer plus zero-copy slice
    reads for the wire hot path.

    A writer [t] owns one backing [Bytes] that doubles on demand;
    [reset] rewinds the cursor without shrinking, so a reused arena
    stops allocating once it has seen its largest message.  A [slice]
    is a (base, offset, length) view — over an arena's contents or,
    via {!of_string}, over an existing string with no copy — and the
    cursor {!reader} walks a slice in place.  Receivers therefore
    parse, digest, and verify straight out of the buffer the bytes
    arrived in; nothing on the read path allocates intermediate
    strings.

    Lifetime rule: a slice into an arena is valid until the next write
    or {!reset} on that arena (growth swaps the backing buffer).  The
    runtime's convention is that slices into {!scratch} arenas are
    consumed — digested or copied — before control returns. *)

exception Bounds_error of string
(** Raised by every out-of-range read, sub-slice, or patch. *)

type t
(** A growable writer. *)

val create : ?capacity:int -> unit -> t
(** Fresh arena with the given initial capacity (default 256 bytes).
    Raises [Invalid_argument] if [capacity < 1]. *)

val length : t -> int
(** Bytes written since the last {!reset}. *)

val capacity : t -> int
(** Current backing-buffer size (monotone under reuse). *)

val reset : t -> unit
(** Rewind the cursor; keeps the backing buffer. *)

val add_char : t -> char -> unit

val add_u16 : t -> int -> unit
(** Big-endian, low 16 bits. *)

val add_u32 : t -> int -> unit
(** Big-endian, low 32 bits. *)

val add_u64 : t -> int64 -> unit
(** Big-endian. *)

val add_string : t -> string -> unit

val add_substring : t -> string -> int -> int -> unit
(** [add_substring a s pos len] appends [len] bytes of [s] from
    [pos]. *)

val reserve_u32 : t -> int
(** Write a 4-byte placeholder and return its offset, for length
    prefixes whose value is only known after the payload is written;
    fill with {!patch_u32}. *)

val patch_u32 : t -> int -> int -> unit
(** [patch_u32 a at v] overwrites the 4 bytes at offset [at].
    @raise Bounds_error if [at + 4] exceeds the written length. *)

val contents : t -> string
(** Copy out everything written since the last {!reset}. *)

(** {1 Slices} *)

type slice
(** A read-only (base, offset, length) view; never copies. *)

val slice : t -> slice
(** View of everything written so far (see the lifetime rule above). *)

val slice_from : t -> int -> slice
(** [slice_from a off] views bytes [off .. length a - 1].
    @raise Bounds_error if [off] is outside the written range. *)

val of_string : string -> slice
(** Zero-copy view of a string (sound: slices are never written
    through). *)

val slice_length : slice -> int

val sub : slice -> pos:int -> len:int -> slice
(** Sub-view. @raise Bounds_error when out of range. *)

val get : slice -> int -> char
(** @raise Bounds_error when out of range. *)

val to_string : slice -> string
(** Materialize the viewed bytes (the one copying operation). *)

val with_bytes : slice -> (Bytes.t -> pos:int -> len:int -> 'a) -> 'a
(** Hand the backing range to a read-only consumer (a digest or MAC)
    without copying.  The consumer must not write through the bytes or
    retain them past the call. *)

(** {1 Cursor reader} *)

type reader

val reader : slice -> reader

val reader_of_string : string -> reader

val remaining : reader -> int

val u8 : reader -> int
val u16 : reader -> int
val u32 : reader -> int
val u64 : reader -> int64

val take : reader -> int -> slice
(** Next [n] bytes as a sub-slice (a view, not a copy).
    @raise Bounds_error past the end, like every [u*] read. *)

val take_string : reader -> int -> string

(** {1 Domain-local scratch} *)

val scratch : unit -> t
(** Per-domain scratch arena for transient encodes, reset on every
    call.  Any slice into it must be consumed (digested or copied)
    before the same domain calls [scratch] again. *)
