(* Wire format for inter-node messages, with byte-accurate encoding.

   The bandwidth numbers of Figure 4 are computed from the encoded
   size of every message a run ships: a fixed header, the tuple
   payload, and - depending on the configuration - an authentication
   block (a cleartext principal or an RSA signature) and a
   condensed-provenance block.  RSA signatures are computed over the
   canonical encoding produced here.

   Encoding goes through [Arena] writers (one growable buffer per
   encode, reusable across messages) instead of per-field [Buffer]
   allocation, decoding through [Arena] cursor readers over zero-copy
   slices, and [size] is computed arithmetically without encoding
   anything — the encoded-length identity is property-tested against a
   reference Buffer codec in [test_net.ml]. *)

type auth =
  | A_none
  | A_principal of string (* benign world: cleartext principal header *)
  | A_signature of { principal : string; signature : string }

(* Data messages carry tuples; retractions withdraw a previously sent
   tuple (incremental deletion); ACKs acknowledge a data or retract
   message's per-channel sequence number for the reliable-delivery
   layer.  An ACK's [msg_seq] is the acknowledged sequence number. *)
type kind =
  | K_data
  | K_retract
  | K_ack

type message = {
  msg_kind : kind;
  msg_src : string;
  msg_dst : string;
  msg_seq : int; (* per-(src,dst) channel sequence number *)
  msg_tuple : Engine.Tuple.t;
  msg_auth : auth;
  msg_provenance : string option; (* serialized condensed provenance *)
  msg_trace : (int * int) option;
      (* causal trace context (trace id, sending span id).  Like the
         sequence number it rides *outside* the signed bytes; unlike
         everything else it is an observability side channel, excluded
         from the modeled [size]/[size_breakdown] so a traced run's
         virtual timeline (and hence its fixpoint) is identical to the
         untraced run's. *)
}

(* --- encoders --------------------------------------------------------- *)

let put_string (a : Arena.t) (s : string) : unit =
  Arena.add_u32 a (String.length s);
  Arena.add_string a s

let rec put_value (a : Arena.t) (v : Engine.Value.t) : unit =
  match v with
  | V_int i ->
    Arena.add_char a '\001';
    Arena.add_u64 a (Int64.of_int i)
  | V_float f ->
    Arena.add_char a '\002';
    Arena.add_u64 a (Int64.bits_of_float f)
  | V_bool b ->
    Arena.add_char a '\003';
    Arena.add_char a (if b then '\001' else '\000')
  | V_str s ->
    Arena.add_char a '\004';
    put_string a s
  | V_list l ->
    Arena.add_char a '\005';
    Arena.add_u32 a (List.length l);
    List.iter (put_value a) l

let write_tuple (a : Arena.t) (t : Engine.Tuple.t) : unit =
  put_string a t.rel;
  Arena.add_u32 a (Array.length t.args);
  Array.iter (put_value a) t.args

let encode_tuple (t : Engine.Tuple.t) : string =
  let a = Arena.create ~capacity:64 () in
  write_tuple a t;
  Arena.contents a

(* Encoded size of a value/tuple without encoding it; keeps the
   bandwidth accounting ([size], [size_breakdown]) allocation-free. *)
let rec value_wire_size (v : Engine.Value.t) : int =
  match v with
  | V_int _ | V_float _ -> 1 + 8
  | V_bool _ -> 2
  | V_str s -> 1 + 4 + String.length s
  | V_list l -> List.fold_left (fun acc v -> acc + value_wire_size v) (1 + 4) l

let tuple_wire_size (t : Engine.Tuple.t) : int =
  Array.fold_left
    (fun acc v -> acc + value_wire_size v)
    (4 + String.length t.rel + 4)
    t.args

(* --- decoding -------------------------------------------------------- *)

exception Decode_error of string

(* Translate an arena bounds overrun into the codec's own error: a
   slice that ends mid-field is a truncated message, whatever the
   field. *)
let decoding (f : unit -> 'a) : 'a =
  try f () with Arena.Bounds_error _ -> raise (Decode_error "truncated message")

let get_string (r : Arena.reader) : string =
  let n = Arena.u32 r in
  Arena.take_string r n

let rec get_value (r : Arena.reader) : Engine.Value.t =
  match Char.chr (Arena.u8 r) with
  | '\001' -> V_int (Int64.to_int (Arena.u64 r))
  | '\002' -> V_float (Int64.float_of_bits (Arena.u64 r))
  | '\003' -> V_bool (Arena.u8 r = 1)
  | '\004' -> V_str (get_string r)
  | '\005' ->
    let n = Arena.u32 r in
    V_list (List.init n (fun _ -> get_value r))
  | c -> raise (Decode_error (Printf.sprintf "bad value tag %C" c))

let read_tuple (r : Arena.reader) : Engine.Tuple.t =
  let rel = get_string r in
  let n = Arena.u32 r in
  (* every value takes at least one byte: check before [Array.init]
     allocates [n] slots from an untrusted count *)
  if n > Arena.remaining r then raise (Decode_error "tuple arity exceeds its bytes");
  Engine.Tuple.of_array rel (Array.init n (fun _ -> get_value r))

let decode_tuple_slice (s : Arena.slice) : Engine.Tuple.t =
  decoding (fun () -> read_tuple (Arena.reader s))

let decode_tuple (s : string) : Engine.Tuple.t =
  decode_tuple_slice (Arena.of_string s)

(* --- message framing ------------------------------------------------- *)

(* Canonical bytes that authentication covers: source, destination and
   the tuple payload (not the sequence number, so identical tuples can
   share signature work if a sender caches them).  [signed_slice]
   writes them into a caller-supplied arena — typically the domain's
   [Arena.scratch] — and returns a view; the string form copies out of
   a fresh arena for callers that retain the bytes. *)
let signed_slice (a : Arena.t) ~(src : string) ~(dst : string)
    (tuple : Engine.Tuple.t) : Arena.slice =
  let start = Arena.length a in
  put_string a src;
  put_string a dst;
  write_tuple a tuple;
  Arena.slice_from a start

(* Retraction authentication is domain-separated from assertion
   authentication: without the prefix, a captured data message's
   signature could be replayed as a retraction of the very tuple it
   asserted (and vice versa). *)
let retract_signed_slice (a : Arena.t) ~(src : string) ~(dst : string)
    (tuple : Engine.Tuple.t) : Arena.slice =
  let start = Arena.length a in
  Arena.add_string a "retract|";
  put_string a src;
  put_string a dst;
  write_tuple a tuple;
  Arena.slice_from a start

let signed_bytes ~(src : string) ~(dst : string) (tuple : Engine.Tuple.t) : string =
  let a = Arena.create ~capacity:64 () in
  Arena.to_string (signed_slice a ~src ~dst tuple)

let retract_signed_bytes ~(src : string) ~(dst : string)
    (tuple : Engine.Tuple.t) : string =
  let a = Arena.create ~capacity:64 () in
  Arena.to_string (retract_signed_slice a ~src ~dst tuple)

let kind_char (k : kind) : char =
  match k with K_data -> 'D' | K_retract -> 'R' | K_ack -> 'A'

let write_message (a : Arena.t) (m : message) : unit =
  Arena.add_char a (kind_char m.msg_kind);
  put_string a m.msg_src;
  put_string a m.msg_dst;
  Arena.add_u32 a m.msg_seq;
  (* length-prefixed tuple: reserve the prefix, write, patch *)
  let at = Arena.reserve_u32 a in
  let before = Arena.length a in
  write_tuple a m.msg_tuple;
  Arena.patch_u32 a at (Arena.length a - before);
  (match m.msg_auth with
  | A_none -> Arena.add_char a '\000'
  | A_principal p ->
    Arena.add_char a '\001';
    put_string a p
  | A_signature { principal; signature } ->
    Arena.add_char a '\003';
    put_string a principal;
    put_string a signature);
  (match m.msg_provenance with
  | None -> Arena.add_char a '\000'
  | Some p ->
    Arena.add_char a '\001';
    put_string a p);
  match m.msg_trace with
  | None -> Arena.add_char a '\000'
  | Some (trace_id, span_id) ->
    Arena.add_char a '\001';
    Arena.add_u32 a trace_id;
    Arena.add_u32 a span_id

let encode_message (m : message) : string =
  let a = Arena.create ~capacity:128 () in
  write_message a m;
  Arena.contents a

let decode_message_slice (s : Arena.slice) : message =
  decoding @@ fun () ->
  let r = Arena.reader s in
  let msg_kind =
    match Char.chr (Arena.u8 r) with
    | 'D' -> K_data
    | 'R' -> K_retract
    | 'A' -> K_ack
    | c -> raise (Decode_error (Printf.sprintf "bad message kind %C" c))
  in
  let msg_src = get_string r in
  let msg_dst = get_string r in
  let msg_seq = Arena.u32 r in
  let tuple_len = Arena.u32 r in
  let msg_tuple = read_tuple (Arena.reader (Arena.take r tuple_len)) in
  let msg_auth =
    (* Auth tag 2 is unassigned: it decodes as an error, and the other
       tags keep their values so every message keeps its bytes. *)
    match Arena.u8 r with
    | 0 -> A_none
    | 1 -> A_principal (get_string r)
    | 3 ->
      let principal = get_string r in
      let signature = get_string r in
      A_signature { principal; signature }
    | t -> raise (Decode_error (Printf.sprintf "bad auth tag %d" t))
  in
  let msg_provenance =
    match Arena.u8 r with
    | 0 -> None
    | 1 -> Some (get_string r)
    | t -> raise (Decode_error (Printf.sprintf "bad provenance tag %d" t))
  in
  let msg_trace =
    match Arena.u8 r with
    | 0 -> None
    | 1 ->
      let trace_id = Arena.u32 r in
      let span_id = Arena.u32 r in
      Some (trace_id, span_id)
    | t -> raise (Decode_error (Printf.sprintf "bad trace tag %d" t))
  in
  if Arena.remaining r <> 0 then raise (Decode_error "trailing bytes after message");
  { msg_kind; msg_src; msg_dst; msg_seq; msg_tuple; msg_auth; msg_provenance;
    msg_trace }

let decode_message (s : string) : message =
  decode_message_slice (Arena.of_string s)

(* Encoded bytes of the trace context beyond its always-present
   presence tag; subtracted from [size] so the modeled bandwidth (and
   the cost model's throughput charge) is independent of whether
   tracing is on. *)
let trace_bytes (m : message) : int =
  match m.msg_trace with None -> 0 | Some _ -> 8

(* Size breakdown for the bandwidth accounting: how many bytes are
   base payload vs authentication vs provenance.  Computed
   arithmetically — no encoding happens. *)
type size_breakdown = {
  sb_header : int;
  sb_payload : int;
  sb_auth : int;
  sb_provenance : int;
}

let size_breakdown (m : message) : size_breakdown =
  (* The trailing +1 is the absent-trace tag; a present trace context's
     id bytes are excluded (see [trace_bytes]). *)
  let header = 1 + 4 + String.length m.msg_src + 4 + String.length m.msg_dst + 4 + 1 in
  let payload = 4 + tuple_wire_size m.msg_tuple in
  let auth =
    match m.msg_auth with
    | A_none -> 1
    | A_principal p -> 1 + 4 + String.length p
    | A_signature { principal; signature } ->
      1 + 4 + String.length principal + 4 + String.length signature
  in
  let prov =
    match m.msg_provenance with None -> 1 | Some p -> 1 + 4 + String.length p
  in
  { sb_header = header; sb_payload = payload; sb_auth = auth; sb_provenance = prov }

let total (sb : size_breakdown) : int =
  sb.sb_header + sb.sb_payload + sb.sb_auth + sb.sb_provenance

let size (m : message) : int = total (size_breakdown m)

(* A minimal acknowledgement for the reliable-delivery layer.  ACKs
   are unauthenticated (they carry no tuple an adversary could smuggle
   into a database) and provenance-free; [seq] names the acknowledged
   data message on the (dst -> src) channel. *)
let ack ~(src : string) ~(dst : string) ~(seq : int) : message =
  { msg_kind = K_ack;
    msg_src = src;
    msg_dst = dst;
    msg_seq = seq;
    msg_tuple = Engine.Tuple.make "ack" [];
    msg_auth = A_none;
    msg_provenance = None;
    msg_trace = None }
