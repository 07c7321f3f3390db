(* Append-only on-disk provenance log (paper Sections 3, 4.2 and 5.2):
   the *offline* half of the provenance taxonomy.  Live soft-state
   provenance in Core.Prov_store evaporates when tuples expire; this
   log is where retirements (and optional live-tuple checkpoints) are
   written through so forensic traceback works after expiry and across
   process restarts.  It is also the only store of Section 5's
   1/K-sampled flows and per-(node, epoch) Bloom digests.

   On-disk layout, inside one directory:

     MANIFEST          text: version, digest-epoch length, and the
                       ordered list of live segment files.  Always
                       replaced via tmp-file + atomic rename.
     seg-%06d.log      size-bounded binary segments of frames.
     *.tmp             in-flight manifest/segment writes; orphans
                       from a crash are deleted at open.

   Each segment starts with the magic "PSNLOG1\n" and then frames:

     u32 payload-length | u8 kind | payload | 4-byte checksum

   where the checksum is the first four bytes of SHA-256 over the
   kind byte plus payload.  Frame kinds: 'R' retired-tuple record,
   'L' live-tuple checkpoint record, 'F' sampled flow, 'B' per-(node,
   epoch) Bloom digest.  Frames are written on a Net.Arena writer and
   read with an Arena reader.  Tuples use Net.Wire's tuple encoding.
   A record carries the tuple, its senders and its derivations, from
   which offline traceback computes the expression; no expression is
   stored.  Frames written before that change still carry an
   expression block, which the reader skips.

   The frames are the only copy of what the log knows.  Opening scans
   every listed segment, checks each frame's checksum, and rebuilds
   the in-memory index (tuple identity, relation, AS domain), the
   flows and the digests from the frames that pass.

   Recovery invariants (DESIGN.md section 12):
     - only the tail segment can be torn: sealed segments and the
       manifest are only ever produced by tmp+rename.  Opening
       truncates the tail to the frames before the first one whose
       length or checksum is bad.
     - compaction writes the merged segment to a tmp file, renames
       it, swaps the manifest, and only then unlinks the merged
       inputs.  A crash before the swap leaves an orphan tmp (deleted
       at open); a crash after it leaves unlisted segment files
       (deleted at open).  Either way the manifest names a consistent
       set of segments.

   The whole public API is mutex-guarded: retire write-through runs
   on the runtime's worker domains. *)

type origin =
  | Local
  | Remote of string

type body_item = {
  b_tuple : Engine.Tuple.t;
  b_origin : origin;
  b_says : string option;
}

type deriv = {
  d_rule : string;
  d_at : float;
  d_signer : string option;
  d_signature : string option;
  d_body : body_item list;
}

let node_repr (head : Engine.Tuple.t) (d : deriv) : string =
  Printf.sprintf "%s<-%s[%s]"
    (Engine.Tuple.identity head)
    d.d_rule
    (String.concat ";"
       (List.map (fun b -> Engine.Tuple.identity b.b_tuple) d.d_body))

type record = {
  r_node : string;
  r_domain : string;
  r_live : bool;
  r_at : float;
  r_tuple : Engine.Tuple.t;
  r_received_from : string list;
  r_derivs : deriv list;
}

type flow = {
  fl_src : string;
  fl_dst : string;
  fl_time : float;
  fl_ident : string;
}

exception Corrupt of string
exception Crash_injected of string

let magic = "PSNLOG1\n"
let manifest_name = "MANIFEST"
let default_segment_bytes = 4 * 1024 * 1024
let default_compact_threshold = 4
let default_epoch_seconds = 60.0
let default_digest_expected = 10_000
let default_digest_fp_rate = 0.01

module Arena = Net.Arena

(* ------------------------------------------------------------------ *)
(* Field codecs                                                        *)

(* Arena writers keep a value's low bits; here a count or length that
   does not fit its field is a caller error, not a different frame. *)
let fits ~(bits : int) (v : int) : int =
  if v < 0 || v lsr bits <> 0 then
    invalid_arg (Printf.sprintf "Prov_log: u%d field overflow" bits);
  v

let add_count16 a (l : 'a list) = Arena.add_u16 a (fits ~bits:16 (List.length l))
let add_f64 a v = Arena.add_u64 a (Int64.bits_of_float v)

let add_str16 a s =
  Arena.add_u16 a (fits ~bits:16 (String.length s));
  Arena.add_string a s

let add_str32 a s =
  Arena.add_u32 a (fits ~bits:32 (String.length s));
  Arena.add_string a s

let add_opt16 a = function
  | None -> Arena.add_char a '\000'
  | Some s ->
    Arena.add_char a '\001';
    add_str16 a s

(* A u32 length prefix, then whatever [write] adds. *)
let add_block32 a (write : Arena.t -> unit) =
  let at = Arena.reserve_u32 a in
  write a;
  Arena.patch_u32 a at (fits ~bits:32 (Arena.length a - at - 4))

let f64 r = Int64.float_of_bits (Arena.u64 r)
let str16 r = Arena.take_string r (Arena.u16 r)
let block32 r = Arena.take r (Arena.u32 r)

let opt16 r =
  match Arena.u8 r with
  | 0 -> None
  | 1 -> Some (str16 r)
  | n -> raise (Corrupt (Printf.sprintf "bad option tag %d" n))

(* The one place a read past the end of a payload becomes [Corrupt]. *)
let decoding (payload : Arena.slice) (read : Arena.reader -> 'a) : 'a =
  try read (Arena.reader payload) with
  | Arena.Bounds_error _ -> raise (Corrupt "truncated frame payload")

(* ------------------------------------------------------------------ *)
(* Payload codecs                                                      *)

(* Record payload:
     u8 live | str16 node | str16 domain | f64 at
     str32 tuple (Net.Wire tuple encoding)
     u8 expr-repr: 2 (no expression block).  Frames written before
       records dropped their expression carry 0 (condensed) or 1
       (raw) and a str32 expression block, which the reader skips.
     u16 n, str16 received-from addresses (order-preserving)
     u16 n derivations, each:
       str16 rule | f64 at | opt signer | opt signature
       u16 n body items, each:
         str32 tuple | u8 origin (0 local / 1 remote + str16 addr) | opt says *)
let write_record a (r : record) : unit =
  Arena.add_char a (if r.r_live then '\001' else '\000');
  add_str16 a r.r_node;
  add_str16 a r.r_domain;
  add_f64 a r.r_at;
  add_block32 a (fun a -> Net.Wire.write_tuple a r.r_tuple);
  Arena.add_char a '\002';
  add_count16 a r.r_received_from;
  List.iter (add_str16 a) r.r_received_from;
  add_count16 a r.r_derivs;
  List.iter
    (fun d ->
      add_str16 a d.d_rule;
      add_f64 a d.d_at;
      add_opt16 a d.d_signer;
      add_opt16 a d.d_signature;
      add_count16 a d.d_body;
      List.iter
        (fun b ->
          add_block32 a (fun a -> Net.Wire.write_tuple a b.b_tuple);
          (match b.b_origin with
          | Local -> Arena.add_char a '\000'
          | Remote addr ->
            Arena.add_char a '\001';
            add_str16 a addr);
          add_opt16 a b.b_says)
        d.d_body)
    r.r_derivs

let tuple_block r : Engine.Tuple.t =
  try Net.Wire.decode_tuple_slice (block32 r) with
  | Net.Wire.Decode_error m -> raise (Corrupt ("bad tuple block: " ^ m))

(* Skip an older frame's expression block, undecoded. *)
let skip_expr_block r : unit =
  match Arena.u8 r with
  | 0 | 1 -> ignore (block32 r)
  | 2 -> ()
  | n -> raise (Corrupt (Printf.sprintf "bad expr repr tag %d" n))

(* The index keys lead the payload, so indexing a frame reads only
   these fields. *)
let read_record_keys ~(live : bool) r : string * string * float * Engine.Tuple.t =
  if Arena.u8 r <> Bool.to_int live then
    raise (Corrupt "record live flag disagrees with frame kind");
  let node = str16 r in
  let domain = str16 r in
  let at = f64 r in
  let tuple = tuple_block r in
  (node, domain, at, tuple)

let read_record ~(live : bool) r : record =
  let node, domain, at, tuple = read_record_keys ~live r in
  skip_expr_block r;
  let received = List.init (Arena.u16 r) (fun _ -> str16 r) in
  let derivs =
    List.init (Arena.u16 r) (fun _ ->
        let rule = str16 r in
        let dat = f64 r in
        let signer = opt16 r in
        let signature = opt16 r in
        let body =
          List.init (Arena.u16 r) (fun _ ->
              let t = tuple_block r in
              let origin =
                match Arena.u8 r with
                | 0 -> Local
                | 1 -> Remote (str16 r)
                | n -> raise (Corrupt (Printf.sprintf "bad origin tag %d" n))
              in
              let says = opt16 r in
              { b_tuple = t; b_origin = origin; b_says = says })
        in
        { d_rule = rule; d_at = dat; d_signer = signer; d_signature = signature; d_body = body })
  in
  { r_node = node; r_domain = domain; r_live = live; r_at = at; r_tuple = tuple;
    r_received_from = received; r_derivs = derivs }

let write_flow a (f : flow) : unit =
  add_str16 a f.fl_src;
  add_str16 a f.fl_dst;
  add_f64 a f.fl_time;
  add_str16 a f.fl_ident

let read_flow r : flow =
  let src = str16 r in
  let dst = str16 r in
  let time = f64 r in
  let ident = str16 r in
  { fl_src = src; fl_dst = dst; fl_time = time; fl_ident = ident }

let write_bloom a ~(node : string) ~(epoch : int) (b : Bloom.t) : unit =
  add_str16 a node;
  Arena.add_u32 a (fits ~bits:32 epoch);
  add_str32 a (Bloom.to_bytes b)

let read_bloom r : string * int * Bloom.t =
  let node = str16 r in
  let epoch = Arena.u32 r in
  let bytes = Arena.to_string (block32 r) in
  let b = try Bloom.of_bytes bytes with Invalid_argument m -> raise (Corrupt m) in
  (node, epoch, b)

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

(* First four bytes of SHA-256 over a frame's kind byte and payload. *)
let checksum (body : Arena.slice) : string =
  String.sub (Arena.with_bytes body Crypto.Sha256.digest_bytes) 0 4

let frame_overhead = 4 + 1 + 4

(* Scan frames of a loaded segment string; [f off kind payload] per
   frame whose length and checksum are good, skipping one whose payload
   then fails to decode ([Corrupt]).  Returns the length of the valid
   prefix: scanning stops (without raising) at the first truncated or
   checksum-corrupt frame — the torn-tail tolerance. *)
let scan_frames (s : string) (f : int -> char -> Arena.slice -> unit) : int =
  if not (String.starts_with ~prefix:magic s) then 0
  else begin
    let r = Arena.reader_of_string s in
    ignore (Arena.take r (String.length magic));
    let rec next () =
      let off = String.length s - Arena.remaining r in
      match
        let plen = Arena.u32 r in
        let body = Arena.take r (1 + plen) in
        (body, Arena.take_string r 4)
      with
      | exception Arena.Bounds_error _ -> off
      | body, sum when String.equal sum (checksum body) ->
        let plen = Arena.slice_length body - 1 in
        (try f off (Arena.get body 0) (Arena.sub body ~pos:1 ~len:plen) with Corrupt _ -> ());
        next ()
      | _ -> off
    in
    next ()
  end

(* ------------------------------------------------------------------ *)
(* Segments, index, handle                                             *)

(* The index keys of one record frame. *)
type entry = {
  en_live : bool;
  en_node : string;
  en_ident : string;
  en_rel : string;
  en_domain : string;
}

let entry_of ~(live : bool) ~(node : string) ~(domain : string) ~(ident : string)
    (tuple : Engine.Tuple.t) : entry =
  { en_live = live; en_node = node; en_ident = ident; en_rel = tuple.Engine.Tuple.rel;
    en_domain = domain }

(* What one checksummed frame holds. *)
type frame =
  | Record of entry
  | Flow of flow
  | Digest of string * int * Bloom.t  (* node, epoch, digest *)
  | Unknown  (* unknown frame kind: forward-compat skip *)

let decode_frame (kind : char) (payload : Arena.slice) : frame =
  decoding payload (fun r ->
      match kind with
      | 'R' | 'L' ->
        let live = kind = 'L' in
        let node, domain, _at, tuple = read_record_keys ~live r in
        Record (entry_of ~live ~node ~domain ~ident:(Engine.Tuple.identity tuple) tuple)
      | 'F' -> Flow (read_flow r)
      | 'B' ->
        let node, epoch, b = read_bloom r in
        Digest (node, epoch, b)
      | _ -> Unknown)

type t = {
  dir : string;
  seg_bytes : int;
  compact_threshold : int;
  epoch_seconds : float;
  digest_expected : int;
  digest_fp_rate : float;
  frame_buf : Arena.t;  (* reused for every appended frame, under [mu] *)
  mu : Mutex.t;
  mutable segs : int list;  (* segment ids, manifest order: oldest first, tail last *)
  mutable tail_oc : out_channel;
  mutable tail_bytes : int;
  mutable next_id : int;
  index : (string, (int * int) list ref) Hashtbl.t;
      (* tuple identity -> (segment id, offset) newest first *)
  by_rel : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  by_domain : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  digests : (string * int, Bloom.t) Hashtbl.t;
  dirty_digests : (string * int, unit) Hashtbl.t;
  mutable flows_rev : flow list;
  readers : (int, in_channel) Hashtbl.t;
  mutable n_records : int;
  c_records : Obs.Metrics.counter;
  c_compacted : Obs.Metrics.counter;
  mutable closed : bool;
}

let seg_file_name id = Printf.sprintf "seg-%06d.log" id
let seg_path t id = Filename.concat t.dir (seg_file_name id)

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let check_open t = if t.closed then invalid_arg "Prov_log: log handle is closed"

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file_atomic ~(dir : string) ~(name : string) (contents : string) : unit =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp (Filename.concat dir name)

let rec mkdir_p d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Append one frame to the tail: u32 payload-length | kind | payload
   (written by [write]) | checksum.  The whole frame is built before
   any byte reaches the file, so a payload that fails to encode leaves
   the segment untouched.  Returns the bytes written. *)
let write_frame t (kind : char) (write : Arena.t -> unit) : int =
  let a = t.frame_buf in
  Arena.reset a;
  let at = Arena.reserve_u32 a in
  Arena.add_char a kind;
  write a;
  let body = Arena.slice_from a (at + 4) in
  Arena.patch_u32 a at (fits ~bits:32 (Arena.slice_length body - 1));
  Arena.add_string a (checksum body);
  Arena.with_bytes (Arena.slice a) (fun b ~pos ~len -> output t.tail_oc b pos len);
  Arena.length a

(* ---- manifest ---- *)

let render_manifest ~(epoch_seconds : float) (seg_ids : int list) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "psn-prov-log 1\n";
  Buffer.add_string buf (Printf.sprintf "epoch %.17g\n" epoch_seconds);
  List.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "seg %s\n" (seg_file_name id)))
    seg_ids;
  Buffer.contents buf

let write_manifest t =
  write_file_atomic ~dir:t.dir ~name:manifest_name
    (render_manifest ~epoch_seconds:t.epoch_seconds t.segs)

let parse_seg_id (file : string) : int option =
  try Scanf.sscanf file "seg-%06d.log%!" (fun id -> Some id) with _ -> None

let parse_manifest (contents : string) : float option * int list =
  let epoch = ref None and segs = ref [] in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ "psn-prov-log"; "1" ] -> ()
         | [ "epoch"; v ] -> (try epoch := Some (float_of_string v) with _ -> ())
         | [ "seg"; file ] -> (
           match parse_seg_id file with
           | Some id -> segs := id :: !segs
           | None -> ())
         | _ -> ());
  (!epoch, List.rev !segs)

(* ---- in-memory index maintenance ---- *)

let secondary_add tbl key ident =
  let set =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace tbl key s;
      s
  in
  Hashtbl.replace set ident ()

(* The one in-memory copy of the records' keys.  Records are added in
   log order, so each identity's locations stay newest first. *)
let index_add t (seg_id : int) (off : int) (e : entry) : unit =
  (match Hashtbl.find_opt t.index e.en_ident with
  | Some locs -> locs := (seg_id, off) :: !locs
  | None -> Hashtbl.replace t.index e.en_ident (ref [ (seg_id, off) ]));
  secondary_add t.by_rel e.en_rel e.en_ident;
  secondary_add t.by_domain e.en_domain e.en_ident;
  t.n_records <- t.n_records + 1

(* Index the record frames of segment [id], whose bytes are
   [contents], and hand every other frame to [other].  Returns the
   length of the valid prefix, as [scan_frames] does. *)
let index_segment t (id : int) (contents : string) ~(other : frame -> unit) : int =
  scan_frames contents (fun off kind payload ->
      match decode_frame kind payload with
      | Record e -> index_add t id off e
      | (Flow _ | Digest _ | Unknown) as fr -> other fr)

(* ------------------------------------------------------------------ *)
(* Open / recovery                                                     *)

let fresh_segment t : int =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 (seg_path t id)
  in
  output_string oc magic;
  Stdlib.flush oc;
  t.tail_oc <- oc;
  t.tail_bytes <- String.length magic;
  id

let open_log ?(segment_bytes = default_segment_bytes)
    ?(compact_threshold = default_compact_threshold)
    ?(epoch_seconds = default_epoch_seconds)
    ?(digest_expected = default_digest_expected)
    ?(digest_fp_rate = default_digest_fp_rate) ~(dir : string) () : t =
  if segment_bytes < 1024 then invalid_arg "Prov_log.open_log: segment_bytes must be >= 1024";
  if compact_threshold < 2 then invalid_arg "Prov_log.open_log: compact_threshold must be >= 2";
  if epoch_seconds <= 0.0 then invalid_arg "Prov_log.open_log: epoch_seconds must be positive";
  mkdir_p dir;
  (* sweep crash orphans: in-flight tmp files never made it to a rename *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  let manifest_path = Filename.concat dir manifest_name in
  let manifest_epoch, listed =
    if Sys.file_exists manifest_path then parse_manifest (read_file manifest_path)
    else (None, [])
  in
  (* an existing log's epoch length wins: digests on disk were bucketed
     with it *)
  let epoch_seconds = Option.value manifest_epoch ~default:epoch_seconds in
  (* segment files the manifest does not list are leftovers from a
     crash after a manifest swap: delete them *)
  let listed_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace listed_set id ()) listed;
  Array.iter
    (fun f ->
      match parse_seg_id f with
      | Some id when not (Hashtbl.mem listed_set id) -> (
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      | _ -> ())
    (Sys.readdir dir);
  let listed =
    List.filter (fun id -> Sys.file_exists (Filename.concat dir (seg_file_name id))) listed
  in
  let t =
    { dir; seg_bytes = segment_bytes; compact_threshold; epoch_seconds; digest_expected;
      digest_fp_rate;
      frame_buf = Arena.create ~capacity:1024 ();
      mu = Mutex.create ();
      segs = [];
      tail_oc = stdout (* replaced before open_log returns *);
      tail_bytes = 0;
      next_id = List.fold_left (fun acc id -> max acc (id + 1)) 1 listed;
      index = Hashtbl.create 1024;
      by_rel = Hashtbl.create 64;
      by_domain = Hashtbl.create 64;
      digests = Hashtbl.create 64;
      dirty_digests = Hashtbl.create 64;
      flows_rev = [];
      readers = Hashtbl.create 8;
      n_records = 0;
      c_records = Obs.Metrics.counter Obs.Metrics.default "forensics.records_written";
      c_compacted = Obs.Metrics.counter Obs.Metrics.default "forensics.segments_compacted";
      closed = false }
  in
  (* The frames are the only copy of the log's index, flows and
     digests: rebuild all three from every listed segment. *)
  let ntotal = List.length listed in
  List.iteri
    (fun i id ->
      let path = seg_path t id in
      let contents = read_file path in
      let valid =
        index_segment t id contents ~other:(function
          | Flow f -> t.flows_rev <- f :: t.flows_rev
          | Digest (node, epoch, b) -> Hashtbl.replace t.digests (node, epoch) b
          | Record _ | Unknown -> ())
      in
      if i = ntotal - 1 then begin
        (* torn tail: drop the invalid suffix before reopening for
           append.  A destroyed header truncates to empty and the
           magic is rewritten below. *)
        let keep = if valid < String.length magic then 0 else valid in
        if keep < String.length contents then Unix.truncate path keep;
        t.tail_bytes <- keep
      end)
    listed;
  t.segs <- listed;
  (match List.rev listed with
  | tail :: _ ->
    let oc =
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 (seg_path t tail)
    in
    t.tail_oc <- oc;
    if t.tail_bytes = 0 then begin
      output_string oc magic;
      Stdlib.flush oc;
      t.tail_bytes <- String.length magic
    end
  | [] -> t.segs <- [ fresh_segment t ]);
  write_manifest t;
  t

(* ------------------------------------------------------------------ *)
(* Sealing and compaction                                              *)

let tail_seg t : int =
  match List.rev t.segs with
  | s :: _ -> s
  | [] -> invalid_arg "Prov_log: no tail segment"

let close_readers t =
  Hashtbl.iter (fun _ ic -> close_in_noerr ic) t.readers;
  Hashtbl.reset t.readers

(* Simulated-crash exit used by the [crash_after] injection hook: the
   handle becomes unusable, as if the process had died at that point;
   tests reopen the directory to exercise recovery. *)
let crash_out t (msg : string) =
  t.closed <- true;
  close_readers t;
  close_out_noerr t.tail_oc;
  raise (Crash_injected msg)

(* Merge every sealed segment into one.  Frames are copied verbatim
   (payload bytes unchanged); dropped are superseded live checkpoints
   — an 'L' with any later frame for the same (node, identity) in the
   merged set — and superseded Bloom digests (frames for a (node,
   epoch) that a later frame replaces).  Returns the number of
   segments merged away. *)
let compact_locked ?crash_after t : int =
  if List.length t.segs < 3 then 0
  else begin
    let tail = tail_seg t in
    let sealed = List.filter (fun id -> id <> tail) t.segs in
    (* gather the merged inputs' frames, newest first, each with its
       bytes and what it holds *)
    let frames = ref [] in
    List.iter
      (fun id ->
        let contents = read_file (seg_path t id) in
        ignore
          (scan_frames contents (fun off kind payload ->
               let len = frame_overhead + Arena.slice_length payload in
               frames := (contents, off, len, decode_frame kind payload) :: !frames)))
      sealed;
    (* decide keeps newest to oldest; fold re-reverses, so [keep] is
       back in append (oldest-first) order *)
    let seen_rec = Hashtbl.create 256 and seen_bloom = Hashtbl.create 64 in
    let keep =
      List.fold_left
        (fun acc ((_, _, _, frame) as fr) ->
          let keep_it =
            match frame with
            | Record e ->
              let key = e.en_node ^ "|" ^ e.en_ident in
              let superseded = e.en_live && Hashtbl.mem seen_rec key in
              Hashtbl.replace seen_rec key ();
              not superseded
            | Digest (node, epoch, _) ->
              let fresh = not (Hashtbl.mem seen_bloom (node, epoch)) in
              Hashtbl.replace seen_bloom (node, epoch) ();
              fresh
            | Flow _ | Unknown -> true
          in
          if keep_it then fr :: acc else acc)
        [] !frames
    in
    (* write the merged segment to a tmp file, then rename *)
    let new_id = t.next_id in
    t.next_id <- t.next_id + 1;
    let tmp = Filename.concat t.dir (seg_file_name new_id ^ ".tmp") in
    let oc = open_out_bin tmp in
    output_string oc magic;
    let pos = ref (String.length magic) in
    let merged = ref [] in  (* kept records at their new offsets, newest first *)
    List.iter
      (fun (contents, off, len, frame) ->
        (match frame with
        | Record e -> merged := (!pos, e) :: !merged
        | Flow _ | Digest _ | Unknown -> ());
        output_substring oc contents off len;
        pos := !pos + len)
      keep;
    close_out oc;
    if crash_after = Some `Tmp_written then
      crash_out t "crashed after compaction tmp written, before manifest swap";
    Sys.rename tmp (seg_path t new_id);
    t.segs <- [ new_id; tail ];
    write_manifest t;
    if crash_after = Some `Manifest_swapped then
      crash_out t "crashed after manifest swap, before merged inputs unlinked";
    List.iter (fun id -> try Sys.remove (seg_path t id) with Sys_error _ -> ()) sealed;
    close_readers t;
    (* re-index in log order: the kept records, then the tail's *)
    Hashtbl.reset t.index;
    Hashtbl.reset t.by_rel;
    Hashtbl.reset t.by_domain;
    t.n_records <- 0;
    List.iter (fun (off, e) -> index_add t new_id off e) (List.rev !merged);
    Stdlib.flush t.tail_oc;
    ignore (index_segment t tail (read_file (seg_path t tail)) ~other:ignore);
    let n = List.length sealed in
    Obs.Metrics.inc ~by:n t.c_compacted;
    n
  end

(* Seal the tail and start a new segment; then compact inline once
   enough sealed segments pile up.  "Background" compaction is
   amortized over segment boundaries — it never runs on an append that
   doesn't also roll the segment. *)
let maybe_roll t : unit =
  if t.tail_bytes >= t.seg_bytes then begin
    Stdlib.flush t.tail_oc;
    close_out t.tail_oc;
    let id = fresh_segment t in
    t.segs <- t.segs @ [ id ];
    write_manifest t;
    if List.length t.segs - 1 > t.compact_threshold then ignore (compact_locked t)
  end

(* ------------------------------------------------------------------ *)
(* Appends                                                             *)

let append_locked t (r : record) : unit =
  let off = t.tail_bytes in
  t.tail_bytes <-
    t.tail_bytes + write_frame t (if r.r_live then 'L' else 'R') (fun a -> write_record a r);
  index_add t (tail_seg t) off
    (entry_of ~live:r.r_live ~node:r.r_node ~domain:r.r_domain
       ~ident:(Engine.Tuple.identity r.r_tuple) r.r_tuple);
  Obs.Metrics.inc t.c_records;
  maybe_roll t

let append t (r : record) : unit =
  with_lock t (fun () ->
      check_open t;
      append_locked t r)

let append_flow t ~(src : string) ~(dst : string) ~(time : float) ~(ident : string) : unit =
  with_lock t (fun () ->
      check_open t;
      let f = { fl_src = src; fl_dst = dst; fl_time = time; fl_ident = ident } in
      t.tail_bytes <- t.tail_bytes + write_frame t 'F' (fun a -> write_flow a f);
      t.flows_rev <- f :: t.flows_rev;
      maybe_roll t)

let epoch_of t (time : float) : int = int_of_float (time /. t.epoch_seconds)

let record_digest t ~(node : string) ~(time : float) (key : string) : unit =
  with_lock t (fun () ->
      check_open t;
      let epoch = epoch_of t time in
      let b =
        match Hashtbl.find_opt t.digests (node, epoch) with
        | Some b -> b
        | None ->
          let b = Bloom.create_for ~expected:t.digest_expected ~fp_rate:t.digest_fp_rate in
          Hashtbl.replace t.digests (node, epoch) b;
          b
      in
      Bloom.add b key;
      Hashtbl.replace t.dirty_digests (node, epoch) ())

(* Persist dirty per-(node, epoch) digests; at load a later frame for
   the same key replaces the earlier one, so rewriting a still-hot
   epoch is safe. *)
let flush_locked t : unit =
  let dirty = Hashtbl.fold (fun k () acc -> k :: acc) t.dirty_digests [] in
  Hashtbl.reset t.dirty_digests;
  List.iter
    (fun ((node, epoch) as k) ->
      match Hashtbl.find_opt t.digests k with
      | Some b ->
        t.tail_bytes <- t.tail_bytes + write_frame t 'B' (fun a -> write_bloom a ~node ~epoch b)
      | None -> ())
    (List.sort compare dirty);
  Stdlib.flush t.tail_oc;
  maybe_roll t

let flush t : unit =
  with_lock t (fun () ->
      check_open t;
      flush_locked t)

let compact ?crash_after t : int =
  with_lock t (fun () ->
      check_open t;
      flush_locked t;
      compact_locked ?crash_after t)

let close t : unit =
  with_lock t (fun () ->
      if not t.closed then begin
        flush_locked t;
        t.closed <- true;
        close_readers t;
        close_out_noerr t.tail_oc
      end)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let reader_for t (seg_id : int) : in_channel =
  match Hashtbl.find_opt t.readers seg_id with
  | Some ic -> ic
  | None ->
    let ic = open_in_bin (seg_path t seg_id) in
    Hashtbl.replace t.readers seg_id ic;
    ic

let read_record_at t (seg_id : int) (off : int) : record =
  let ic = reader_for t seg_id in
  seek_in ic off;
  let header =
    try really_input_string ic 5 with
    | End_of_file -> raise (Corrupt "record offset past end of segment")
  in
  let h = Arena.reader_of_string header in
  let plen = Arena.u32 h in
  let kind = Char.chr (Arena.u8 h) in
  let payload =
    try really_input_string ic plen with End_of_file -> raise (Corrupt "truncated record frame")
  in
  match kind with
  | 'R' | 'L' -> decoding (Arena.of_string payload) (read_record ~live:(kind = 'L'))
  | k -> raise (Corrupt (Printf.sprintf "frame at indexed offset has kind %C" k))

let lookup t ~(ident : string) : record list =
  with_lock t (fun () ->
      check_open t;
      Stdlib.flush t.tail_oc;
      match Hashtbl.find_opt t.index ident with
      | None -> []
      | Some locs ->
        (* locs are newest first; rev_map returns oldest first *)
        List.rev_map (fun (seg_id, off) -> read_record_at t seg_id off) !locs)

let sorted_keys (set : (string, unit) Hashtbl.t) : string list =
  Hashtbl.fold (fun k () acc -> k :: acc) set [] |> List.sort String.compare

let idents_of_relation t (rel : string) : string list =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.by_rel rel with
      | None -> []
      | Some set -> sorted_keys set)

let idents_of_domain t (domain : string) : string list =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.by_domain domain with
      | None -> []
      | Some set -> sorted_keys set)

let relations t : string list =
  with_lock t (fun () ->
      check_open t;
      Hashtbl.fold (fun k _ acc -> k :: acc) t.by_rel [] |> List.sort String.compare)

let flows t : flow list =
  with_lock t (fun () ->
      check_open t;
      List.rev t.flows_rev)

let digest_mem t ~(node : string) ~(time : float) (key : string) : bool =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.digests (node, epoch_of t time) with
      | Some b -> Bloom.mem b key
      | None -> false)

let digest_nodes t ~(time : float) (key : string) : string list =
  with_lock t (fun () ->
      check_open t;
      let epoch = epoch_of t time in
      Hashtbl.fold
        (fun (node, e) b acc -> if e = epoch && Bloom.mem b key then node :: acc else acc)
        t.digests []
      |> List.sort_uniq String.compare)

let digest_count t : int = with_lock t (fun () -> Hashtbl.length t.digests)
let record_count t : int = with_lock t (fun () -> t.n_records)
let segment_count t : int = with_lock t (fun () -> List.length t.segs)
let flow_count t : int = with_lock t (fun () -> List.length t.flows_rev)
let directory t : string = t.dir

let bytes_on_disk t : int =
  with_lock t (fun () ->
      check_open t;
      Stdlib.flush t.tail_oc;
      List.fold_left
        (fun acc id ->
          let sz p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0 in
          acc + sz (seg_path t id))
        0 t.segs)

(* ------------------------------------------------------------------ *)
(* 1/K sampling (paper Section 5.2)                                    *)

(* Deterministic, interleaving-independent sample decision: hash the
   flow key, keep 1-in-k.  Stateless, so the batched/sharded runtimes
   make identical decisions regardless of delivery order, and an
   offline query can recompute which flows were eligible. *)
let sampled ~(k : int) (key : string) : bool =
  if k <= 1 then true
  else begin
    let d = Crypto.Sha256.digest ("flow|" ^ key) in
    let v = (Char.code d.[0] lsl 16) lor (Char.code d.[1] lsl 8) lor Char.code d.[2] in
    v mod k = 0
  end
