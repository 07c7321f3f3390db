(* Condensed provenance (Section 4.4): provenance expressions encoded
   as BDDs over base-tuple / principal keys.

   Because provenance expressions are built from + and * only, the
   encoded function is monotone, and BDD reduction performs the
   absorption the paper illustrates (<a+a*b> -> <a>) for free.  The
   BDD is also what the runtime ships on the wire in the SeNDlogProv
   configuration, so its serialized size drives the bandwidth
   accounting of Figure 4. *)

type ctx = {
  manager : Bdd.manager;
  wire_cache : (Prov_expr.t, string) Hashtbl.t;
      (* memo of [to_wire]: identical expressions recur every time a
         tuple is re-shipped, so the encode-serialize pipeline is a
         cache lookup on the steady state *)
  wire_limit : int;
      (* bound on memoized encodings; a long-lived runtime re-ships an
         unbounded stream of distinct expressions, so beyond the bound
         the cache restarts cold and the discarded entries are counted
         as evictions *)
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
}

let default_wire_cache_limit = 16_384

let create_ctx ?(wire_cache_limit = default_wire_cache_limit) () =
  if wire_cache_limit < 1 then
    invalid_arg "Condense.create_ctx: wire_cache_limit must be >= 1";
  let reg = Obs.Metrics.default in
  { manager = Bdd.create_manager ();
    wire_cache = Hashtbl.create 256;
    wire_limit = wire_cache_limit;
    c_hits = Obs.Metrics.counter reg "prov.condense_hits";
    c_misses = Obs.Metrics.counter reg "prov.condense_misses";
    c_evictions = Obs.Metrics.counter reg "prov.condense_evictions" }

(* Encode an expression; Zero/One map to the BDD constants, base keys
   to named variables. *)
let encode (ctx : ctx) (e : Prov_expr.t) : Bdd.t =
  let m = ctx.manager in
  let rec go = function
    | Prov_expr.Zero -> Bdd.bot
    | Prov_expr.One -> Bdd.top
    | Prov_expr.Base k -> Bdd.named_var m k
    | Prov_expr.Plus (a, b) -> Bdd.bor m (go a) (go b)
    | Prov_expr.Times (a, b) -> Bdd.band m (go a) (go b)
  in
  go e

(* Decode the condensed form back to a minimal sum-of-products
   expression (monotone functions only, which ours always are). *)
let decode (ctx : ctx) (b : Bdd.t) : Prov_expr.t =
  if Bdd.is_false b then Prov_expr.zero
  else if Bdd.is_true b then Prov_expr.one
  else begin
    let cubes = Bdd.positive_cubes b in
    Prov_expr.plus_list
      (List.map
         (fun cube ->
           Prov_expr.times_list
             (List.map (fun v -> Prov_expr.base (Bdd.name_of_var ctx.manager v)) cube))
         cubes)
  end

(* The paper's condensation pipeline: expression -> BDD -> minimal
   expression.  [condense ctx e] returns the condensed expression and
   its BDD. *)
let condense (ctx : ctx) (e : Prov_expr.t) : Prov_expr.t * Bdd.t =
  let b = encode ctx e in
  (decode ctx b, b)

(* Annotation string of the condensed form, e.g. "<a>"; matches the
   <...> fields of Figure 2. *)
let annotation (ctx : ctx) (e : Prov_expr.t) : string =
  Bdd.to_annotation ctx.manager (encode ctx e)

(* Trust decision on condensed provenance: is the tuple derivable when
   exactly the principals in [trusted] are trusted?  Evaluates the BDD
   directly, without decoding (Section 4.4: "evaluated locally for
   trust management"). *)
let accepts (ctx : ctx) (b : Bdd.t) ~(trusted : string -> bool) : bool =
  Bdd.eval b (fun v -> trusted (Bdd.name_of_var ctx.manager v))

(* Serialized sizes: what a tuple must carry on the wire for each
   representation.  The condensed BDD is usually much smaller than the
   raw expression once derivations multiply. *)
let condensed_wire_size (b : Bdd.t) : int = Bdd.serialized_size b

let raw_wire_size (e : Prov_expr.t) : int = Prov_expr.wire_size e

(* Compression ratio raw/condensed, the quantity behind the paper's
   claim that "BDD-encoded condensed provenance is efficient for
   recording derivation of tuples". *)
let compression_ratio (ctx : ctx) (e : Prov_expr.t) : float =
  let b = encode ctx e in
  float_of_int (raw_wire_size e) /. float_of_int (condensed_wire_size b)

(* AS-level provenance granularity (Section 5.3): at a domain
   boundary, a tuple's full intra-domain derivation collapses to a
   single base key naming the origin domain.  The receiving domain
   then sees <as3> where node-level granularity would ship
   <a*b+a*c*d>, so the condensed BDD's support — and with it the wire
   encoding — is bounded by the number of ASes rather than the number
   of nodes along the derivation.  Zero stays zero: an underivable
   tuple must not acquire support by crossing a boundary. *)
let domain_summary (e : Prov_expr.t) ~(domain : string) : Prov_expr.t =
  if Prov_expr.equal e Prov_expr.zero then Prov_expr.zero
  else Prov_expr.base domain

exception Wire_error of string

(* Wire form of condensed provenance: the serialized BDD plus its
   variable-name table, as the paper's modified P2 ships ("encoded in
   Binary Decision Diagrams").  The name table is required because BDD
   variable numbering is manager-local; without it a receiver could
   not map the function back to principals.

   Layout (all integers big-endian, 16-bit):
     u16 support-count, then per support variable
     u16 variable id | u16 name length | name bytes,
   followed by the serialized BDD.  Counts that do not fit 16 bits
   raise [Wire_error] instead of silently truncating — a masked count
   would serialize a block that [of_wire] misparses as tuple data. *)
let rec to_wire (ctx : ctx) (e : Prov_expr.t) : string =
  match Hashtbl.find_opt ctx.wire_cache e with
  | Some cached ->
    Obs.Metrics.inc ctx.c_hits;
    cached
  | None ->
    Obs.Metrics.inc ctx.c_misses;
    let encoded = to_wire_uncached ctx e in
    if Hashtbl.length ctx.wire_cache >= ctx.wire_limit then begin
      Obs.Metrics.inc ~by:(Hashtbl.length ctx.wire_cache) ctx.c_evictions;
      Hashtbl.reset ctx.wire_cache
    end;
    Hashtbl.replace ctx.wire_cache e encoded;
    encoded

and to_wire_uncached (ctx : ctx) (e : Prov_expr.t) : string =
  let b = encode ctx e in
  let support = Bdd.support b in
  let a = Net.Arena.create ~capacity:64 () in
  let u16 what v =
    if v < 0 || v > 0xFFFF then
      raise (Wire_error (Printf.sprintf "%s %d exceeds the 16-bit wire field" what v));
    Net.Arena.add_u16 a v
  in
  u16 "support count" (List.length support);
  List.iter
    (fun v ->
      let name = Bdd.name_of_var ctx.manager v in
      u16 "variable id" v;
      u16 "name length" (String.length name);
      Net.Arena.add_string a name)
    support;
  Net.Arena.add_string a (Bdd.serialize b);
  Net.Arena.contents a

(* [of_wire] is manager-independent: the BDD is rebuilt in a scratch
   manager (preserving the sender's variable order), decoded to its
   minimal cubes, and mapped back to principal names via the shipped
   table.  It never reads [ctx], so concurrent decodes need no lock.  The slice form reads in place: the only copies are the
   name strings the result retains; the BDD tail deserializes straight
   out of the viewed buffer. *)
let of_wire_slice (_ctx : ctx) (s : Net.Arena.slice) : Prov_expr.t =
  let r = Net.Arena.reader s in
  let u16 () =
    if Net.Arena.remaining r < 2 then raise (Wire_error "truncated provenance block");
    Net.Arena.u16 r
  in
  let n = u16 () in
  let table = Hashtbl.create 8 in
  for _ = 1 to n do
    let v = u16 () in
    let len = u16 () in
    if Net.Arena.remaining r < len then raise (Wire_error "truncated name table");
    let name = Net.Arena.take_string r len in
    Hashtbl.replace table v name
  done;
  let scratch = Bdd.create_manager () in
  let tail = Net.Arena.take r (Net.Arena.remaining r) in
  let b =
    Net.Arena.with_bytes tail (fun bytes ~pos ~len ->
        (* Read-only view of the backing bytes; [deserialize_sub] does
           not retain it.  A malformed tail surfaces as the codec's own
           error, like every other truncation in this block. *)
        try Bdd.deserialize_sub scratch (Bytes.unsafe_to_string bytes) ~pos ~len
        with Bdd.Deserialize_error why ->
          raise (Wire_error (Printf.sprintf "bad BDD block: %s" why)))
  in
  if Bdd.is_false b then Prov_expr.zero
  else if Bdd.is_true b then Prov_expr.one
  else
    Prov_expr.plus_list
      (List.map
         (fun cube ->
           Prov_expr.times_list
             (List.map
                (fun v ->
                  match Hashtbl.find_opt table v with
                  | Some name -> Prov_expr.base name
                  | None -> raise (Wire_error (Printf.sprintf "variable %d not in table" v)))
                cube))
         (Bdd.positive_cubes b))

let of_wire (ctx : ctx) (s : string) : Prov_expr.t =
  of_wire_slice ctx (Net.Arena.of_string s)
