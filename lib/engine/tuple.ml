(* A ground tuple: relation name plus argument values. *)

type t = {
  rel : string;
  args : Value.t array;
}

let make rel args = { rel; args = Array.of_list args }

let arity t = Array.length t.args

let arg t i =
  if i < 0 || i >= Array.length t.args then
    invalid_arg (Printf.sprintf "Tuple.arg: %s has no argument %d" t.rel i);
  t.args.(i)

let compare (a : t) (b : t) : int =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else begin
    let la = Array.length a.args and lb = Array.length b.args in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i >= la then 0
        else begin
          let c = Value.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    end
  end

let equal a b = compare a b = 0

let hash (t : t) : int =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) (Hashtbl.hash t.rel) t.args

let to_string (t : t) : string =
  Printf.sprintf "%s(%s)" t.rel
    (String.concat ", " (Array.to_list (Array.map Value.to_string t.args)))

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Projection of the key columns, used by keyed (replace-semantics)
   relations. *)
let key_of (t : t) (positions : int list) : Value.t list =
  List.map (arg t) positions

(* Like [key_of] but total: [None] when a position is out of range.
   Secondary indexes over a relation of mixed arities skip tuples the
   column subset does not project. *)
let key_opt (t : t) (positions : int list) : Value.t list option =
  let n = Array.length t.args in
  if List.for_all (fun i -> i >= 0 && i < n) positions then
    Some (List.map (fun i -> t.args.(i)) positions)
  else None

(* A canonical string identity, used as BDD variable name for base
   tuples and as Bloom-filter key. *)
let identity (t : t) : string = to_string t

(* Wire size of the tuple payload (relation name + args), matching
   [Net.Wire]. *)
let wire_size (t : t) : int =
  4 + String.length t.rel
  + Array.fold_left (fun acc v -> acc + Value.wire_size v) 4 t.args

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Hashed)

(* Hash-consing: tuples intern into dense ids, with the identity
   string rendered once and cached alongside.  Replaces the former hot
   path where every dedup/index/Bloom key re-ran [to_string].  Global,
   append-only and mutex-guarded for the same reasons as [Value.id];
   the sharded engine's worker domains intern newly derived
   tuples under this lock while the table's existing entries stay
   immutable ("frozen") for lock-free reads of cached records already
   in hand. *)
type interned = {
  it_id : int;
  it_identity : string;
}

let intern_mu = Mutex.create ()
let intern_tbl : interned Table.t = Table.create 4096
let intern_next = ref 0

let interned (t : t) : interned =
  Mutex.lock intern_mu;
  let r =
    match Table.find_opt intern_tbl t with
    | Some r -> r
    | None ->
      let r = { it_id = !intern_next; it_identity = to_string t } in
      incr intern_next;
      Table.add intern_tbl t r;
      r
  in
  Mutex.unlock intern_mu;
  r

let id (t : t) : int = (interned t).it_id
let interned_identity (t : t) : string = (interned t).it_identity

let interned_count () : int =
  Mutex.lock intern_mu;
  let n = !intern_next in
  Mutex.unlock intern_mu;
  n
