(* Runtime values flowing through the dataflow.

   Node addresses are strings (like P2's IP:port identifiers); paths
   computed by Best-Path are lists of addresses built by [f_concat]. *)

type t =
  | V_int of int
  | V_float of float
  | V_bool of bool
  | V_str of string
  | V_list of t list

let rec compare (a : t) (b : t) : int =
  match (a, b) with
  | V_int x, V_int y -> Stdlib.compare x y
  | V_float x, V_float y -> Stdlib.compare x y
  | V_int x, V_float y -> Stdlib.compare (float_of_int x) y
  | V_float x, V_int y -> Stdlib.compare x (float_of_int y)
  | V_bool x, V_bool y -> Stdlib.compare x y
  | V_str x, V_str y -> String.compare x y
  | V_list x, V_list y -> compare_lists x y
  | V_int _, _ -> -1
  | _, V_int _ -> 1
  | V_float _, _ -> -1
  | _, V_float _ -> 1
  | V_bool _, _ -> -1
  | _, V_bool _ -> 1
  | V_str _, _ -> -1
  | _, V_str _ -> 1

and compare_lists x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | a :: x', b :: y' ->
    let c = compare a b in
    if c <> 0 then c else compare_lists x' y'

let equal a b = compare a b = 0

let rec to_string = function
  | V_int i -> string_of_int i
  | V_float f -> Printf.sprintf "%g" f
  | V_bool b -> string_of_bool b
  | V_str s -> s
  | V_list l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"

let pp fmt v = Format.pp_print_string fmt (to_string v)

let of_const : Ndlog.Ast.const -> t = function
  | C_int i -> V_int i
  | C_float f -> V_float f
  | C_str s -> V_str s
  | C_bool b -> V_bool b

(* Address helpers: SeNDlog principals and NDlog locations are both
   string-valued. *)
let addr (s : string) : t = V_str s

let to_addr = function
  | V_str s -> s
  | v -> invalid_arg (Printf.sprintf "Value.to_addr: %s is not an address" (to_string v))

(* Serialized size in bytes, matching [Net.Wire]'s encoding: 1 tag byte
   plus the payload.  Used for bandwidth accounting. *)
let rec wire_size = function
  | V_int _ -> 1 + 8
  | V_float _ -> 1 + 8
  | V_bool _ -> 1 + 1
  | V_str s -> 1 + 4 + String.length s
  | V_list l -> 1 + 4 + List.fold_left (fun acc v -> acc + wire_size v) 0 l

(* [compare] makes numeric values equal across representations
   (V_int 2 = V_float 2.), so the hash must coincide on them too:
   integers hash through their float image.  Distinct large integers
   beyond the float mantissa may collide, which is harmless.  A tuple
   folds its arguments' hashes once, when it is built, and stores the
   result (see [Tuple.of_array]); database column keys hash their
   values through this function on each insert and probe. *)
let rec hash = function
  | V_int i -> Hashtbl.hash (1, float_of_int i)
  | V_float f -> Hashtbl.hash (1, f)
  | V_bool b -> Hashtbl.hash (2, b)
  | V_str s -> Hashtbl.hash (3, s)
  | V_list l -> List.fold_left (fun acc v -> (acc * 31) + hash v) 17 l
