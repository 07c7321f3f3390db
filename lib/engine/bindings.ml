(* Variable bindings produced while matching a rule body left to
   right (sideways information passing). *)

module M = Map.Make (String)

type t = Value.t M.t

let empty : t = M.empty

let find (v : string) (b : t) : Value.t option = M.find_opt v b

let find_exn (v : string) (b : t) : Value.t =
  match M.find_opt v b with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Bindings.find_exn: unbound variable %s" v)

let is_bound v b = M.mem v b

(* [bind v x b] extends [b]; when [v] is already bound the binding
   must agree (unification), otherwise the match fails. *)
let bind (v : string) (x : Value.t) (b : t) : t option =
  match M.find_opt v b with
  | None -> Some (M.add v x b)
  | Some y -> if Value.equal x y then Some b else None

let of_list (l : (string * Value.t) list) : t =
  List.fold_left (fun acc (v, x) -> M.add v x acc) M.empty l
