(* Security principals (Binder contexts).

   In SeNDlog every node is a principal; a principal owns an RSA
   keypair and a security level (Section 2.2: "supporting multiple
   says operators with different security levels").  The [directory]
   plays the role of a PKI: a mapping from principal names to public
   keys that every node is assumed to know. *)

type t = {
  name : string;
  keypair : Crypto.Rsa.keypair;
  level : int;
  sig_cache : (string, string) Hashtbl.t;
      (* payload digest -> RSA signature: the sender-side cache
         [Auth.make_auth] consults (signatures are deterministic, so a
         hit returns bytes identical to a cold signing) *)
}

(* Deterministic keys derived from the given generator; key size is a
   configuration knob because it dominates the SeNDlog overhead. *)
let create (rng : Crypto.Rng.t) ~(name : string) ?(level = 1) ~(rsa_bits : int) () : t =
  let keypair = Crypto.Rsa.generate rng ~bits:rsa_bits in
  { name; keypair; level; sig_cache = Hashtbl.create 64 }

let public_key (p : t) : Crypto.Rsa.public_key = p.keypair.public

(* --- directory ------------------------------------------------------- *)

type directory = {
  principals : (string, t) Hashtbl.t;
}

let empty_directory () = { principals = Hashtbl.create 16 }

let register (d : directory) (p : t) : unit = Hashtbl.replace d.principals p.name p

let find (d : directory) (name : string) : t option = Hashtbl.find_opt d.principals name

let find_exn (d : directory) (name : string) : t =
  match find d name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Principal.find_exn: unknown principal %s" name)

let level_of (d : directory) (name : string) : int =
  match find d name with Some p -> p.level | None -> 0

let names (d : directory) : string list =
  Hashtbl.fold (fun k _ acc -> k :: acc) d.principals [] |> List.sort String.compare

(* Create and register principals for any of [node_names] not already
   present; existing principals (and their keypairs) are reused, so a
   shared directory amortizes RSA key generation across runs. *)
let ensure_registered (d : directory) (rng : Crypto.Rng.t) ~(rsa_bits : int)
    ?(level_of_name = fun _ -> 1) (node_names : string list) : unit =
  List.iter
    (fun name ->
      if find d name = None then
        register d (create rng ~name ~level:(level_of_name name) ~rsa_bits ()))
    node_names

(* Create and register one principal per node name. *)
let directory_for (rng : Crypto.Rng.t) ~(rsa_bits : int) ?(level_of_name = fun _ -> 1)
    (node_names : string list) : directory =
  let d = empty_directory () in
  ensure_registered d rng ~rsa_bits ~level_of_name node_names;
  d

(* Drop all cached signatures (a fresh run should pay its own signing
   cost even when the keypairs are reused). *)
let clear_sign_caches (d : directory) : unit =
  Hashtbl.iter (fun _ p -> Hashtbl.reset p.sig_cache) d.principals
