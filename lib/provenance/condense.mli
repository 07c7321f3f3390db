(** Condensed provenance (Section 4.4): provenance expressions encoded
    as BDDs over base-tuple / principal keys.

    Expressions are built from [+] and [*] only, so the encoded
    function is monotone and BDD reduction performs the paper's
    absorption (<a+a*b> -> <a>) for free.  The wire form ({!to_wire})
    is what the runtime ships in the SeNDlogProv configuration and
    what the offline provenance log persists in its record frames. *)

type ctx
(** A BDD manager plus a bounded memo of wire encodings.  Cache
    hits/misses/evictions are recorded as [prov.condense_*] counters
    in the default metrics registry. *)

val create_ctx : ?wire_cache_limit:int -> unit -> ctx
(** @raise Invalid_argument when [wire_cache_limit < 1]. *)

val condense : ctx -> Prov_expr.t -> Prov_expr.t * Bdd.t
(** The condensation pipeline: expression -> BDD -> minimal
    expression, returning both forms. *)

val annotation : ctx -> Prov_expr.t -> string
(** Annotation string of the condensed form, e.g. ["<a>"], matching
    the <...> fields of Figure 2. *)

val accepts : ctx -> Bdd.t -> trusted:(string -> bool) -> bool
(** Trust decision evaluated directly on the BDD, without decoding
    (Section 4.4: "evaluated locally for trust management"). *)

(** {1 Size accounting} *)

val compression_ratio : ctx -> Prov_expr.t -> float
(** raw/condensed — the quantity behind Figure 4's bandwidth claim. *)

val domain_summary : Prov_expr.t -> domain:string -> Prov_expr.t
(** AS-level granularity (Section 5.3): collapse an intra-domain
    derivation to a single base key naming the origin domain; zero
    stays zero. *)

(** {1 Wire codec} *)

exception Wire_error of string

val to_wire : ctx -> Prov_expr.t -> string
(** Serialized BDD plus its variable-name table (BDD variable
    numbering is manager-local, so the name table travels with it).
    Memoized per [ctx].
    @raise Wire_error when a count exceeds its 16-bit wire field. *)

val of_wire : ctx -> string -> Prov_expr.t
(** Manager-independent decode: rebuilds the BDD in a scratch manager
    and maps cubes back through the shipped name table.  The result is
    the absorption-minimal sum of products.
    @raise Wire_error on malformed input. *)

val of_wire_slice : ctx -> Net.Arena.slice -> Prov_expr.t
(** {!of_wire} straight out of a receive-buffer slice: no intermediate
    copies beyond the name strings the result retains (the BDD tail
    deserializes in place).  Same errors as {!of_wire}. *)
