(** DIMACS CNF reading and writing. *)

exception Parse_error of string

val to_string : Formula.t -> string
val write_file : string -> Formula.t -> unit

(** Header counts must be non-negative, the variable count at most 8
    per input byte, and every literal's variable within it.
    @raise Parse_error on malformed input. *)
val of_string : string -> Formula.t

val read_file : string -> Formula.t
