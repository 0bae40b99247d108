(** Minimal JSON value type, renderer and parser.

    Kept inside [tqec_obs] so the observability layer stays free of external
    dependencies: traces render to machine-readable JSON ([--metrics-json]),
    and the parser lets tests and tooling round-trip that output. Only the
    subset of JSON we emit is supported; notably, numbers are either OCaml
    [int]s or finite [float]s (non-finite floats render as [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Render. [pretty] indents with two spaces per level (default false). *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal digits of an int, as {!to_string} renders [Int]. *)

val of_string : string -> (t, string) Stdlib.result
(** Parse a complete JSON document; trailing garbage is an error. Numbers
    without [.], [e] or [E] parse as [Int], everything else as [Float]. *)

val member : string -> t -> t option
(** [member key json] looks a field up in an [Obj]; [None] otherwise. *)

val path : string list -> t -> t option
(** Nested [member] lookup. *)

val equal : t -> t -> bool
(** Structural equality ([Obj] fields compared order-insensitively). *)
