(** JSON (de)serialization helpers for artifact codecs.

    Encoders build {!Tqec_obs.Json.t} values whose rendered bytes are
    {e canonical}: object fields are emitted in a fixed order and floats use
    the shortest round-tripping representation, so
    [Json.to_string (encode a)] is a stable content-hash input for equal
    artifacts. Decoders raise {!Decode} with a descriptive message on any
    shape mismatch — the cache driver treats that as a corrupted entry and
    falls back to recomputing the stage. *)

exception Decode of string

val err : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Decode} with a formatted message. *)

val to_result : (Tqec_obs.Json.t -> 'a) -> Tqec_obs.Json.t -> ('a, string) result
(** Run a decoder, catching {!Decode} (and [Invalid_argument] / [Failure]
    raised by constructor validation on corrupt payloads). *)

(* ------------------------- decoders ------------------------------- *)

val int : Tqec_obs.Json.t -> int
val bool : Tqec_obs.Json.t -> bool
val float_ : Tqec_obs.Json.t -> float
(** Accepts [Int] too. *)

val string_ : Tqec_obs.Json.t -> string
val list : (Tqec_obs.Json.t -> 'a) -> Tqec_obs.Json.t -> 'a list
val array : (Tqec_obs.Json.t -> 'a) -> Tqec_obs.Json.t -> 'a array
val opt : (Tqec_obs.Json.t -> 'a) -> Tqec_obs.Json.t -> 'a option
(** [Null] decodes to [None]. *)

val field : string -> Tqec_obs.Json.t -> Tqec_obs.Json.t
(** Object member lookup; missing field or non-object raises {!Decode}. *)

val int_list : Tqec_obs.Json.t -> int list
val int_array : Tqec_obs.Json.t -> int array
val point3 : Tqec_obs.Json.t -> Tqec_geom.Point3.t
val point3_array : Tqec_obs.Json.t -> Tqec_geom.Point3.t array
(** Decodes the packed-coordinate string of {!of_point3_array}. *)

val triple : Tqec_obs.Json.t -> int * int * int
val cuboid : Tqec_obs.Json.t -> Tqec_geom.Cuboid.t
val path : Tqec_obs.Json.t -> Tqec_geom.Point3.t list
(** Decodes the packed-coordinate string of {!of_path}: ["x0,y0,z0,x1,..."],
    each coordinate an optional ['-'] and 1 to 9 digits, [""] for no points.
    Any other string -- an empty field, a ['+'] or other stray byte, a
    trailing comma, a field count that is not a multiple of 3 -- raises
    {!Decode}. *)

val bool_array : Tqec_obs.Json.t -> bool array
(** Decodes the ['0']/['1'] string encoding of {!of_bool_array}. *)

(* ------------------------- encoders ------------------------------- *)

val of_int_list : int list -> Tqec_obs.Json.t
val of_int_array : int array -> Tqec_obs.Json.t
val of_point3 : Tqec_geom.Point3.t -> Tqec_obs.Json.t
val of_point3_array : Tqec_geom.Point3.t array -> Tqec_obs.Json.t
(** Packed coordinates, as {!of_path}. *)

val of_triple : int * int * int -> Tqec_obs.Json.t
val of_cuboid : Tqec_geom.Cuboid.t -> Tqec_obs.Json.t
val of_path : Tqec_geom.Point3.t list -> Tqec_obs.Json.t
(** Packed coordinates: one JSON string of comma-separated decimal
    coordinates, three per point. A routed path is most of a routing
    artifact, and as one string it parses without a boxed [Int] and a cons
    cell per coordinate. The single point of {!of_point3} stays a JSON
    triple. *)

val of_bool_array : bool array -> Tqec_obs.Json.t
(** A string of ['0']/['1'] characters, one per element. *)
