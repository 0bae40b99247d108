module Json = Tqec_obs.Json
module Point3 = Tqec_geom.Point3
module Cuboid = Tqec_geom.Cuboid

exception Decode of string

let err fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

let show j =
  let s = Json.to_string j in
  if String.length s > 72 then String.sub s 0 72 ^ "..." else s

let to_result decode json =
  match decode json with
  | v -> Ok v
  | exception Decode msg -> Error msg
  | exception Invalid_argument msg -> Error ("invalid artifact value: " ^ msg)
  | exception Failure msg -> Error ("invalid artifact value: " ^ msg)

(* ------------------------- decoders ------------------------------- *)

let int = function Json.Int i -> i | j -> err "expected int, got %s" (show j)

let bool = function Json.Bool b -> b | j -> err "expected bool, got %s" (show j)

let float_ = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | j -> err "expected number, got %s" (show j)

let string_ = function
  | Json.String s -> s
  | j -> err "expected string, got %s" (show j)

let list f = function
  | Json.List l -> List.map f l
  | j -> err "expected list, got %s" (show j)

let array f = function
  | Json.List l -> Array.of_list (List.map f l)
  | j -> err "expected list, got %s" (show j)

let opt f = function Json.Null -> None | j -> Some (f j)

let field name = function
  | Json.Obj kvs as j -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> err "missing field %S in %s" name (show j))
  | j -> err "expected object with field %S, got %s" name (show j)

let int_list = list int

let int_array = array int

let point3 = function
  | Json.List [ Json.Int x; Json.Int y; Json.Int z ] -> Point3.make x y z
  | j -> err "expected [x; y; z] point, got %s" (show j)

let triple = function
  | Json.List [ Json.Int a; Json.Int b; Json.Int c ] -> (a, b, c)
  | j -> err "expected [a; b; c] triple, got %s" (show j)

let cuboid = function
  | Json.List
      [ Json.Int lx; Json.Int ly; Json.Int lz; Json.Int hx; Json.Int hy;
        Json.Int hz ] ->
      Cuboid.make (Point3.make lx ly lz) (Point3.make hx hy hz)
  | j -> err "expected 6-int cuboid, got %s" (show j)

(* Packed coordinates: the decimal coordinates of points, three a point,
   comma-separated in one string ("1,-2,3,4,5,6"; "" for no points). A
   field is an optional '-' and 1 to 9 digits, so it always fits an [int];
   anything else -- an empty field, a '+', a stray byte, a trailing comma, a
   count that is not a multiple of 3 -- raises [Decode]. The decoders
   allocate only the points and their container, never a [Json.Int]. *)
type cursor = { s : string; n : int; mutable pos : int }

let bad_coords c what =
  err "%s at byte %d of packed coordinates %s" what c.pos (show (Json.String c.s))

let coord c =
  if c.pos >= c.n then bad_coords c "coordinate count not a multiple of 3";
  let neg = String.unsafe_get c.s c.pos = '-' in
  let first = if neg then c.pos + 1 else c.pos in
  let i = ref first and v = ref 0 in
  while
    !i < c.n && !i - first <= 9
    && match String.unsafe_get c.s !i with '0' .. '9' -> true | _ -> false
  do
    v := (!v * 10) + (Char.code (String.unsafe_get c.s !i) - 48);
    incr i
  done;
  let len = !i - first in
  if len = 0 then bad_coords c "empty or non-numeric field";
  if len > 9 then bad_coords c "field longer than 9 digits";
  c.pos <- !i;
  if c.pos < c.n then begin
    if String.unsafe_get c.s c.pos <> ',' then bad_coords c "unexpected byte";
    c.pos <- c.pos + 1;
    if c.pos = c.n then bad_coords c "trailing comma"
  end;
  if neg then - !v else !v

let point c =
  let x = coord c in
  let y = coord c in
  let z = coord c in
  Point3.make x y z

let cursor j =
  let s = string_ j in
  { s; n = String.length s; pos = 0 }

let path j =
  let c = cursor j in
  let[@tail_mod_cons] rec points () =
    if c.pos >= c.n then []
    else
      let p = point c in
      p :: points ()
  in
  points ()

(* The field count is one more than the comma count, so the array is
   allocated once at its exact length. *)
let point3_array j =
  let c = cursor j in
  let commas = ref 0 in
  String.iter (fun ch -> if Char.equal ch ',' then incr commas) c.s;
  let fields = if c.n = 0 then 0 else !commas + 1 in
  if fields mod 3 <> 0 then bad_coords c "coordinate count not a multiple of 3";
  Array.init (fields / 3) (fun _ -> point c)

let bool_array j =
  let s = string_ j in
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> err "expected '0'/'1' in bool array, got %C" c)

(* ------------------------- encoders ------------------------------- *)

let of_int_list l = Json.List (List.map (fun i -> Json.Int i) l)

let of_int_array a =
  Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let of_point3 (p : Point3.t) =
  Json.List [ Json.Int p.Point3.x; Json.Int p.Point3.y; Json.Int p.Point3.z ]

let of_triple (a, b, c) = Json.List [ Json.Int a; Json.Int b; Json.Int c ]

let of_cuboid (c : Cuboid.t) =
  let lo = c.Cuboid.lo and hi = c.Cuboid.hi in
  Json.List
    [ Json.Int lo.Point3.x; Json.Int lo.Point3.y; Json.Int lo.Point3.z;
      Json.Int hi.Point3.x; Json.Int hi.Point3.y; Json.Int hi.Point3.z ]

let add_point b (p : Point3.t) =
  if Buffer.length b > 0 then Buffer.add_char b ',';
  Json.add_int b p.Point3.x;
  Buffer.add_char b ',';
  Json.add_int b p.Point3.y;
  Buffer.add_char b ',';
  Json.add_int b p.Point3.z

let of_path pts =
  let b = Buffer.create (12 * List.length pts) in
  List.iter (add_point b) pts;
  Json.String (Buffer.contents b)

let of_point3_array a =
  let b = Buffer.create (12 * Array.length a) in
  Array.iter (add_point b) a;
  Json.String (Buffer.contents b)

let of_bool_array a =
  Json.String (String.init (Array.length a) (fun i -> if a.(i) then '1' else '0'))
