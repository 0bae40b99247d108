type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Cost model. Stage-cache artifacts are almost entirely integers and short
   plain strings, and a warm cache hit is one parse of a stored artifact
   plus one render of each cache key. Both directions therefore work in a
   single pass over a [Buffer] / the input string and allocate only the
   resulting tree or bytes: integer digits go straight into the buffer,
   strings are escaped only when they contain a byte that needs it, and the
   parser reads integers and escape-free strings in place, returning small
   integers as shared, preallocated leaves. Floats and
   unusual number spellings take the slower, general paths; they are rare
   and their results must not change. *)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec needs_escape s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '"' | '\\' | '\000' .. '\031' -> true
  | _ -> needs_escape s (i + 1)

let add_string b s =
  if needs_escape s 0 then escape_string b s
  else begin
    Buffer.add_char b '"';
    Buffer.add_string b s;
    Buffer.add_char b '"'
  end

(* Decimal digits of [n <= 0], most significant first. Working on the
   non-positive side keeps [min_int] representable. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_digits b i
  end
  else add_digits b (-i)

(* Shortest decimal representation that round-trips through [float_of_string];
   always contains a '.' or exponent so it re-parses as a float. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* In pretty mode a line break is followed by two spaces per level. *)
let newline b ~pretty depth =
  if pretty then begin
    Buffer.add_char b '\n';
    for _ = 1 to 2 * depth do
      Buffer.add_char b ' '
    done
  end

let rec render b ~pretty depth = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f ->
      Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | String s -> add_string b s
  | List [] -> Buffer.add_string b "[]"
  | List (item :: items) ->
      Buffer.add_char b '[';
      newline b ~pretty (depth + 1);
      render b ~pretty (depth + 1) item;
      render_items b ~pretty (depth + 1) items;
      newline b ~pretty depth;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (field :: fields) ->
      Buffer.add_char b '{';
      newline b ~pretty (depth + 1);
      render_field b ~pretty (depth + 1) field;
      render_fields b ~pretty (depth + 1) fields;
      newline b ~pretty depth;
      Buffer.add_char b '}'

and render_items b ~pretty depth = function
  | [] -> ()
  | item :: items ->
      Buffer.add_char b ',';
      newline b ~pretty depth;
      render b ~pretty depth item;
      render_items b ~pretty depth items

and render_field b ~pretty depth (k, v) =
  add_string b k;
  Buffer.add_string b (if pretty then ": " else ":");
  render b ~pretty depth v

and render_fields b ~pretty depth = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_char b ',';
      newline b ~pretty depth;
      render_field b ~pretty depth field;
      render_fields b ~pretty depth fields

let to_string ?(pretty = false) json =
  let b = Buffer.create 256 in
  render b ~pretty 0 json;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

(* The input and the offset of the next unread byte. Every read below is
   guarded by an explicit [pos < n] check before [String.unsafe_get]. *)
type state = { s : string; n : int; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let at st c = st.pos < st.n && String.unsafe_get st.s st.pos = c

let skip_ws st =
  let s = st.s and n = st.n in
  let i = ref st.pos in
  while
    !i < n
    && match String.unsafe_get s !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  st.pos <- !i

let expect st c =
  if st.pos >= st.n then
    fail st (Printf.sprintf "expected %C, got end of input" c)
  else
    let c' = String.unsafe_get st.s st.pos in
    if c' = c then st.pos <- st.pos + 1
    else fail st (Printf.sprintf "expected %C, got %C" c c')

(* [word] occurs in [s] at [p + i ..]; the caller checked the length. *)
let rec matches s p word i =
  i = String.length word
  || String.unsafe_get s (p + i) = String.unsafe_get word i
     && matches s p word (i + 1)

let literal st word value =
  let l = String.length word in
  let p = st.pos in
  if p + l <= st.n && matches st.s p word 0 then begin
    st.pos <- p + l;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* One escape sequence; [st.pos] is just past the backslash. *)
let unescape st b =
  if st.pos >= st.n then fail st "unterminated escape";
  let e = String.unsafe_get st.s st.pos in
  st.pos <- st.pos + 1;
  match e with
  | '"' -> Buffer.add_char b '"'
  | '\\' -> Buffer.add_char b '\\'
  | '/' -> Buffer.add_char b '/'
  | 'b' -> Buffer.add_char b '\b'
  | 'f' -> Buffer.add_char b '\012'
  | 'n' -> Buffer.add_char b '\n'
  | 'r' -> Buffer.add_char b '\r'
  | 't' -> Buffer.add_char b '\t'
  | 'u' ->
      if st.pos + 4 > st.n then fail st "truncated \\u escape";
      let hex = String.sub st.s st.pos 4 in
      st.pos <- st.pos + 4;
      let code =
        (* [int_of_string] signals bad digits with [Failure]; keep the
           handler that narrow so a genuine runtime error (Out_of_memory,
           ...) is never relabelled a parse error. *)
        try int_of_string ("0x" ^ hex)
        with Failure _ | Invalid_argument _ -> fail st "invalid \\u escape"
      in
      (* Only the code points we emit (< 0x20) need to survive. *)
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
  | _ -> fail st "invalid escape"

(* The rest of a string that contains escapes, byte by byte. *)
let rec escaped_tail st b =
  if st.pos >= st.n then fail st "unterminated string"
  else begin
    let c = String.unsafe_get st.s st.pos in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        unescape st b;
        escaped_tail st b
    | c ->
        Buffer.add_char b c;
        escaped_tail st b
  end

(* Scan to the closing quote and cut the string out in one [String.sub];
   a [Buffer] is made only at the first backslash. *)
let parse_string st =
  expect st '"';
  let s = st.s and n = st.n and start = st.pos in
  let i = ref start in
  while
    !i < n
    && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i >= n then begin
    st.pos <- n;
    fail st "unterminated string"
  end
  else if String.unsafe_get s !i = '"' then begin
    st.pos <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let b = Buffer.create (!i - start + 16) in
    Buffer.add_substring b s start (!i - start);
    st.pos <- !i;
    escaped_tail st b
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The general number path: the maximal run of number characters, through
   [float_of_string_opt] if it has a '.', 'e' or 'E' and [int_of_string_opt]
   otherwise. *)
let parse_number_slow st start =
  let s = st.s and n = st.n in
  let i = ref start in
  while !i < n && is_num_char (String.unsafe_get s !i) do
    incr i
  done;
  st.pos <- !i;
  let text = String.sub s start (!i - start) in
  let invalid () = fail st (Printf.sprintf "invalid number %S" text) in
  if String.contains text '.' || String.contains text 'e' || String.contains text 'E'
  then match float_of_string_opt text with Some f -> Float f | None -> invalid ()
  else match int_of_string_opt text with Some i -> Int i | None -> invalid ()

(* Preallocated leaves for the small ints that make up most of a stage
   artifact (ids, pins, dims, tiers): the parser returns the shared [Int i]
   for [0 <= i < 1024] instead of boxing a new one, so a parsed tree that
   stays live does not promote a box per number. A [t] is immutable, so
   sharing is invisible to every reader. The range is measured: it covers
   99.7-100% of the ints in the bridging, placement and routing entries of
   a 128-circuit ladder (none is negative once coordinates are packed into
   strings, and 0 .. 255 covers only 87% of bridging's and routing's);
   EXPERIMENTS.md has the numbers. *)
let small_ints = Array.init 1024 (fun i -> Int i)

let int_leaf i =
  if i >= 0 && i < Array.length small_ints then Array.unsafe_get small_ints i else Int i

(* An optional '-' and 1 to 18 digits, not followed by another number
   character, always fits an [int] and reads the same as through
   [int_of_string]; accumulate it in place. Anything else (a '+', '.', 'e',
   'E', a second sign, more digits) takes the general path, so overflow and
   float results cannot differ from it. *)
let parse_number st =
  let s = st.s and n = st.n and start = st.pos in
  let neg = start < n && String.unsafe_get s start = '-' in
  let first = if neg then start + 1 else start in
  let i = ref first and v = ref 0 in
  while
    !i < n && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
  do
    v := (!v * 10) + (Char.code (String.unsafe_get s !i) - 48);
    incr i
  done;
  let digits = !i - first in
  if digits > 0 && digits <= 18
     && not (!i < n && is_num_char (String.unsafe_get s !i))
  then begin
    st.pos <- !i;
    int_leaf (if neg then - !v else !v)
  end
  else parse_number_slow st start

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.n then fail st "unexpected end of input"
  else
    match String.unsafe_get st.s st.pos with
    | '"' -> String (parse_string st)
    | 't' -> literal st "true" (Bool true)
    | 'f' -> literal st "false" (Bool false)
    | 'n' -> literal st "null" Null
    | '[' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if at st ']' then begin
          st.pos <- st.pos + 1;
          List []
        end
        else List (parse_items st)
    | '{' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if at st '}' then begin
          st.pos <- st.pos + 1;
          Obj []
        end
        else Obj (parse_fields st)
    | _ -> parse_number st

and[@tail_mod_cons] parse_items st =
  let item = parse_value st in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    item :: parse_items st
  end
  else begin
    expect st ']';
    [ item ]
  end

and[@tail_mod_cons] parse_fields st =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    (k, v) :: parse_fields st
  end
  else begin
    expect st '}';
    [ (k, v) ]
  end

let of_string input =
  let st = { s = input; n = String.length input; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> st.n then Error (Printf.sprintf "trailing data at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec path keys json =
  match keys with
  | [] -> Some json
  | k :: rest -> ( match member k json with Some v -> path rest v | None -> None)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      let sort = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) in
      let xs = sort xs and ys = sort ys in
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | _ -> false
