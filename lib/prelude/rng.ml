(* The 64-bit state lives unboxed in 8 bytes: the get/set primitives and
   the Int64 arithmetic between them compile to plain machine words, so a
   draw that ends in an int, float or bool allocates nothing. A mutable
   [int64] field would box a fresh Int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_ne t 0
let[@inline] set t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let create seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let int64 t = next t

let split t = of_state (next t)

(* Indexed streams for parallel tasks: mix the root into a state, then place
   stream [i] a gamma-multiple away and mix again, so neighbouring indices
   land on decorrelated SplitMix64 trajectories. Depends only on
   [(root, i)], never on how many streams exist or who draws first. *)
let stream ~root i =
  let s =
    Int64.add (mix (Int64.of_int root)) (Int64.mul golden_gamma (Int64.of_int i))
  in
  of_state (mix s)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (next t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 significant bits, as in the standard doubles-from-uint64 recipe. *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
