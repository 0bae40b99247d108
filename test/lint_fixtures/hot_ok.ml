(* Clean variants for hot-path-alloc. *)

(* Pure int arithmetic and in-place writes: nothing boxes. *)
let[@tqec.hot] clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let[@tqec.hot] dot3 a b =
  (a.(0) * b.(0)) + (a.(1) * b.(1)) + (a.(2) * b.(2))

let[@tqec.hot] saxpy_int dst src k =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) + (k * src.(i))
  done

(* An allocation on the hot path behind the reviewed escape hatch. *)
let[@tqec.hot] fresh_scratch () =
  (Array.make 16 0)
  [@tqec.allow
    "hot-path-alloc: fixture exercising the amortized-growth escape hatch"]

(* The hoisted shape: the hot step is bound once, above the loop, and the
   popped cell's value is an argument, so no iteration builds a closure. *)
let relax_popped dist queue =
  let n = Array.length dist in
  let[@tqec.hot] step d w = if w >= 0 && w < n && dist.(w) > d + 1 then dist.(w) <- d + 1 in
  let i = ref 0 in
  while !i < Array.length queue do
    let v = queue.(!i) in
    let d = dist.(v) in
    step d (v + 1);
    step d (v - 1);
    incr i
  done
