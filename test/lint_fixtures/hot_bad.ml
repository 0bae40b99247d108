(* Seeded bugs for hot-path-alloc: [@tqec.hot] kernels that allocate. *)

(* Direct: a closure and an allocating stdlib call in the hot body. *)
let[@tqec.hot] midpoints xs = List.map (fun (a, b) -> (a + b) / 2) xs

(* Transitive: the hot function itself is clean, its callee allocates. *)
let make_cell v = ref v

let[@tqec.hot] via_helper x = !(make_cell x)

(* Per-iteration closure: the hot step is bound inside the loop body and
   closes over the popped cell's value, so every iteration rebuilds it —
   the shape the A* kernels had before their steps were hoisted. *)
let relax_popped dist queue =
  let n = Array.length dist in
  let i = ref 0 in
  while !i < Array.length queue do
    let v = queue.(!i) in
    let d = dist.(v) in
    let[@tqec.hot] step w = if w >= 0 && w < n && dist.(w) > d + 1 then dist.(w) <- d + 1 in
    step (v + 1);
    step (v - 1);
    incr i
  done

(* The same in a for body. *)
let relax_each dist =
  for v = 0 to Array.length dist - 2 do
    let d = dist.(v) in
    let[@tqec.hot] step w = if dist.(w) > d + 1 then dist.(w) <- d + 1 in
    step (v + 1)
  done
