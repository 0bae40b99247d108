module Rng = Tqec_prelude.Rng

type packing = {
  xs : int array;
  ys : int array;
  mutable span_x : int;
  mutable span_y : int;
}

type t = {
  dx : int array;               (* block id -> footprint along x *)
  dy : int array;               (* block id -> footprint along y *)
  node_block : int array;       (* node -> block id *)
  block_node : int array;       (* block id -> node *)
  parent : int array;
  left : int array;
  right : int array;
  mutable root : int;
  (* This tree's packing buffer, owned for life and rewritten in place by
     [pack] after a mutation; [packed_at] is the spacing its contents were
     evaluated with, or [stale] when a mutation has outdated them. *)
  pk : packing;
  mutable packed_at : int;
  (* Evaluation scratch, never shared between trees: the contour (grown to
     the widest packing seen) and the DFS stack of (node, x) pairs — each
     node is pushed at most once, so 2n ints suffice. *)
  mutable contour : int array;
  stack : int array;
}

let stale = min_int

let num_blocks t = Array.length t.node_block

let empty_packing n =
  { xs = Array.make n 0; ys = Array.make n 0; span_x = 0; span_y = 0 }

let create dims =
  let n = Array.length dims in
  if n = 0 then invalid_arg "Bstar.create: no blocks";
  let t =
    { dx = Array.map fst dims;
      dy = Array.map snd dims;
      node_block = Array.init n (fun i -> i);
      block_node = Array.init n (fun i -> i);
      parent = Array.make n (-1);
      left = Array.make n (-1);
      right = Array.make n (-1);
      root = 0;
      pk = empty_packing n;
      packed_at = stale;
      contour = [||];
      stack = Array.make (2 * n) 0 }
  in
  (* Heap-shaped initial tree: children of node i are 2i+1 and 2i+2. *)
  for i = 0 to n - 1 do
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < n then begin
      t.left.(i) <- l;
      t.parent.(l) <- i
    end;
    if r < n then begin
      t.right.(i) <- r;
      t.parent.(r) <- i
    end
  done;
  t

let copy t =
  { dx = Array.copy t.dx;
    dy = Array.copy t.dy;
    node_block = Array.copy t.node_block;
    block_node = Array.copy t.block_node;
    parent = Array.copy t.parent;
    left = Array.copy t.left;
    right = Array.copy t.right;
    root = t.root;
    pk =
      { xs = Array.copy t.pk.xs; ys = Array.copy t.pk.ys;
        span_x = t.pk.span_x; span_y = t.pk.span_y };
    packed_at = t.packed_at;
    contour = [||];
    stack = Array.make (Array.length t.stack) 0 }

(* One pass over the nine per-block arrays: every element is an immediate
   int, so this is plain loads and stores, with no write barrier and no
   per-array C call. Every per-block array of a tree, packing buffer
   included, is allocated with [num_blocks] entries and never replaced, so
   the size check covers all eighteen arrays and the accesses go unchecked. *)
let[@tqec.hot] blit ~src ~dst =
  if num_blocks src <> num_blocks dst then invalid_arg "Bstar.blit: size mismatch";
  let sp = src.pk and dp = dst.pk in
  for b = 0 to num_blocks src - 1 do
    Array.unsafe_set dst.dx b (Array.unsafe_get src.dx b);
    Array.unsafe_set dst.dy b (Array.unsafe_get src.dy b);
    Array.unsafe_set dst.node_block b (Array.unsafe_get src.node_block b);
    Array.unsafe_set dst.block_node b (Array.unsafe_get src.block_node b);
    Array.unsafe_set dst.parent b (Array.unsafe_get src.parent b);
    Array.unsafe_set dst.left b (Array.unsafe_get src.left b);
    Array.unsafe_set dst.right b (Array.unsafe_get src.right b);
    Array.unsafe_set dp.xs b (Array.unsafe_get sp.xs b);
    Array.unsafe_set dp.ys b (Array.unsafe_get sp.ys b)
  done;
  dst.root <- src.root;
  dp.span_x <- sp.span_x;
  dp.span_y <- sp.span_y;
  dst.packed_at <- src.packed_at

let equal a b =
  a.dx = b.dx && a.dy = b.dy && a.node_block = b.node_block
  && a.block_node = b.block_node && a.parent = b.parent && a.left = b.left
  && a.right = b.right && a.root = b.root

let block_dims t b = (t.dx.(b), t.dy.(b))

let set_block_dims t b dx dy =
  if t.dx.(b) <> dx || t.dy.(b) <> dy then begin
    t.dx.(b) <- dx;
    t.dy.(b) <- dy;
    t.packed_at <- stale
  end

(* Highest contour value over columns [c .. hi], at least [y]. *)
let[@tqec.hot] rec contour_max (contour : int array) c hi (y : int) =
  if c > hi then y
  else contour_max contour (c + 1) hi (if contour.(c) > y then contour.(c) else y)

(* Preorder DFS over the stack's [sp / 2] pending (node, x) frames, placing
   each node's block on the contour. *)
let[@tqec.hot] rec place_nodes t p spacing last_col sp =
  if sp > 0 then begin
    let sp = sp - 2 in
    let stack = t.stack and contour = t.contour in
    let node = stack.(sp) and x = stack.(sp + 1) in
    let b = t.node_block.(node) in
    let dx = t.dx.(b) and dy = t.dy.(b) in
    let dx' = dx + spacing and dy' = dy + spacing in
    let hi = if x + dx' - 1 < last_col then x + dx' - 1 else last_col in
    let y = contour_max contour x hi 0 in
    for c = x to hi do
      contour.(c) <- y + dy'
    done;
    p.xs.(b) <- x;
    p.ys.(b) <- y;
    if x + dx > p.span_x then p.span_x <- x + dx;
    if y + dy > p.span_y then p.span_y <- y + dy;
    let r = t.right.(node) and l = t.left.(node) in
    let sp =
      if r >= 0 then begin
        stack.(sp) <- r;
        stack.(sp + 1) <- x;
        sp + 2
      end
      else sp
    in
    let sp =
      if l >= 0 then begin
        stack.(sp) <- l;
        stack.(sp + 1) <- x + dx';
        sp + 2
      end
      else sp
    in
    place_nodes t p spacing last_col sp
  end

let[@tqec.allow
     "hot-path-alloc: contour growth is amortized; a tree reallocates only \
      when its total block width exceeds the widest it has packed"]
    grow_contour t ncols =
  t.contour <- Array.make ncols 0

(* Sum of the spaced block widths [dx.(0 .. b)], added to [acc]. *)
let[@tqec.hot] rec total_width dx spacing b acc =
  if b < 0 then acc else total_width dx spacing (b - 1) (acc + dx.(b) + spacing)

(* Evaluate the tree into [p], overwriting every entry. The contour spans
   the total spaced width, which bounds every column a block can reach. *)
let[@tqec.hot] evaluate t ~spacing p =
  let w = total_width t.dx spacing (num_blocks t - 1) 0 in
  let ncols = if w > 1 then w else 1 in
  if Array.length t.contour < ncols then grow_contour t ncols
  else Array.fill t.contour 0 ncols 0;
  p.span_x <- 0;
  p.span_y <- 0;
  t.stack.(0) <- t.root;
  t.stack.(1) <- 0;
  place_nodes t p spacing (ncols - 1) 2

let repack ?(spacing = 1) t =
  let p = empty_packing (num_blocks t) in
  evaluate t ~spacing p;
  p

let[@tqec.hot] pack_spaced ~spacing t =
  if t.packed_at <> spacing then begin
    evaluate t ~spacing t.pk;
    t.packed_at <- spacing
  end;
  t.pk

let pack ?(spacing = 1) t = pack_spaced ~spacing t

let swap_blocks t b1 b2 =
  if b1 <> b2 then begin
    let n1 = t.block_node.(b1) and n2 = t.block_node.(b2) in
    t.node_block.(n1) <- b2;
    t.node_block.(n2) <- b1;
    t.block_node.(b1) <- n2;
    t.block_node.(b2) <- n1;
    (* Node positions depend only on tree shape and per-node dims, so a swap
       of equal-footprint blocks just exchanges the two blocks' coordinates
       in the tree's own buffer. *)
    if t.packed_at <> stale then begin
      if t.dx.(b1) = t.dx.(b2) && t.dy.(b1) = t.dy.(b2) then begin
        let p = t.pk in
        let x = p.xs.(b1) and y = p.ys.(b1) in
        p.xs.(b1) <- p.xs.(b2);
        p.ys.(b1) <- p.ys.(b2);
        p.xs.(b2) <- x;
        p.ys.(b2) <- y
      end
      else t.packed_at <- stale
    end
  end

let random_block rng t = Rng.int rng (num_blocks t)

(* Swap a node's block down to a leaf, unlink the leaf, return it. *)
let rec sink_to_leaf rng t node =
  let l = t.left.(node) and r = t.right.(node) in
  if l < 0 && r < 0 then node
  else begin
    let child =
      if l < 0 then r else if r < 0 then l else if Rng.bool rng then l else r
    in
    let bn = t.node_block.(node) and bc = t.node_block.(child) in
    t.node_block.(node) <- bc;
    t.node_block.(child) <- bn;
    t.block_node.(bc) <- node;
    t.block_node.(bn) <- child;
    sink_to_leaf rng t child
  end

let unlink_leaf t leaf =
  let p = t.parent.(leaf) in
  if p >= 0 then begin
    if t.left.(p) = leaf then t.left.(p) <- -1 else t.right.(p) <- -1;
    t.parent.(leaf) <- -1
  end

let move_block ~rng t b =
  if num_blocks t >= 2 then begin
    t.packed_at <- stale;
    let node = t.block_node.(b) in
    let leaf = sink_to_leaf rng t node in
    (* The block now at [leaf] is [b]. If the leaf is the root the tree has
       exactly one node and there is nothing to move. *)
    if leaf <> t.root then begin
      unlink_leaf t leaf;
      (* Attach under a random other node, displacing any existing child to
         hang below the re-inserted leaf on a random side. *)
      let target = ref (Rng.int rng (num_blocks t)) in
      while !target = leaf do
        target := Rng.int rng (num_blocks t)
      done;
      let target = !target in
      let as_left = Rng.bool rng in
      let old_child = if as_left then t.left.(target) else t.right.(target) in
      if as_left then t.left.(target) <- leaf else t.right.(target) <- leaf;
      t.parent.(leaf) <- target;
      if old_child >= 0 then begin
        (* Keep the displaced subtree on the same side under the new node so
           x-adjacency relationships are perturbed, not destroyed. *)
        if as_left then t.left.(leaf) <- old_child else t.right.(leaf) <- old_child;
        t.parent.(old_child) <- leaf
      end
    end
  end

let check t =
  let n = num_blocks t in
  let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt in
  if t.root < 0 || t.root >= n then err "root out of range"
  else if t.parent.(t.root) <> -1 then err "root has a parent"
  else begin
    let seen = Array.make n false in
    let rec walk node =
      if node < 0 then Ok ()
      else if seen.(node) then err "node %d visited twice" node
      else begin
        seen.(node) <- true;
        let check_child c =
          if c >= 0 && t.parent.(c) <> node then err "child %d has wrong parent" c
          else Ok ()
        in
        match check_child t.left.(node) with
        | Error _ as e -> e
        | Ok () ->
            (match check_child t.right.(node) with
             | Error _ as e -> e
             | Ok () ->
                 (match walk t.left.(node) with
                  | Error _ as e -> e
                  | Ok () -> walk t.right.(node)))
      end
    in
    match walk t.root with
    | Error _ as e -> e
    | Ok () ->
        if Array.for_all (fun s -> s) seen then begin
          let consistent = ref true in
          Array.iteri
            (fun node b -> if t.block_node.(b) <> node then consistent := false)
            t.node_block;
          if !consistent then Ok () else err "node/block maps inconsistent"
        end
        else err "unreachable nodes exist"
  end
