module Rng = Tqec_prelude.Rng

type packing = { xs : int array; ys : int array; span_x : int; span_y : int }

type t = {
  dims : (int * int) array;     (* block id -> (dx, dy) *)
  node_block : int array;       (* node -> block id *)
  block_node : int array;       (* block id -> node *)
  parent : int array;
  left : int array;
  right : int array;
  mutable root : int;
  (* Last evaluation of this tree, keyed by the spacing it was computed
     with. A packing is immutable once built, so copies of the tree share
     it until one of them mutates and drops its reference (the dirty bit
     is [cache = None]). *)
  mutable cache : (int * packing) option;
  (* Per-tree [repack] scratch, never shared between trees: the contour
     (grown to the widest packing seen) and the DFS stack of (node, x)
     pairs — each node is pushed at most once, so 2n ints suffice. *)
  mutable contour : int array;
  stack : int array;
}

let num_blocks t = Array.length t.node_block

let create dims =
  let n = Array.length dims in
  if n = 0 then invalid_arg "Bstar.create: no blocks";
  let t =
    { dims = Array.copy dims;
      node_block = Array.init n (fun i -> i);
      block_node = Array.init n (fun i -> i);
      parent = Array.make n (-1);
      left = Array.make n (-1);
      right = Array.make n (-1);
      root = 0;
      cache = None;
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
  { dims = Array.copy t.dims;
    node_block = Array.copy t.node_block;
    block_node = Array.copy t.block_node;
    parent = Array.copy t.parent;
    left = Array.copy t.left;
    right = Array.copy t.right;
    root = t.root;
    cache = t.cache;
    contour = [||];
    stack = Array.make (Array.length t.stack) 0 }

let blit ~src ~dst =
  if num_blocks src <> num_blocks dst then invalid_arg "Bstar.blit: size mismatch";
  let n = num_blocks src in
  Array.blit src.dims 0 dst.dims 0 n;
  Array.blit src.node_block 0 dst.node_block 0 n;
  Array.blit src.block_node 0 dst.block_node 0 n;
  Array.blit src.parent 0 dst.parent 0 n;
  Array.blit src.left 0 dst.left 0 n;
  Array.blit src.right 0 dst.right 0 n;
  dst.root <- src.root;
  dst.cache <- src.cache

let equal a b =
  a.dims = b.dims && a.node_block = b.node_block && a.block_node = b.block_node
  && a.parent = b.parent && a.left = b.left && a.right = b.right && a.root = b.root

let block_dims t b = t.dims.(b)

let set_block_dims t b d =
  if t.dims.(b) <> d then begin
    t.dims.(b) <- d;
    t.cache <- None
  end

let repack ?(spacing = 1) t =
  let n = num_blocks t in
  let xs = Array.make n 0 and ys = Array.make n 0 in
  (* Contour over x columns; total width bounds the needed columns. *)
  let total_w = ref 0 in
  for b = 0 to n - 1 do
    total_w := !total_w + fst t.dims.(b) + spacing
  done;
  let ncols = max 1 !total_w in
  if Array.length t.contour < ncols then t.contour <- Array.make ncols 0
  else Array.fill t.contour 0 ncols 0;
  let contour = t.contour and last_col = ncols - 1 in
  let span_x = ref 0 and span_y = ref 0 in
  (* Preorder DFS; each frame carries the x origin. *)
  let stack = t.stack in
  stack.(0) <- t.root;
  stack.(1) <- 0;
  let sp = ref 2 in
  while !sp > 0 do
    sp := !sp - 2;
    let node = stack.(!sp) and x = stack.(!sp + 1) in
    let b = t.node_block.(node) in
    let dx, dy = t.dims.(b) in
    let dx' = dx + spacing and dy' = dy + spacing in
    let y = ref 0 in
    for c = x to min (x + dx' - 1) last_col do
      if contour.(c) > !y then y := contour.(c)
    done;
    let y = !y in
    for c = x to min (x + dx' - 1) last_col do
      contour.(c) <- y + dy'
    done;
    xs.(b) <- x;
    ys.(b) <- y;
    if x + dx > !span_x then span_x := x + dx;
    if y + dy > !span_y then span_y := y + dy;
    if t.right.(node) >= 0 then begin
      stack.(!sp) <- t.right.(node);
      stack.(!sp + 1) <- x;
      sp := !sp + 2
    end;
    if t.left.(node) >= 0 then begin
      stack.(!sp) <- t.left.(node);
      stack.(!sp + 1) <- x + dx';
      sp := !sp + 2
    end
  done;
  { xs; ys; span_x = !span_x; span_y = !span_y }

let pack ?(spacing = 1) t =
  match t.cache with
  | Some (sp, p) when sp = spacing -> p
  | Some _ | None ->
      let p = repack ~spacing t in
      t.cache <- Some (spacing, p);
      p

let swap_blocks t b1 b2 =
  if b1 <> b2 then begin
    let n1 = t.block_node.(b1) and n2 = t.block_node.(b2) in
    t.node_block.(n1) <- b2;
    t.node_block.(n2) <- b1;
    t.block_node.(b1) <- n2;
    t.block_node.(b2) <- n1;
    (* Node positions depend only on tree shape and per-node dims, so a swap
       of equal-footprint blocks just exchanges the two blocks' coordinates.
       Cached packings are shared across copies, hence copy-on-write. *)
    match t.cache with
    | Some (sp, p) when t.dims.(b1) = t.dims.(b2) ->
        let xs = Array.copy p.xs and ys = Array.copy p.ys in
        let x = xs.(b1) in
        xs.(b1) <- xs.(b2);
        xs.(b2) <- x;
        let y = ys.(b1) in
        ys.(b1) <- ys.(b2);
        ys.(b2) <- y;
        t.cache <- Some (sp, { p with xs; ys })
    | Some _ -> t.cache <- None
    | None -> ()
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
    t.cache <- None;
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
