module Point3 = Tqec_geom.Point3
module Cuboid = Tqec_geom.Cuboid
module Rng = Tqec_prelude.Rng
module Trace = Tqec_obs.Trace
module Modular = Tqec_modular.Modular
module Bridge = Tqec_bridge.Bridge

type config = {
  tiers : int option;
  sa : Sa.params;
  seed : int;
}

let default_config = { tiers = None; sa = Sa.default_params; seed = 42 }

(* Floorplan constants: in-plane module spacing (separation plus a routing
   lane), free routing layers between tiers, and the weights and target of
   Phi (§III-C2). *)
let spacing = 1
let z_gap = 2
let alpha = 0.5
let beta = 0.5
let gamma = 0.25
let aspect_target = 1.5   (* tier-plane width over depth *)

type placement = {
  cluster : Cluster.t;
  module_pos : Point3.t array;
  cluster_pos : Point3.t array;
  tier_of_cluster : int array;
  dims : int * int * int;
  volume : int;
  wirelength : int;
  sa_accepted : int;
  sa_improved : int;
}

(* ------------------------------------------------------------------ *)
(* SA state: one B*-tree per tier plus the cluster<->slot bijection.   *)
(* ------------------------------------------------------------------ *)

type state = {
  trees : Bstar.t array;
  slot_cluster : int array array;   (* tier -> block idx -> cluster id *)
  cluster_tier : int array;         (* cluster id -> tier *)
  cluster_idx : int array;          (* cluster id -> block idx in its tier *)
}

let cluster_dxdy (c : Cluster.cluster) =
  let d, w, _ = c.Cluster.cdims in
  (d, w)

(* Greedy area balancing: biggest clusters first, each into the currently
   lightest tier. *)
let initial_state cl ~ntiers =
  let n = Cluster.num_clusters cl in
  let order = Array.init n (fun i -> i) in
  let area i = Cluster.cluster_volume cl.Cluster.clusters.(i) in
  Array.sort (fun a b -> Int.compare (area b) (area a)) order;
  let tier_area = Array.make ntiers 0 in
  let tier_members = Array.make ntiers [] in
  Array.iter
    (fun c ->
      let best = ref 0 in
      for t = 1 to ntiers - 1 do
        if tier_area.(t) < tier_area.(!best) then best := t
      done;
      tier_area.(!best) <- tier_area.(!best) + area c;
      tier_members.(!best) <- c :: tier_members.(!best))
    order;
  let cluster_tier = Array.make n (-1) and cluster_idx = Array.make n (-1) in
  let slot_cluster =
    Array.mapi
      (fun t members ->
        (* A tier must have at least one block for the B*-tree; steal from a
           neighbour is avoided by choosing ntiers <= n upstream. *)
        let members = Array.of_list (List.rev members) in
        Array.iteri
          (fun idx c ->
            cluster_tier.(c) <- t;
            cluster_idx.(c) <- idx)
          members;
        members)
      tier_members
  in
  { trees =
      Array.map
        (fun members ->
          Bstar.create (Array.map (fun c -> cluster_dxdy cl.Cluster.clusters.(c)) members))
        slot_cluster;
    slot_cluster;
    cluster_tier;
    cluster_idx }

(* Each tree's own packing buffer, evaluated if stale. *)
let pack_all trees = Array.map (Bstar.pack_spaced ~spacing) trees

(* Tier heights are uniform (every module is 2 units tall), so tier [t]
   starts at z = t * (2 + z_gap). The vertical gap is a routing plane and may
   be narrower than the in-plane spacing: pins sit on width faces, so no pin
   mouth ever opens into the z gap. *)
let tier_z t = t * (2 + z_gap)

let cluster_positions cl s packs =
  Array.init (Cluster.num_clusters cl) (fun c ->
      let t = s.cluster_tier.(c) and idx = s.cluster_idx.(c) in
      let p : Bstar.packing = packs.(t) in
      Point3.make p.Bstar.xs.(idx) p.Bstar.ys.(idx) (tier_z t))

(* A monomorphic loop: the cost calls this on every move, and folding the
   polymorphic [max] over ints would call the generic C compare per tier. *)
let overall_dims packs =
  let d = ref 0 and w = ref 0 in
  for t = 0 to Array.length packs - 1 do
    let p : Bstar.packing = packs.(t) in
    d := Int.max !d p.Bstar.span_x;
    w := Int.max !w p.Bstar.span_y
  done;
  let d = !d and w = !w and ntiers = Array.length packs in
  let h = (ntiers * (2 + z_gap)) - z_gap in
  (d, w, h)

let pin_abs cl cluster_pos pin =
  let m = pin.Modular.owner in
  let c = cl.Cluster.module_cluster.(m) in
  Point3.add cluster_pos.(c) (Point3.add cl.Cluster.module_offset.(m) pin.Modular.offset)

let wirelength_of cl cluster_pos nets =
  let pins = cl.Cluster.modular.Modular.pins in
  List.fold_left
    (fun acc n ->
      let a = pin_abs cl cluster_pos pins.(n.Bridge.pin_a) in
      let b = pin_abs cl cluster_pos pins.(n.Bridge.pin_b) in
      acc + Point3.manhattan a b)
    0 nets

(* ------------------------------------------------------------------ *)
(* Incremental SA evaluation (the hot loop).

   The annealer works on one live [eval]: the [state] plus the packing of
   every tier, the absolute cluster positions and a per-net length cache.
   A move mutates it in place and records in its [journal] just what it
   touched, so a rejected move is undone in time proportional to the
   move, not the floorplan. Checkpoint, re-pack, position sync and undo
   allocate nothing (they are [@tqec.hot], so the lint checks it):

   - each touched tier's tree is checkpointed into a spare tree
     ([Bstar.blit], which copies the packing buffer too) before the first
     mutation and restored by swapping the two pointers; [packs.(t)] is
     always the packing buffer of [state.trees.(t)], so the swap brings the
     pre-move packing back with the tree;
   - each cluster whose slot changed keeps its old slot, each cluster whose
     position changed its old position, each re-measured net its old
     length, plus the old wirelength.

   After a perturbation [resync] re-packs the touched tiers only (in
   place, into each tree's own buffer), re-enforces TSL order on the
   groups with a member on a touched tier, diffs the positions of the
   clusters that can have moved (the slot rows of touched tiers, walked by
   index, and the clusters whose slot changed onto an untouched tier) and
   re-measures the nets incident to clusters that did move (one int record
   per net, the incidence in CSR form). The full
   O(all tiers + all nets) evaluation survives as [full_cost], the
   reference [check_incremental_cost] audits the incremental one against. *)
(* ------------------------------------------------------------------ *)

type journal = {
  mutable gen : int;          (* move generation; the stamps compare to it *)
  tier_stamp : int array;     (* tier -> generation it was checkpointed in *)
  slot_stamp : int array;     (* cluster -> generation its slot was saved in *)
  net_stamp : int array;      (* net -> generation it was re-measured in *)
  mutable n_touched : int;
  touched : int array;        (* touched tiers, in touch order *)
  mutable n_slots : int;
  slot_c : int array;         (* clusters whose slot changed ... *)
  slot_t : int array;         (* ... and their slot before the move *)
  slot_i : int array;
  mutable n_moved : int;
  moved_c : int array;        (* clusters whose position changed ... *)
  moved_x : int array;        (* ... and their position before the move *)
  moved_y : int array;
  moved_z : int array;
  mutable n_nets : int;
  net_i : int array;          (* re-measured nets and their old lengths *)
  net_old : int array;
  mutable old_wirelength : int;
  (* TSL sort scratch, one entry per group member: the sort key of the
     member's slot (x, tier, y, block idx) and the sorted member order. *)
  key_x : int array;
  key_t : int array;
  key_y : int array;
  key_i : int array;
  order : int array;
}

type eval = {
  state : state;
  spare : Bstar.t array;                (* tier -> checkpoint tree *)
  packs : Bstar.packing array;          (* tier -> trees.(t)'s packing buffer *)
  cx : int array;                       (* cluster id -> absolute position *)
  cy : int array;
  cz : int array;
  net_len : int array;                  (* net index -> manhattan length *)
  mutable wirelength : int;             (* = sum of net_len *)
  journal : journal;
}

(* Immutable per-anneal tables. Net [i] is one record of [net_stride] ints
   at [net_rec.(net_stride * i)]: the clusters of pin a and pin b, then
   pin a's offset within its cluster (x, y, z), then pin b's. The nets
   incident to cluster [c] are [net_ids.(net_start.(c) ..
   net_start.(c + 1) - 1)], in [Cluster.net_index]'s order. *)
type anneal_ctx = {
  cl : Cluster.t;
  nnets : int;
  net_rec : int array;
  net_start : int array;
  net_ids : int array;
  tsl : int array array;    (* the TSL groups, members in required order *)
}

let net_stride = 8

let make_ctx cl nets =
  let pins = cl.Cluster.modular.Modular.pins in
  let nnets = List.length nets in
  let net_rec = Array.make (net_stride * nnets) 0 in
  List.iteri
    (fun i nt ->
      (* Pin [k] (0 = a, 1 = b): its cluster at field [k], its offset at
         fields [2 + 3k ..]. *)
      let put k pin =
        let m = pins.(pin).Modular.owner in
        let rel = Point3.add cl.Cluster.module_offset.(m) pins.(pin).Modular.offset in
        let o = net_stride * i in
        net_rec.(o + k) <- cl.Cluster.module_cluster.(m);
        net_rec.(o + 2 + (3 * k)) <- rel.Point3.x;
        net_rec.(o + 3 + (3 * k)) <- rel.Point3.y;
        net_rec.(o + 4 + (3 * k)) <- rel.Point3.z
      in
      put 0 nt.Bridge.pin_a;
      put 1 nt.Bridge.pin_b)
    nets;
  let index = Cluster.net_index cl nets in
  let net_start = Array.make (Array.length index + 1) 0 in
  Array.iteri (fun c ids -> net_start.(c + 1) <- net_start.(c) + Array.length ids) index;
  { cl;
    nnets;
    net_rec;
    net_start;
    net_ids = Array.concat (Array.to_list index);
    tsl = Array.map Array.of_list cl.Cluster.tsl }

(* [update_position] and the net re-measure write their journal slot
   before they know whether to keep it. A move calls [update_position] at
   most once per cluster, so its slot index stays below [ncl]. A net
   incident to two moved clusters is visited twice, so a move that keeps
   all [nnets] nets can still write one slot past them: the net arrays have
   that spare entry. *)
let make_journal ctx ntiers =
  let ncl = Cluster.num_clusters ctx.cl and nnets = ctx.nnets in
  let group = Array.fold_left (fun acc g -> Int.max acc (Array.length g)) 0 ctx.tsl in
  { gen = 0;
    tier_stamp = Array.make ntiers 0;
    slot_stamp = Array.make ncl 0;
    net_stamp = Array.make nnets 0;
    n_touched = 0;
    touched = Array.make ntiers 0;
    n_slots = 0;
    slot_c = Array.make ncl 0;
    slot_t = Array.make ncl 0;
    slot_i = Array.make ncl 0;
    n_moved = 0;
    moved_c = Array.make ncl 0;
    moved_x = Array.make ncl 0;
    moved_y = Array.make ncl 0;
    moved_z = Array.make ncl 0;
    n_nets = 0;
    net_i = Array.make (nnets + 1) 0;
    net_old = Array.make (nnets + 1) 0;
    old_wirelength = 0;
    key_x = Array.make group 0;
    key_t = Array.make group 0;
    key_y = Array.make group 0;
    key_i = Array.make group 0;
    order = Array.make group 0 }

(* Open a new move: empty journal, fresh generation. *)
let[@tqec.hot] begin_move e =
  let j = e.journal in
  j.gen <- j.gen + 1;
  j.n_touched <- 0;
  j.n_slots <- 0;
  j.n_moved <- 0;
  j.n_nets <- 0;
  j.old_wirelength <- e.wirelength

(* The tree of tier [t], checkpointed on its first mutation in this move. *)
let[@tqec.hot] touch e t =
  let j = e.journal in
  if j.tier_stamp.(t) <> j.gen then begin
    j.tier_stamp.(t) <- j.gen;
    Bstar.blit ~src:e.state.trees.(t) ~dst:e.spare.(t);
    j.touched.(j.n_touched) <- t;
    j.n_touched <- j.n_touched + 1
  end;
  e.state.trees.(t)

let[@tqec.hot] set_slot e c t idx =
  let s = e.state and j = e.journal in
  if j.slot_stamp.(c) <> j.gen then begin
    j.slot_stamp.(c) <- j.gen;
    j.slot_c.(j.n_slots) <- c;
    j.slot_t.(j.n_slots) <- s.cluster_tier.(c);
    j.slot_i.(j.n_slots) <- s.cluster_idx.(c);
    j.n_slots <- j.n_slots + 1
  end;
  s.cluster_tier.(c) <- t;
  s.cluster_idx.(c) <- idx;
  s.slot_cluster.(t).(idx) <- c

(* Reallocate each TSL's (equal-sized) super-modules onto the x-sorted slot
   positions so measurement ordering holds after any perturbation. Only
   groups with a member on a tier touched by this move are re-sorted: for
   the others neither the slots nor their packings changed, and the
   reallocation is idempotent. Slots sort by (x, tier, y, block idx), a
   total order on distinct slots, so the result does not depend on the
   sorting algorithm. *)
let[@tqec.hot] slot_before j a b =
  let xa = j.key_x.(a) and xb = j.key_x.(b) in
  xa < xb
  || xa = xb
     && (let ta = j.key_t.(a) and tb = j.key_t.(b) in
         ta < tb
         || ta = tb
            && (let ya = j.key_y.(a) and yb = j.key_y.(b) in
                ya < yb || (ya = yb && j.key_i.(a) < j.key_i.(b))))

(* Insertion step: shift [order.(0 .. m-1)] up past [v], then place it. *)
let[@tqec.hot] rec insert_sorted j v m =
  if m > 0 && slot_before j v j.order.(m - 1) then begin
    j.order.(m) <- j.order.(m - 1);
    insert_sorted j v (m - 1)
  end
  else j.order.(m) <- v

let[@tqec.hot] rec group_touched e ids m =
  m < Array.length ids
  && (e.journal.tier_stamp.(e.state.cluster_tier.(ids.(m))) = e.journal.gen
      || group_touched e ids (m + 1))

let[@tqec.hot] enforce_tsl ctx e =
  let s = e.state and j = e.journal in
  for g = 0 to Array.length ctx.tsl - 1 do
    let ids = ctx.tsl.(g) in
    let k = Array.length ids in
    if k >= 2 && group_touched e ids 0 then begin
      for m = 0 to k - 1 do
        let c = ids.(m) in
        let t = s.cluster_tier.(c) and idx = s.cluster_idx.(c) in
        let p : Bstar.packing = e.packs.(t) in
        j.key_x.(m) <- p.Bstar.xs.(idx);
        j.key_t.(m) <- t;
        j.key_y.(m) <- p.Bstar.ys.(idx);
        j.key_i.(m) <- idx;
        insert_sorted j m m
      done;
      for m = 0 to k - 1 do
        let c = ids.(m) and o = j.order.(m) in
        let t = j.key_t.(o) and idx = j.key_i.(o) in
        if t <> s.cluster_tier.(c) || idx <> s.cluster_idx.(c) then set_slot e c t idx
      done
    end
  done

let perturb_state ctx rng e =
  let s = e.state in
  let ntiers = Array.length s.trees in
  let op = Rng.int rng 3 in
  match op with
  | 0 ->
      (* Intra-tier swap: the two clusters trade tree nodes, i.e. places in
         the tier's floorplan; the slot->cluster map is untouched because
         blocks are identified with tier-local slot indices. *)
      let t = Rng.int rng ntiers in
      if Bstar.num_blocks s.trees.(t) >= 2 then begin
        let tree = touch e t in
        let b1 = Bstar.random_block rng tree and b2 = Bstar.random_block rng tree in
        if b1 <> b2 then Bstar.swap_blocks tree b1 b2
      end
  | 1 ->
      (* intra-tier move *)
      let t = Rng.int rng ntiers in
      if Bstar.num_blocks s.trees.(t) >= 2 then begin
        let tree = touch e t in
        Bstar.move_block ~rng tree (Bstar.random_block rng tree)
      end
  | _ ->
      (* inter-tier swap: exchange the clusters of two slots. *)
      let t1 = Rng.int rng ntiers in
      let t2 = Rng.int rng ntiers in
      if t1 <> t2 then begin
        let tree1 = touch e t1 and tree2 = touch e t2 in
        let i1 = Bstar.random_block rng tree1 in
        let i2 = Bstar.random_block rng tree2 in
        let c1 = s.slot_cluster.(t1).(i1) and c2 = s.slot_cluster.(t2).(i2) in
        set_slot e c2 t1 i1;
        set_slot e c1 t2 i2;
        let d2, w2, _ = ctx.cl.Cluster.clusters.(c2).Cluster.cdims
        and d1, w1, _ = ctx.cl.Cluster.clusters.(c1).Cluster.cdims in
        Bstar.set_block_dims tree1 i1 d2 w2;
        Bstar.set_block_dims tree2 i2 d1 w1
      end

(* Branch-free helpers for the re-measure path, whose outcomes are data
   dependent and so would be mispredicted as branches. [sign_abs x] is
   [abs x] through the sign mask [x asr 62] (all ones when negative), and is
   [min_int] at [min_int] like [abs]. [nonzero x] is 1 unless [x = 0]: a
   non-zero [x] or its negation has the sign bit set. *)
let[@inline] sign_abs x =
  let m = x asr (Sys.int_size - 1) in
  (x lxor m) - m

let[@inline] nonzero x = (x lor -x) lsr (Sys.int_size - 1)

(* Per-axis expansion of manhattan (add pa ra) (add pb rb): identical
   arithmetic without materializing the two intermediate points, since this
   runs once per net per perturbation inside the annealer's inner loop. *)
let[@tqec.hot] measure_net ctx e i =
  let r = ctx.net_rec and o = net_stride * i in
  let a = r.(o) and b = r.(o + 1) in
  sign_abs (e.cx.(a) + r.(o + 2) - (e.cx.(b) + r.(o + 5)))
  + sign_abs (e.cy.(a) + r.(o + 3) - (e.cy.(b) + r.(o + 6)))
  + sign_abs (e.cz.(a) + r.(o + 4) - (e.cz.(b) + r.(o + 7)))

(* Move cluster [c] to (x, y, z). The old position always goes into the
   next journal slot, and the slot is kept only if the position changed. *)
let[@tqec.hot] update_position e c x y z =
  let j = e.journal in
  let n = j.n_moved and ox = e.cx.(c) and oy = e.cy.(c) and oz = e.cz.(c) in
  j.moved_c.(n) <- c;
  j.moved_x.(n) <- ox;
  j.moved_y.(n) <- oy;
  j.moved_z.(n) <- oz;
  j.n_moved <- n + nonzero ((x lxor ox) lor (y lxor oy) lor (z lxor oz));
  e.cx.(c) <- x;
  e.cy.(c) <- y;
  e.cz.(c) <- z

(* Only clusters on a touched tier (re-packed) or with a changed slot can
   have moved. A touched tier's slot row is walked by index against its
   packing; a changed slot on an untouched tier is looked up. Every net
   incident to a moved cluster is then re-measured once, after all
   positions are final. *)
let[@tqec.hot] sync_positions ctx e =
  let s = e.state and j = e.journal in
  for k = 0 to j.n_touched - 1 do
    let t = j.touched.(k) in
    let row = s.slot_cluster.(t) and p : Bstar.packing = e.packs.(t) in
    let xs = p.Bstar.xs and ys = p.Bstar.ys and z = tier_z t in
    for idx = 0 to Array.length row - 1 do
      update_position e row.(idx) xs.(idx) ys.(idx) z
    done
  done;
  for k = 0 to j.n_slots - 1 do
    let c = j.slot_c.(k) in
    let t = s.cluster_tier.(c) in
    if j.tier_stamp.(t) <> j.gen then begin
      let idx = s.cluster_idx.(c) and p : Bstar.packing = e.packs.(t) in
      update_position e c p.Bstar.xs.(idx) p.Bstar.ys.(idx) (tier_z t)
    end
  done;
  (* A net incident to two moved clusters is measured twice; the second
     time it measures its new length again, changes nothing and keeps no
     journal slot (its stamp is already this move's). *)
  let start = ctx.net_start and ids = ctx.net_ids in
  for k = 0 to j.n_moved - 1 do
    let c = j.moved_c.(k) in
    for m = start.(c) to start.(c + 1) - 1 do
      let i = ids.(m) and n = j.n_nets in
      let old = e.net_len.(i) in
      j.net_i.(n) <- i;
      j.net_old.(n) <- old;
      j.n_nets <- n + nonzero (j.net_stamp.(i) lxor j.gen);
      j.net_stamp.(i) <- j.gen;
      let len = measure_net ctx e i in
      e.wirelength <- e.wirelength + len - old;
      e.net_len.(i) <- len
    done
  done

(* Revert the last perturbation: every journal entry is the value from
   before the move, and each item was saved at most once. *)
let[@tqec.hot] undo e =
  let s = e.state and j = e.journal in
  for k = 0 to j.n_touched - 1 do
    let t = j.touched.(k) in
    let mutated = s.trees.(t) in
    s.trees.(t) <- e.spare.(t);
    e.spare.(t) <- mutated;
    (* O(1): the checkpoint copied a packing that was current. *)
    e.packs.(t) <- Bstar.pack_spaced ~spacing s.trees.(t)
  done;
  for k = 0 to j.n_slots - 1 do
    let c = j.slot_c.(k) and t = j.slot_t.(k) and idx = j.slot_i.(k) in
    s.cluster_tier.(c) <- t;
    s.cluster_idx.(c) <- idx;
    s.slot_cluster.(t).(idx) <- c
  done;
  for k = 0 to j.n_moved - 1 do
    let c = j.moved_c.(k) in
    e.cx.(c) <- j.moved_x.(k);
    e.cy.(c) <- j.moved_y.(k);
    e.cz.(c) <- j.moved_z.(k)
  done;
  for k = 0 to j.n_nets - 1 do
    e.net_len.(j.net_i.(k)) <- j.net_old.(k)
  done;
  e.wirelength <- j.old_wirelength;
  j.n_touched <- 0;
  j.n_slots <- 0;
  j.n_moved <- 0;
  j.n_nets <- 0

let[@tqec.hot] resync ctx e =
  let j = e.journal in
  for k = 0 to j.n_touched - 1 do
    let t = j.touched.(k) in
    e.packs.(t) <- Bstar.pack_spaced ~spacing e.state.trees.(t)
  done;
  enforce_tsl ctx e;
  sync_positions ctx e

let perturb ctx rng e =
  begin_move e;
  perturb_state ctx rng e;
  resync ctx e

(* The initial evaluation runs the same TSL enforcement with every tier
   counted as touched, then measures every position and net. *)
let eval_of_state ctx s =
  let packs = pack_all s.trees in
  let ncl = Cluster.num_clusters ctx.cl and nnets = ctx.nnets in
  let e =
    { state = s;
      spare = Array.map Bstar.copy s.trees;
      packs;
      cx = Array.make ncl 0;
      cy = Array.make ncl 0;
      cz = Array.make ncl 0;
      net_len = Array.make nnets 0;
      wirelength = 0;
      journal = make_journal ctx (Array.length packs) }
  in
  begin_move e;
  Array.fill e.journal.tier_stamp 0 (Array.length packs) e.journal.gen;
  enforce_tsl ctx e;
  for c = 0 to ncl - 1 do
    let t = s.cluster_tier.(c) and idx = s.cluster_idx.(c) in
    e.cx.(c) <- packs.(t).Bstar.xs.(idx);
    e.cy.(c) <- packs.(t).Bstar.ys.(idx);
    e.cz.(c) <- tier_z t
  done;
  for i = 0 to nnets - 1 do
    e.net_len.(i) <- measure_net ctx e i;
    e.wirelength <- e.wirelength + e.net_len.(i)
  done;
  e

(* The best-so-far buffer: made once per anneal, refreshed by [blit_eval].
   Its trees are copies with packing buffers of their own, so the live
   anneal re-packing its trees in place never shows through. *)
let copy_eval ctx e =
  let s = e.state in
  let trees = Array.map Bstar.copy s.trees in
  { state =
      { trees;
        slot_cluster = Array.map Array.copy s.slot_cluster;
        cluster_tier = Array.copy s.cluster_tier;
        cluster_idx = Array.copy s.cluster_idx };
    spare = Array.map Bstar.copy s.trees;
    packs = pack_all trees;
    cx = Array.copy e.cx;
    cy = Array.copy e.cy;
    cz = Array.copy e.cz;
    net_len = Array.copy e.net_len;
    wirelength = e.wirelength;
    journal = make_journal ctx (Array.length e.packs) }

(* [dst.packs] keeps pointing at [dst]'s own trees' buffers, which
   [Bstar.blit] refreshes. *)
let blit_eval ~src ~dst =
  let s = src.state and d = dst.state in
  Array.iteri (fun t tree -> Bstar.blit ~src:tree ~dst:d.trees.(t)) s.trees;
  Array.iteri (fun t row -> Array.blit row 0 d.slot_cluster.(t) 0 (Array.length row))
    s.slot_cluster;
  let all a b = Array.blit a 0 b 0 (Array.length a) in
  all s.cluster_tier d.cluster_tier;
  all s.cluster_idx d.cluster_idx;
  all src.cx dst.cx;
  all src.cy dst.cy;
  all src.cz dst.cz;
  all src.net_len dst.net_len;
  dst.wirelength <- src.wirelength

(* Tier count heuristic: balance the stack height against the tier
   footprint so the result is roughly as tall as a tier plane is deep. *)
let default_tier_count cl =
  let area =
    Array.fold_left
      (fun acc c ->
        let d, w, _ = c.Cluster.cdims in
        acc + ((d + spacing) * (w + spacing)))
      0 cl.Cluster.clusters
  in
  let max_d =
    Array.fold_left (fun acc c -> let d, _, _ = c.Cluster.cdims in Int.max acc d) 1
      cl.Cluster.clusters
  in
  let pitch = float_of_int (2 + z_gap) in
  let n = Cluster.num_clusters cl in
  let guess = int_of_float (sqrt (float_of_int area /. (pitch *. float_of_int max_d))) in
  Int.max 1 (Int.min n (Int.max guess 1))

(* The annealer bundle: everything [Sa.run] needs over [eval] solutions.
   Shared between [place], [sa_eval_bench] and [check_incremental_cost] so
   all three drive the same inner loop. *)
type annealer = {
  a_rng : Rng.t;
  a_init : eval;
  a_cost : eval -> float;
  a_full_cost : eval -> float;
  a_perturb : Rng.t -> eval -> unit;
  a_copy : eval -> eval;
}

let make_annealer ?(trace = Trace.noop) config cl nets =
  Cluster.equalize_tsl cl;
  let ntiers =
    match config.tiers with
    | Some t -> Int.max 1 (Int.min t (Cluster.num_clusters cl))
    | None -> default_tier_count cl
  in
  let ctx = make_ctx cl nets in
  let init = eval_of_state ctx (initial_state cl ~ntiers) in
  (* Normalization constants from the initial solution. *)
  let d0, w0, h0 = overall_dims init.packs in
  let v_norm = float_of_int (Int.max 1 (d0 * w0 * h0)) in
  let l_norm = float_of_int (Int.max 1 init.wirelength) in
  let combine ~volume_term ~wirelength_term ~aspect_term =
    volume_term +. wirelength_term +. aspect_term
  in
  let cost e =
    let d, w, h = overall_dims e.packs in
    let v = float_of_int (d * w * h) in
    let l = float_of_int e.wirelength in
    (* Tier-plane aspect: keeping width and depth comparable avoids the
       degenerate snake floorplans that pack well but route terribly. *)
    let r = float_of_int w /. float_of_int (Int.max 1 d) in
    let volume_term = alpha *. v /. v_norm in
    let wirelength_term = beta *. l /. l_norm in
    let aspect_term = gamma *. ((r -. aspect_target) ** 2.0) in
    if Trace.enabled trace then begin
      Trace.observe trace "cost/volume_term" volume_term;
      Trace.observe trace "cost/wirelength_term" wirelength_term;
      Trace.observe trace "cost/aspect_term" aspect_term
    end;
    combine ~volume_term ~wirelength_term ~aspect_term
  in
  (* From-scratch reference: bypasses the packing cache and the net-length
     deltas entirely. Must stay the mirror image of [cost]. *)
  let full_cost e =
    let packs = Array.map (fun tree -> Bstar.repack ~spacing tree) e.state.trees in
    let d, w, h = overall_dims packs in
    let v = float_of_int (d * w * h) in
    let l =
      float_of_int (wirelength_of cl (cluster_positions cl e.state packs) nets)
    in
    let r = float_of_int w /. float_of_int (Int.max 1 d) in
    combine
      ~volume_term:(alpha *. v /. v_norm)
      ~wirelength_term:(beta *. l /. l_norm)
      ~aspect_term:(gamma *. ((r -. aspect_target) ** 2.0))
  in
  { a_rng = Rng.create config.seed;
    a_init = init;
    a_cost = cost;
    a_full_cost = full_cost;
    a_perturb = perturb ctx;
    a_copy = copy_eval ctx }

(* [?pool] is accepted and ignored: placement is one anneal on the calling
   domain (see place25d.mli). *)
let place ?(trace = Trace.noop) ?pool:_ (config : config) cl nets =
  let a = make_annealer ~trace config cl nets in
  let stats =
    Sa.run ~trace ~rng:a.a_rng ~init:a.a_init ~copy:a.a_copy
      ~blit:blit_eval ~cost:a.a_cost ~perturb:a.a_perturb ~undo config.sa
  in
  let final = stats.Sa.best.state in
  let packs = pack_all final.trees in
  let cluster_pos = cluster_positions cl final packs in
  let module_pos =
    Array.mapi
      (fun m off -> Point3.add cluster_pos.(cl.Cluster.module_cluster.(m)) off)
      cl.Cluster.module_offset
  in
  let d, w, h = overall_dims packs in
  let tier_of_cluster = Array.copy final.cluster_tier in
  let wirelength = wirelength_of cl cluster_pos nets in
  if Trace.enabled trace then begin
    Trace.incr ~n:(Cluster.num_clusters cl) trace "clusters";
    Trace.incr ~n:(Array.length final.trees) trace "tiers";
    Trace.incr ~n:(d * w * h) trace "placed_volume";
    Trace.incr ~n:wirelength trace "wirelength"
  end;
  { cluster = cl;
    module_pos;
    cluster_pos;
    tier_of_cluster;
    dims = (d, w, h);
    volume = d * w * h;
    wirelength;
    sa_accepted = stats.Sa.accepted;
    sa_improved = stats.Sa.improved }

(* One SA move evaluation — perturb in place, incremental cost, undo —
   exactly as the annealer's inner loop performs a rejected move. Timed per
   call by the repository benchmark (place.eval_ns). *)
let sa_eval_bench config cl nets =
  let a = make_annealer config cl nets in
  fun () ->
    a.a_perturb a.a_rng a.a_init;
    ignore (a.a_cost a.a_init);
    undo a.a_init

let equal_packing (a : Bstar.packing) (b : Bstar.packing) =
  a.Bstar.xs = b.Bstar.xs && a.Bstar.ys = b.Bstar.ys
  && a.Bstar.span_x = b.Bstar.span_x
  && a.Bstar.span_y = b.Bstar.span_y

(* [e.packs.(t)] is tree [t]'s own buffer, and current. *)
let packs_coherent e =
  Array.for_all2
    (fun tree p -> Bstar.pack ~spacing tree == p && equal_packing p (Bstar.repack ~spacing tree))
    e.state.trees e.packs

(* Everything a move may touch; journal and spare trees are scratch. *)
let same_eval a b =
  let sa = a.state and sb = b.state in
  Array.for_all2 Bstar.equal sa.trees sb.trees
  && Array.for_all2 equal_packing a.packs b.packs
  && packs_coherent a && packs_coherent b
  && sa.slot_cluster = sb.slot_cluster
  && sa.cluster_tier = sb.cluster_tier
  && sa.cluster_idx = sb.cluster_idx
  && a.cx = b.cx && a.cy = b.cy && a.cz = b.cz
  && a.net_len = b.net_len
  && a.wirelength = b.wirelength

(* Random-walk differential check of the incremental evaluation.
   A seeded share of the moves (about a third) is undone, as a rejected
   move would be, and must restore the snapshot taken before the move. *)
let check_incremental_cost ?(iterations = 200) config cl nets =
  let a = make_annealer config cl nets in
  let e = a.a_init in
  let undo_rng = Rng.stream ~root:config.seed 1 in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let rec walk i =
    if i > iterations then Ok ()
    else begin
      let snapshot = if Rng.int undo_rng 3 = 0 then Some (a.a_copy e) else None in
      a.a_perturb a.a_rng e;
      let inc = a.a_cost e in
      let full = a.a_full_cost e in
      if Float.abs (inc -. full) > 1e-9 *. Float.max 1.0 (Float.abs full) then
        fail "incremental cost %.17g <> full recomputation %.17g after %d moves" inc
          full i
      else
        match snapshot with
        | None -> walk (i + 1)
        | Some before ->
            undo e;
            if same_eval before e then walk (i + 1)
            else fail "undo of move %d did not restore the evaluation" i
    end
  in
  walk 1

let pin_position p pin_id =
  let pin = p.cluster.Cluster.modular.Modular.pins.(pin_id) in
  pin_abs p.cluster p.cluster_pos pin

let module_box p m =
  let d, w, h = p.cluster.Cluster.modular.Modular.modules.(m).Modular.dims in
  Cuboid.of_origin_size p.module_pos.(m) ~w ~h ~d

let module_boxes p =
  List.init (Array.length p.module_pos) (fun m -> (m, module_box p m))

let pin_positions p =
  List.init
    (Array.length p.cluster.Cluster.modular.Modular.pins)
    (fun i -> (i, pin_position p i))

let check_time_ordering p =
  let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt in
  let bad = ref None in
  Array.iteri
    (fun qubit ids ->
      let rec walk = function
        | c1 :: (c2 :: _ as rest) ->
            let x1 = p.cluster_pos.(c1).Point3.x and x2 = p.cluster_pos.(c2).Point3.x in
            if x1 > x2 then bad := Some (qubit, c1, c2)
            else walk rest
        | [ _ ] | [] -> ()
      in
      walk ids)
    p.cluster.Cluster.tsl;
  match !bad with
  | Some (q, c1, c2) -> err "TSL of qubit %d out of order (clusters %d, %d)" q c1 c2
  | None -> Ok ()

let check_no_overlap p =
  let n = Modular.num_modules p.cluster.Cluster.modular in
  let boxes = Array.init n (module_box p) in
  let index = Tqec_rtree.Rtree.create () in
  let bad = ref None in
  Array.iteri
    (fun m box ->
      if !bad = None && Tqec_rtree.Rtree.any_overlap index box then bad := Some m
      else Tqec_rtree.Rtree.insert index box m)
    boxes;
  match !bad with
  | Some m -> Error (Printf.sprintf "module %d overlaps another module" m)
  | None -> Ok ()
