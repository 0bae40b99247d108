module Point3 = Tqec_geom.Point3
module Cuboid = Tqec_geom.Cuboid
module Binheap = Tqec_prelude.Binheap
module Dialq = Tqec_prelude.Dialq
module Trace = Tqec_obs.Trace
module Bridge = Tqec_bridge.Bridge
module Modular = Tqec_modular.Modular
module Place25d = Tqec_place.Place25d

type config = {
  max_iterations : int;
  region_margin : int;
  friend_aware : bool;
}

let default_config = { max_iterations = 30; region_margin = 3; friend_aware = true }

(* Schedule constants (§III-D). *)
let region_expand = 6          (* region growth per failed attempt *)
let history_increment = 3.0    (* PathFinder history added per congested cell *)
let sky = 6                    (* free layers kept above the top tier *)
let max_expansions = 100_000   (* A* node budget per attempt (fail-fast) *)

type routed_net = { net : Bridge.net; path : Point3.t list }

type result = {
  routed : routed_net list;
  failed : Bridge.net list;
  dims : int * int * int;
  volume : int;
  iterations_used : int;
  routed_first_iteration : int;
}

(* ------------------------------------------------------------------ *)
(* Search workspace: generation-stamped scratch reused across searches.  *)
(* ------------------------------------------------------------------ *)

(* Quantized path costs: 16 units per step so fractional history costs
   survive the integer open-list keys. *)
let quantum = 16

type kernel = Dial | Reference

(* Flat scratch for the canonical kernel: unboxed, contiguous, invisible to
   the GC. Indexed by precomputed region strides, not grid strides — the
   working set of a restricted search is the region, so the arrays it
   touches fit in cache even when the grid does not. *)
type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let iarr_make n : iarr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let iarr_zero n =
  let a = iarr_make n in
  Bigarray.Array1.fill a 0;
  a

type workspace = {
  grid : Grid.t;
  history : float array;      (* PathFinder history cost, grid-indexed *)
  occ : int array;            (* encoded cell -> #committed nets *)
  (* Negotiated step-cost field, grid-indexed: the quantized surcharge
     [trunc (quantum * (history + cost_penalty * occ))] of entering each
     cell, stored as [lnot surcharge] when the cell is blocked, so one load
     answers both "traversable?" and "what does it cost?". Built whole by
     the first production search at a new present penalty
     ([ensure_cost_field]); afterwards every writer of [occ] or [history]
     in the negotiation refreshes the cells it touches ([refresh_cost]),
     and the arena setters invalidate it. [cost_penalty] is the penalty
     the field was built at, NaN while the field is stale. *)
  mutable cost : iarr;
  mutable cost_penalty : float;
  (* The cells whose [occ] has risen above 0, each once: [occupied.(0 ..
     n_occupied - 1)], with [listed] marking its members. An entry whose
     [occ] fell back to 0 stays until [ensure_cost_field] walks the list
     and drops it, so a penalty change touches only the routed cells. *)
  mutable occupied : int array;
  mutable n_occupied : int;
  listed : Bytes.t;
  (* Canonical-kernel scratch, region-strided:
       r = (x - rx0) + rnx * ((y - ry0) + rny * (z - rz0)).
     Empty until the workspace's first search, which sizes every array at
     the grid's cell count (see [ensure_region_scratch]); revalidated per
     search through [generation]. *)
  mutable rstamp : iarr;      (* generation marker: validates rg/rf/rparent *)
  mutable rg : iarr;          (* g-score *)
  mutable rf : iarr;          (* f at push time; pop staleness check *)
  mutable rparent : iarr;     (* predecessor region index, -1 for sources *)
  mutable rgoal : iarr;       (* generation-stamped goal-set membership *)
  mutable rstart : iarr;      (* generation-stamped start-set membership *)
  dialq : Dialq.t;            (* bucketed open list keyed on f *)
  (* Bidirectional-kernel scratch: the backward frontier mirrors the forward
     one (own g/f/parent/stamp plus a second Dial queue); [rstamp]/[rbstamp]
     double as the meet detector — a cell stamped by both frontiers in the
     same generation closes the search. *)
  mutable rbg : iarr;         (* backward g-score *)
  mutable rbf : iarr;         (* backward f at push time *)
  mutable rbparent : iarr;    (* backward predecessor, -1 for the goal seed *)
  mutable rbstamp : iarr;     (* backward generation marker *)
  dialq_b : Dialq.t;          (* backward open list *)
  (* Reference-kernel scratch: grid-indexed arrays and a comparison heap.
     Exercised only when a caller passes [~kernel:Reference] (the
     differential tests and the [Reference] bench variant), so the arrays
     start empty and are allocated by the first [search_reference] (see
     [ensure_reference_scratch]): five grid-sized arrays per workspace are
     megabytes that every other routing call would carry for nothing. *)
  mutable g_score : int array;
  mutable stamp : int array;
  mutable parent : int array;
  mutable goal_mark : int array;
  mutable start_mark : int array;
  heap : int Binheap.t;
  mutable generation : int;
  mutable n_expansions : int; (* A* nodes expanded, across all searches *)
  mutable n_pushes : int;     (* open-list pushes, across all searches *)
  mutable n_bidir : int;      (* bidirectional searches run *)
}

(* Every scratch array starts empty and is sized by the workspace's own
   first search ([ensure_region_scratch], [ensure_reference_scratch]), so a
   workspace that never searches never pays for it. *)
let workspace grid =
  { grid;
    history = Array.make (Grid.size grid) 0.0;
    occ = Array.make (Grid.size grid) 0;
    cost = iarr_make 0;
    cost_penalty = Float.nan;
    occupied = [||];
    n_occupied = 0;
    listed = Bytes.make (Grid.size grid) '\000';
    rstamp = iarr_make 0;
    rg = iarr_make 0;
    rf = iarr_make 0;
    rparent = iarr_make 0;
    rgoal = iarr_make 0;
    rstart = iarr_make 0;
    dialq = Dialq.create ();
    rbg = iarr_make 0;
    rbf = iarr_make 0;
    rbparent = iarr_make 0;
    rbstamp = iarr_make 0;
    dialq_b = Dialq.create ();
    g_score = [||];
    stamp = [||];
    parent = [||];
    goal_mark = [||];
    start_mark = [||];
    heap = Binheap.create ();
    generation = 0;
    n_expansions = 0;
    n_pushes = 0;
    n_bidir = 0 }

(* A fresh array reads as "stamped by generation 0", and generations only
   count up, so late allocation needs no clearing. *)
let ensure_reference_scratch ws =
  let n = Grid.size ws.grid in
  if Array.length ws.stamp < n then begin
    ws.g_score <- Array.make n 0;
    ws.stamp <- Array.make n 0;
    ws.parent <- Array.make n (-1);
    ws.goal_mark <- Array.make n 0;
    ws.start_mark <- Array.make n 0
  end

(* A clipped region never exceeds the grid, so the first search sizes the
   region scratch at the grid's cell count and no search ever regrows it.
   The stamp arrays start zeroed — "stamped by generation 0", and
   generations only count up — and the rest is only read behind a stamp. *)
let ensure_region_scratch ws =
  if Bigarray.Array1.dim ws.rstamp = 0 then begin
    let n = Grid.size ws.grid in
    ws.rstamp <- iarr_zero n;
    ws.rg <- iarr_make n;
    ws.rf <- iarr_make n;
    ws.rparent <- iarr_make n;
    ws.rgoal <- iarr_zero n;
    ws.rstart <- iarr_zero n;
    ws.rbg <- iarr_make n;
    ws.rbf <- iarr_make n;
    ws.rbparent <- iarr_make n;
    ws.rbstamp <- iarr_zero n
  end

(* The cost model, one cell's field entry: the same expression on the same
   inputs as the reference kernel's step cost (minus its [quantum] base),
   which is why reading the field instead is bit-identical. Needs
   non-negative history and penalty, so that the sign bit is free for the
   blocked flag. *)
let cost_entry ws present_penalty c =
  let e =
    int_of_float
      (float_of_int quantum
      *. (ws.history.(c) +. (present_penalty *. float_of_int ws.occ.(c))))
  in
  if Grid.blocked_c ws.grid c then lnot e else e

(* The surcharge of a field entry, blocked or not: [lnot] undone by xoring
   the sign mask. *)
let surcharge e = e lxor (e asr (Sys.int_size - 1))

(* Cell [c]'s [occ] just became positive: list it, unless it still is. *)
let note_occupied ws c =
  if Bytes.get ws.listed c = '\000' then begin
    Bytes.set ws.listed c '\001';
    if ws.n_occupied = Array.length ws.occupied then begin
      let grown = Array.make (Int.max 64 (2 * ws.n_occupied)) 0 in
      Array.blit ws.occupied 0 grown 0 ws.n_occupied;
      ws.occupied <- grown
    end;
    ws.occupied.(ws.n_occupied) <- c;
    ws.n_occupied <- ws.n_occupied + 1
  end

(* Bring the field to the penalty a search runs at: at most once per
   negotiation pass. A stale (NaN, never equal) field is rebuilt whole. A
   built one moving to a new penalty recomputes only its occupied cells,
   walking the occupied list and dropping the entries whose [occ] is back
   to 0: an entry with [occ = 0] is [trunc (quantum * history)] at every
   penalty. *)
let ensure_cost_field ws present_penalty =
  if not (ws.cost_penalty = present_penalty) then begin
    if not (present_penalty >= 0.0) then
      invalid_arg "Router: present penalty must be non-negative";
    let n = Grid.size ws.grid in
    if Bigarray.Array1.dim ws.cost = 0 then ws.cost <- iarr_make n;
    if ws.cost_penalty = ws.cost_penalty then begin
      let kept = ref 0 in
      for i = 0 to ws.n_occupied - 1 do
        let c = ws.occupied.(i) in
        if ws.occ.(c) > 0 then begin
          ws.cost.{c} <- cost_entry ws present_penalty c;
          ws.occupied.(!kept) <- c;
          incr kept
        end
        else Bytes.set ws.listed c '\000'
      done;
      ws.n_occupied <- !kept
    end
    else
      for c = 0 to n - 1 do
        ws.cost.{c} <- cost_entry ws present_penalty c
      done;
    ws.cost_penalty <- present_penalty
  end

(* Re-derive cell [c]'s entry after its [occ] or [history] changed; a
   stale field is left for the next search to rebuild. *)
let[@tqec.hot] refresh_cost ws c =
  let penalty = ws.cost_penalty in
  if penalty = penalty then ws.cost.{c} <- cost_entry ws penalty c

let invalidate_cost_field ws = ws.cost_penalty <- Float.nan

(* Reference-mode referee for the incremental field updates: a built field
   must equal, cell for cell, a fresh derivation from [history], [occ] and
   the grid at its own penalty, and every occupied cell must be on the
   occupied list the next penalty change walks. Spelled out apart from
   [cost_entry] so a slip in either shows. *)
let audit_cost_field ws =
  let penalty = ws.cost_penalty in
  if penalty = penalty then
    for c = 0 to Grid.size ws.grid - 1 do
      let fresh =
        int_of_float
          (float_of_int quantum
          *. (ws.history.(c) +. (penalty *. float_of_int ws.occ.(c))))
      in
      let want = if Grid.blocked_c ws.grid c then lnot fresh else fresh in
      let got = ws.cost.{c} in
      if ws.occ.(c) > 0 && Bytes.get ws.listed c = '\000' then
        failwith
          (Printf.sprintf "Router: occupied cell %s missing from the occupied list"
             (Point3.to_string (Grid.decode ws.grid c)));
      if got <> want then
        failwith
          (Printf.sprintf
             "Router: step-cost field at cell %s holds %d, recomputed %d"
             (Point3.to_string (Grid.decode ws.grid c))
             got want)
    done

(* History-aware heuristic floor: every step into a region cell costs at
   least [quantum + trunc (quantum * history)], and the present-sharing term
   only adds to that, so the region-wide minimum of the history surcharge is
   an admissible per-step bound for any occupancy. Fabric cells carry zero
   history until congestion builds, so the scan early-exits on the first
   zero-surcharge cell. A region's low-z corner usually lies in the
   soft-boundary halo below the fabric, whose history is never zero, so the
   layers are scanned from the fabric (z >= 0) up and wrap round to the
   halo layers last; the floor is a minimum, so the order cannot change it.
   The scan is O(region) only once the region is genuinely saturated,
   exactly when the sharper bound pays for itself. *)
let region_min_surcharge ws ~nx ~nxy ~rx0 ~ry0 ~rz0 ~rx1 ~ry1 ~rz1 =
  let minc = ref max_int in
  let rnz = rz1 - rz0 in
  let zf = Int.min (rz1 - 1) (Int.max rz0 (-(Grid.origin ws.grid).Point3.z)) in
  (try
     for i = 0 to rnz - 1 do
       let z = rz0 + ((zf - rz0 + i) mod rnz) in
       for y = ry0 to ry1 - 1 do
         let base = (z * nxy) + (y * nx) in
         for x = rx0 to rx1 - 1 do
           let b = int_of_float (float_of_int quantum *. ws.history.(base + x)) in
           if b < !minc then begin
             minc := b;
             if b = 0 then raise Exit
           end
         done
       done
     done
   with Exit -> ());
  if !minc = max_int then 0 else !minc

(* Both kernels search the region clipped to the grid, in grid-local
   integer coordinates. Returns [None] when the clip is empty. *)
let clip_region grid region =
  let nx, ny, nz = Grid.extents grid in
  let o = Grid.origin grid in
  let rlo = region.Cuboid.lo and rhi = region.Cuboid.hi in
  let rx0 = Int.max 0 (rlo.Point3.x - o.Point3.x)
  and ry0 = Int.max 0 (rlo.Point3.y - o.Point3.y)
  and rz0 = Int.max 0 (rlo.Point3.z - o.Point3.z)
  and rx1 = Int.min nx (rhi.Point3.x - o.Point3.x)
  and ry1 = Int.min ny (rhi.Point3.y - o.Point3.y)
  and rz1 = Int.min nz (rhi.Point3.z - o.Point3.z) in
  if rx0 >= rx1 || ry0 >= ry1 || rz0 >= rz1 then None
  else Some (rx0, ry0, rz0, rx1, ry1, rz1)

(* Canonical A* kernel. Open-list order is the documented total order of
   the router: f ascending, push order within equal f (Dialq FIFO buckets).
   The heuristic is [u * manhattan_distance target] with
   [u = (quantum + minc) * 3 / 2] (weighted mode, the router default) or
   [u = quantum + minc] (exact-admissible mode, used by the admissibility
   tests), where [minc] is the history floor above. All hot-loop arithmetic
   is integer: g-scores and marks live in the flat region-strided
   [Bigarray] scratch, a neighbor's traversability and step surcharge are
   one load from the workspace's step-cost field (built or reused by
   [ensure_cost_field] before the loop), and a child's f is derived from
   its parent's h by a ±u increment instead of re-deriving coordinates.

   [target] anchors the heuristic: goal cells other than [target] may be
   reached before the heuristic predicts; that only costs optimality toward
   friend terminals, never correctness. Starts and goals outside the region
   are ignored. *)
let search_dial ws ~max_expansions ~present_penalty ~exact ~region ~starts ~goals
    ~target =
  match clip_region ws.grid region with
  | None -> None
  | Some (rx0, ry0, rz0, rx1, ry1, rz1) ->
      let grid = ws.grid in
      let nx, ny, _ = Grid.extents grid in
      let o = Grid.origin grid in
      let ox = o.Point3.x and oy = o.Point3.y and oz = o.Point3.z in
      ws.generation <- ws.generation + 1;
      let gen = ws.generation in
      let rnx = rx1 - rx0 and rny = ry1 - ry0 and rnz = rz1 - rz0 in
      let rnxy = rnx * rny in
      ensure_region_scratch ws;
      ensure_cost_field ws present_penalty;
      let rstamp = ws.rstamp and rg = ws.rg and rf = ws.rf in
      let rparent = ws.rparent and rgoal = ws.rgoal and rstart = ws.rstart in
      let cost = ws.cost in
      let q = ws.dialq in
      Dialq.clear q;
      let nxy = nx * ny in
      let minc =
        region_min_surcharge ws ~nx ~nxy ~rx0 ~ry0 ~rz0 ~rx1 ~ry1 ~rz1
      in
      let u = if exact then quantum + minc else (quantum + minc) * 3 / 2 in
      let tx = target.Point3.x - ox
      and ty = target.Point3.y - oy
      and tz = target.Point3.z - oz in
      (* Open-list values pack the region index with the region-local
         coordinates — [r lsl 30 | lz lsl 20 | ly lsl 10 | lx] — so a pop
         needs no division to recover coordinates and a neighbor move is a
         single add on the packed word. Region dims are bounded by the
         10-bit fields and the index by the remaining 33 bits; real grids
         sit orders of magnitude below both. *)
      if rnx > 1024 || rny > 1024 || rnz > 1024 then
        invalid_arg "Router: search region exceeds 1024 cells on an axis";
      let ridx_of p =
        let x = p.Point3.x - ox and y = p.Point3.y - oy and z = p.Point3.z - oz in
        if x >= rx0 && x < rx1 && y >= ry0 && y < ry1 && z >= rz0 && z < rz1
        then x - rx0 + (rnx * (y - ry0 + (rny * (z - rz0))))
        else -1
      in
      let pack_of p =
        let lx = p.Point3.x - ox - rx0
        and ly = p.Point3.y - oy - ry0
        and lz = p.Point3.z - oz - rz0 in
        let r = lx + (rnx * (ly + (rny * lz))) in
        (r lsl 30) lor (lz lsl 20) lor (ly lsl 10) lor lx
      in
      List.iter (fun p -> let r = ridx_of p in if r >= 0 then rgoal.{r} <- gen) goals;
      List.iter (fun p -> let r = ridx_of p in if r >= 0 then rstart.{r} <- gen) starts;
      List.iter
        (fun p ->
          let r = ridx_of p in
          if r >= 0 && (rstamp.{r} <> gen || rg.{r} > 0) then begin
            let h =
              u
              * (abs (p.Point3.x - ox - tx)
                 + abs (p.Point3.y - oy - ty)
                 + abs (p.Point3.z - oz - tz))
            in
            rstamp.{r} <- gen;
            rg.{r} <- 0;
            rf.{r} <- h;
            rparent.{r} <- -1;
            ws.n_pushes <- ws.n_pushes + 1;
            Dialq.push q ~key:h (pack_of p)
          end)
        starts;
      (* Relax neighbor [vq] (packed) / [cq] (grid index) of the popped
         region cell [r], whose g-score is [g] and heuristic [h]; [dh] is
         the heuristic's change along the move. Bound once per search, not
         per pop: a closure over the popped cell's values would be rebuilt
         on every expansion.

         Bounds safety: [rq] stays inside the region by the stride checks
         at the call sites, and [cq] tracks [rq] exactly, so the unsafe
         accesses index within the arrays sized by [ensure_region_scratch]
         and the grid-sized step-cost field. The reference kernel runs the same searches through
         fully checked accesses and the differential suite pins the two
         bit-identical. *)
      let[@tqec.hot] step r g h vq cq dh =
        let rq = vq lsr 30 in
        let e = Bigarray.Array1.unsafe_get cost cq in
        if
          e >= 0
          || Bigarray.Array1.unsafe_get rgoal rq = gen
          || Bigarray.Array1.unsafe_get rstart rq = gen
        then begin
          let gq = g + quantum + surcharge e in
          if
            Bigarray.Array1.unsafe_get rstamp rq <> gen
            || Bigarray.Array1.unsafe_get rg rq > gq
          then begin
            let fq = gq + h + dh in
            Bigarray.Array1.unsafe_set rstamp rq gen;
            Bigarray.Array1.unsafe_set rg rq gq;
            Bigarray.Array1.unsafe_set rf rq fq;
            Bigarray.Array1.unsafe_set rparent rq r;
            ws.n_pushes <- ws.n_pushes + 1;
            Dialq.push q ~key:fq vq
          end
        end
      in
      let dx = (1 lsl 30) lor 1
      and dy = (rnx lsl 30) lor (1 lsl 10)
      and dz = (rnxy lsl 30) lor (1 lsl 20) in
      let found = ref (-1) in
      let continue_ = ref true in
      let expansions = ref 0 in
      while !continue_ do
        let v = Dialq.pop_min q in
        if v = min_int then continue_ := false
        else begin
            let f = Dialq.last_key q in
            let r = v lsr 30 in
            (* A strict g improvement re-pushes the cell at a strictly lower
               f, so a popped entry is live iff its key still matches. *)
            if
              Bigarray.Array1.unsafe_get rstamp r = gen
              && f = Bigarray.Array1.unsafe_get rf r
            then begin
              if Bigarray.Array1.unsafe_get rgoal r = gen then begin
                found := r;
                continue_ := false
              end
              else if !expansions >= max_expansions then continue_ := false
              else begin
                incr expansions;
                let g = Bigarray.Array1.unsafe_get rg r in
                let h = f - g in
                let lx = v land 0x3ff in
                let ly = (v lsr 10) land 0x3ff
                and lz = (v lsr 20) land 0x3ff in
                let x = lx + rx0 and y = ly + ry0 and z = lz + rz0 in
                let c = (z * nxy) + (y * nx) + x in
                if lx + 1 < rnx then step r g h (v + dx) (c + 1) (if x >= tx then u else -u);
                if lx > 0 then step r g h (v - dx) (c - 1) (if x <= tx then u else -u);
                if ly + 1 < rny then step r g h (v + dy) (c + nx) (if y >= ty then u else -u);
                if ly > 0 then step r g h (v - dy) (c - nx) (if y <= ty then u else -u);
                if lz + 1 < rnz then step r g h (v + dz) (c + nxy) (if z >= tz then u else -u);
                if lz > 0 then step r g h (v - dz) (c - nxy) (if z <= tz then u else -u)
              end
            end
        end
      done;
      ws.n_expansions <- ws.n_expansions + !expansions;
      if !found < 0 then None
      else begin
        let rec back r acc =
          let lx = r mod rnx in
          let t = r / rnx in
          let p =
            Point3.make (lx + rx0 + ox) ((t mod rny) + ry0 + oy)
              ((t / rny) + rz0 + oz)
          in
          let acc = p :: acc in
          if rparent.{r} < 0 then acc else back rparent.{r} acc
        in
        Some (back !found [])
      end

(* Reference kernel: the PR 6 Binheap search over grid-indexed scratch,
   kept as a structurally independent referee for the canonical kernel
   (different open list, different index space, costs recomputed instead of
   cached). Its open list realizes the same documented total order — f
   ascending, then push order — by keying the max-heap on the composite
   [-(f * 2^21 + seq)]: distinct sequence numbers make every key unique, so
   the heap's arbitrary tie behavior never shows. f stays far below 2^41
   and, at the [max_expansions] budget, pushes (at most 6 per expansion
   plus the seeds) stay far below 2^21, so the packing cannot overflow or
   collide; a whole-grid flood of 2x the grid's cells could pass 2^21 pushes
   on grids above ~170k cells. Byte-identical results to
   [search_dial] on every input are the contract the differential suites
   pin. *)
let seq_bits = 21

let search_reference ws ~max_expansions ~present_penalty ~exact ~region ~starts
    ~goals ~target =
  match clip_region ws.grid region with
  | None -> None
  | Some (rx0, ry0, rz0, rx1, ry1, rz1) ->
      ensure_reference_scratch ws;
      let grid = ws.grid in
      let nx, ny, _ = Grid.extents grid in
      let o = Grid.origin grid in
      let ox = o.Point3.x and oy = o.Point3.y and oz = o.Point3.z in
      ws.generation <- ws.generation + 1;
      let gen = ws.generation in
      let heap = ws.heap in
      Binheap.clear heap;
      let nxy = nx * ny in
      let minc =
        region_min_surcharge ws ~nx ~nxy ~rx0 ~ry0 ~rz0 ~rx1 ~ry1 ~rz1
      in
      let u = if exact then quantum + minc else (quantum + minc) * 3 / 2 in
      let tx = target.Point3.x - ox
      and ty = target.Point3.y - oy
      and tz = target.Point3.z - oz in
      let in_region_local x y z =
        x >= rx0 && x < rx1 && y >= ry0 && y < ry1 && z >= rz0 && z < rz1
      in
      let in_region p =
        in_region_local (p.Point3.x - ox) (p.Point3.y - oy) (p.Point3.z - oz)
      in
      List.iter
        (fun p -> if in_region p then ws.goal_mark.(Grid.encode grid p) <- gen)
        goals;
      List.iter
        (fun p -> if in_region p then ws.start_mark.(Grid.encode grid p) <- gen)
        starts;
      let h_c c =
        let x = c mod nx in
        let r = c / nx in
        u * (abs (x - tx) + abs ((r mod ny) - ty) + abs ((r / ny) - tz))
      in
      let seen c = ws.stamp.(c) = gen in
      let seq = ref 0 in
      let push_c ~from c g =
        if (not (seen c)) || ws.g_score.(c) > g then begin
          ws.stamp.(c) <- gen;
          ws.g_score.(c) <- g;
          ws.parent.(c) <- from;
          ws.n_pushes <- ws.n_pushes + 1;
          Binheap.push heap ~key:(-((((g + h_c c) lsl seq_bits)) + !seq)) c;
          incr seq
        end
      in
      List.iter
        (fun p -> if in_region p then push_c ~from:(-1) (Grid.encode grid p) 0)
        starts;
      let occ = ws.occ in
      let step_cost c =
        let o = float_of_int occ.(c) in
        quantum
        + int_of_float
            (float_of_int quantum *. (ws.history.(c) +. (present_penalty *. o)))
      in
      let traversable c =
        (not (Grid.blocked_c grid c))
        || ws.goal_mark.(c) = gen
        || ws.start_mark.(c) = gen
      in
      let found = ref (-1) in
      let continue_ = ref true in
      let expansions = ref 0 in
      while !continue_ do
        match Binheap.pop heap with
        | None -> continue_ := false
        | Some (neg_key, c) ->
            let f = -neg_key asr seq_bits in
            if seen c && f = ws.g_score.(c) + h_c c then begin
              if ws.goal_mark.(c) = gen then begin
                found := c;
                continue_ := false
              end
              else if !expansions >= max_expansions then continue_ := false
              else begin
                incr expansions;
                let g = ws.g_score.(c) in
                let x = c mod nx in
                let r = c / nx in
                let y = r mod ny and z = r / ny in
                let try_step cq =
                  if traversable cq then push_c ~from:c cq (g + step_cost cq)
                in
                if x + 1 < rx1 then try_step (c + 1);
                if x - 1 >= rx0 then try_step (c - 1);
                if y + 1 < ry1 then try_step (c + nx);
                if y - 1 >= ry0 then try_step (c - nx);
                if z + 1 < rz1 then try_step (c + nxy);
                if z - 1 >= rz0 then try_step (c - nxy)
              end
            end
      done;
      ws.n_expansions <- ws.n_expansions + !expansions;
      if !found < 0 then None
      else begin
        let rec back c acc =
          let acc = Grid.decode grid c :: acc in
          if ws.parent.(c) < 0 then acc else back ws.parent.(c) acc
        in
        Some (back !found [])
      end

(* Bidirectional variant of the Dial kernel: meet-in-the-middle between a
   frontier growing from [start] toward [goal] and one growing from [goal]
   toward [start], each a weighted A* with the history-aware heuristic aimed
   at the opposite terminal. Alternation always advances the frontier whose
   open list holds the smaller minimum f ({!Dialq.peek_key}); the search
   closes when a frontier pops a cell the other frontier has already stamped
   this generation — every stamped cell carries a valid parent chain to its
   seed, so gluing the two chains at the meet cell yields a connected walk
   start..goal whose ends are exact and whose middle is near-optimal (the
   meet cell may be settled in one direction only; corridor repairs trade
   that slack for roughly halved expansion counts). The walk is
   loop-erased before returning, so the result is always a simple path.

   Cost model and traversability are exactly the unidirectional kernel's:
   a step into cell [q] costs [quantum + trunc (quantum * (history q +
   present_penalty * occ q))], blocked cells are enterable only as [start]
   or [goal]. The backward frontier accounts the same model from the other
   side — relaxing neighbor [q] from popped cell [c] charges the cost of
   entering [c], which is what the forward walker pays when it leaves [q]
   through [c] — so both frontiers price any shared walk identically. *)
let search_bidir ws ~max_expansions ~present_penalty ~exact ~region ~start ~goal
    =
  match clip_region ws.grid region with
  | None -> None
  | Some (rx0, ry0, rz0, rx1, ry1, rz1) ->
      let grid = ws.grid in
      let nx, ny, _ = Grid.extents grid in
      let o = Grid.origin grid in
      let ox = o.Point3.x and oy = o.Point3.y and oz = o.Point3.z in
      ws.generation <- ws.generation + 1;
      ws.n_bidir <- ws.n_bidir + 1;
      let gen = ws.generation in
      let rnx = rx1 - rx0 and rny = ry1 - ry0 and rnz = rz1 - rz0 in
      let rnxy = rnx * rny in
      ensure_region_scratch ws;
      if rnx > 1024 || rny > 1024 || rnz > 1024 then
        invalid_arg "Router: search region exceeds 1024 cells on an axis";
      ensure_cost_field ws present_penalty;
      let rstamp = ws.rstamp and rg = ws.rg and rf = ws.rf in
      let rparent = ws.rparent in
      let rbstamp = ws.rbstamp and rbg = ws.rbg and rbf = ws.rbf in
      let rbparent = ws.rbparent in
      let cost = ws.cost in
      let q = ws.dialq and qb = ws.dialq_b in
      Dialq.clear q;
      Dialq.clear qb;
      let nxy = nx * ny in
      let minc =
        region_min_surcharge ws ~nx ~nxy ~rx0 ~ry0 ~rz0 ~rx1 ~ry1 ~rz1
      in
      let u = if exact then quantum + minc else (quantum + minc) * 3 / 2 in
      let ridx_of p =
        let x = p.Point3.x - ox and y = p.Point3.y - oy and z = p.Point3.z - oz in
        if x >= rx0 && x < rx1 && y >= ry0 && y < ry1 && z >= rz0 && z < rz1
        then x - rx0 + (rnx * (y - ry0 + (rny * (z - rz0))))
        else -1
      in
      let pack_of p =
        let lx = p.Point3.x - ox - rx0
        and ly = p.Point3.y - oy - ry0
        and lz = p.Point3.z - oz - rz0 in
        let r = lx + (rnx * (ly + (rny * lz))) in
        (r lsl 30) lor (lz lsl 20) lor (ly lsl 10) lor lx
      in
      let sr = ridx_of start and gr = ridx_of goal in
      if sr < 0 || gr < 0 then None
      else if sr = gr then Some [ start ]
      else begin
        (* Terminal coordinates, region-local: heuristic anchors and the
           blocked-cell exceptions (the unidirectional kernel's rstart/rgoal
           marks degenerate to two indices here). *)
        let sx = start.Point3.x - ox - rx0
        and sy = start.Point3.y - oy - ry0
        and sz = start.Point3.z - oz - rz0 in
        let gx = goal.Point3.x - ox - rx0
        and gy = goal.Point3.y - oy - ry0
        and gz = goal.Point3.z - oz - rz0 in
        let dist = abs (sx - gx) + abs (sy - gy) + abs (sz - gz) in
        rstamp.{sr} <- gen;
        rg.{sr} <- 0;
        rf.{sr} <- u * dist;
        rparent.{sr} <- -1;
        Dialq.push q ~key:(u * dist) (pack_of start);
        rbstamp.{gr} <- gen;
        rbg.{gr} <- 0;
        rbf.{gr} <- u * dist;
        rbparent.{gr} <- -1;
        Dialq.push qb ~key:(u * dist) (pack_of goal);
        ws.n_pushes <- ws.n_pushes + 2;
        (* One relaxation per frontier, bound once per search like the
           unidirectional kernel's [step]: the popped cell's [r], [g] and
           [h] (and the backward frontier's [step_out]) are arguments. *)
        let[@tqec.hot] step_f r g h vq cq dh =
          let rq = vq lsr 30 in
          let e = Bigarray.Array1.unsafe_get cost cq in
          if e >= 0 || rq = sr || rq = gr then begin
            let gq = g + quantum + surcharge e in
            if
              Bigarray.Array1.unsafe_get rstamp rq <> gen
              || Bigarray.Array1.unsafe_get rg rq > gq
            then begin
              let fq = gq + h + dh in
              Bigarray.Array1.unsafe_set rstamp rq gen;
              Bigarray.Array1.unsafe_set rg rq gq;
              Bigarray.Array1.unsafe_set rf rq fq;
              Bigarray.Array1.unsafe_set rparent rq r;
              ws.n_pushes <- ws.n_pushes + 1;
              Dialq.push q ~key:fq vq
            end
          end
        in
        let[@tqec.hot] step_b r g h step_out vq cq dh =
          let rq = vq lsr 30 in
          if Bigarray.Array1.unsafe_get cost cq >= 0 || rq = sr || rq = gr
          then begin
            let gq = g + step_out in
            if
              Bigarray.Array1.unsafe_get rbstamp rq <> gen
              || Bigarray.Array1.unsafe_get rbg rq > gq
            then begin
              let fq = gq + h + dh in
              Bigarray.Array1.unsafe_set rbstamp rq gen;
              Bigarray.Array1.unsafe_set rbg rq gq;
              Bigarray.Array1.unsafe_set rbf rq fq;
              Bigarray.Array1.unsafe_set rbparent rq r;
              ws.n_pushes <- ws.n_pushes + 1;
              Dialq.push qb ~key:fq vq
            end
          end
        in
        let dx = (1 lsl 30) lor 1
        and dy = (rnx lsl 30) lor (1 lsl 10)
        and dz = (rnxy lsl 30) lor (1 lsl 20) in
        let found = ref (-1) in
        let continue_ = ref true in
        let expansions = ref 0 in
        while !continue_ do
          let kf = Dialq.peek_key q and kb = Dialq.peek_key qb in
          if kf = max_int && kb = max_int then continue_ := false
          else begin
            let fwd = kf <= kb in
            let qd = if fwd then q else qb in
            let v = Dialq.pop_min qd in
            let f = Dialq.last_key qd in
            let r = v lsr 30 in
            let live =
              if fwd then
                Bigarray.Array1.unsafe_get rstamp r = gen
                && f = Bigarray.Array1.unsafe_get rf r
              else
                Bigarray.Array1.unsafe_get rbstamp r = gen
                && f = Bigarray.Array1.unsafe_get rbf r
            in
            if live then begin
              let met =
                if fwd then Bigarray.Array1.unsafe_get rbstamp r = gen
                else Bigarray.Array1.unsafe_get rstamp r = gen
              in
              if met then begin
                found := r;
                continue_ := false
              end
              else if !expansions >= max_expansions then continue_ := false
              else begin
                incr expansions;
                let lx = v land 0x3ff in
                let ly = (v lsr 10) land 0x3ff
                and lz = (v lsr 20) land 0x3ff in
                let x = lx + rx0 and y = ly + ry0 and z = lz + rz0 in
                let c = (z * nxy) + (y * nx) + x in
                if fwd then begin
                  let g = Bigarray.Array1.unsafe_get rg r in
                  let h = f - g in
                  if lx + 1 < rnx then step_f r g h (v + dx) (c + 1) (if lx >= gx then u else -u);
                  if lx > 0 then step_f r g h (v - dx) (c - 1) (if lx <= gx then u else -u);
                  if ly + 1 < rny then step_f r g h (v + dy) (c + nx) (if ly >= gy then u else -u);
                  if ly > 0 then step_f r g h (v - dy) (c - nx) (if ly <= gy then u else -u);
                  if lz + 1 < rnz then step_f r g h (v + dz) (c + nxy) (if lz >= gz then u else -u);
                  if lz > 0 then step_f r g h (v - dz) (c - nxy) (if lz <= gz then u else -u)
                end
                else begin
                  let g = Bigarray.Array1.unsafe_get rbg r in
                  let h = f - g in
                  (* The forward walker leaving a neighbor through this cell
                     pays for entering it: one surcharge per pop, shared by
                     all six relaxations. *)
                  let step_out =
                    quantum + surcharge (Bigarray.Array1.unsafe_get cost c)
                  in
                  if lx + 1 < rnx then
                    step_b r g h step_out (v + dx) (c + 1) (if lx >= sx then u else -u);
                  if lx > 0 then
                    step_b r g h step_out (v - dx) (c - 1) (if lx <= sx then u else -u);
                  if ly + 1 < rny then
                    step_b r g h step_out (v + dy) (c + nx) (if ly >= sy then u else -u);
                  if ly > 0 then
                    step_b r g h step_out (v - dy) (c - nx) (if ly <= sy then u else -u);
                  if lz + 1 < rnz then
                    step_b r g h step_out (v + dz) (c + nxy) (if lz >= sz then u else -u);
                  if lz > 0 then
                    step_b r g h step_out (v - dz) (c - nxy) (if lz <= sz then u else -u)
                end
              end
            end
          end
        done;
        ws.n_expansions <- ws.n_expansions + !expansions;
        if !found < 0 then None
        else begin
          let decode_r r =
            let lx = r mod rnx in
            let t = r / rnx in
            Point3.make (lx + rx0 + ox) ((t mod rny) + ry0 + oy)
              ((t / rny) + rz0 + oz)
          in
          let rec back r acc =
            let acc = decode_r r :: acc in
            if rparent.{r} < 0 then acc else back rparent.{r} acc
          in
          let rec tail r acc =
            if r < 0 then acc else tail rbparent.{r} (decode_r r :: acc)
          in
          let walk = back !found [] @ List.rev (tail rbparent.{!found} []) in
          (* The two chains are individually simple but may cross each other;
             loop-erase so the result commits as a simple path without
             re-checking. Truncating back to the first visit of a repeated
             cell keeps contiguity: the survivor is the repeated cell
             itself, adjacent to the next walk cell. *)
          let seen = Hashtbl.create 64 in
          let kept = ref [] in
          let len = ref 0 in
          List.iter
            (fun p ->
              let cp = Grid.encode grid p in
              match Hashtbl.find_opt seen cp with
              | Some k ->
                  while !len > k + 1 do
                    (match !kept with
                    | pk :: tl ->
                        Hashtbl.remove seen (Grid.encode grid pk);
                        kept := tl;
                        decr len
                    | [] -> assert false)
                  done
              | None ->
                  Hashtbl.add seen cp !len;
                  kept := p :: !kept;
                  incr len)
            walk;
          Some (List.rev !kept)
        end
      end

(* The two kernels implement the same total order over the same cost model,
   so the choice can never change routed paths, volumes or artifact bytes —
   which is why it is an argument and not a config field feeding the stage
   cache key. *)
let search_kernel = function Dial -> search_dial | Reference -> search_reference

(* ------------------------------------------------------------------ *)

type state = {
  ws : workspace;
  base : Grid.t;                            (* modules only *)
  cell_owner : (int, int list) Hashtbl.t;   (* encoded cell -> net ids *)
  committed : (int, routed_net) Hashtbl.t;  (* net id -> routed *)
  ends : (int, Point3.t * Point3.t) Hashtbl.t;
      (* net id -> cached path endpoints; avoids O(path) List.nth scans in
         the uncommit cascade and conflict arbitration *)
  pin_nets : (int, int list) Hashtbl.t;     (* pin -> nets using it *)
}

let rec path_last = function
  | [ p ] -> p
  | _ :: tl -> path_last tl
  | [] -> invalid_arg "Router.path_last: empty path"

let commit st rn =
  Hashtbl.replace st.committed rn.net.Bridge.net_id rn;
  Hashtbl.replace st.ends rn.net.Bridge.net_id (List.hd rn.path, path_last rn.path);
  List.iter
    (fun p ->
      let c = Grid.encode st.ws.grid p in
      let owners = Option.value ~default:[] (Hashtbl.find_opt st.cell_owner c) in
      Hashtbl.replace st.cell_owner c (rn.net.Bridge.net_id :: owners);
      st.ws.occ.(c) <- st.ws.occ.(c) + 1;
      if st.ws.occ.(c) = 1 then note_occupied st.ws c;
      refresh_cost st.ws c)
    rn.path

(* Rip a net up. Nets whose friend terminal rests on the victim's path would
   be left dangling, so they cascade (bounded by the committed-net count). *)
let rec uncommit st net_id ~requeue =
  match Hashtbl.find_opt st.committed net_id with
  | None -> ()
  | Some rn ->
      Hashtbl.remove st.committed net_id;
      Hashtbl.remove st.ends net_id;
      requeue rn.net;
      let dependents = ref [] in
      List.iter
        (fun p ->
          let c = Grid.encode st.ws.grid p in
          let owners =
            List.filter (( <> ) net_id)
              (Option.value ~default:[] (Hashtbl.find_opt st.cell_owner c))
          in
          if owners = [] then Hashtbl.remove st.cell_owner c
          else Hashtbl.replace st.cell_owner c owners;
          st.ws.occ.(c) <- st.ws.occ.(c) - 1;
          refresh_cost st.ws c;
          (* Another net ending exactly here used this path as its friend
             terminal: it must be re-routed too. *)
          List.iter
            (fun other ->
              match Hashtbl.find_opt st.ends other with
              | Some (first, last) ->
                  if Point3.equal p first || Point3.equal p last then
                    dependents := other :: !dependents
              | None -> ())
            owners)
        rn.path;
      List.iter (fun other -> uncommit st other ~requeue) !dependents

(* Cells on committed friend paths that may serve as alternative terminals
   for [pin]. *)
let friend_cells st ~config ~region pin =
  if not config.friend_aware then []
  else
    match Hashtbl.find_opt st.pin_nets pin with
    | None -> []
    | Some net_ids ->
        List.concat_map
          (fun id ->
            match Hashtbl.find_opt st.committed id with
            | None -> []
            | Some rn -> List.filter (Cuboid.contains_point region) rn.path)
          net_ids

(* Grid, workspace and bookkeeping shared by [route] and the benchmark
   hook: blocked module bodies, soft-boundary history surcharges,
   pin->nets map and pre-charged pin mouths. *)
let init_state ?(restrict_regions = true) ?(kernel = Dial) config placement nets =
  let modular = placement.Place25d.cluster.Tqec_place.Cluster.modular in
  let d, w, h = placement.Place25d.dims in
  let halo = config.region_margin + 2 in
  let lo = Point3.make (-halo) (-halo) (-halo) in
  let hi = Point3.make (d + halo) (w + halo) (h + halo + sky) in
  let base = Grid.create ~lo ~hi in
  Array.iter
    (fun (md : Modular.module_) ->
      Grid.block_box base (Place25d.module_box placement md.Modular.module_id))
    modular.Modular.modules;
  let ws = workspace base in
  (* Soft boundary: cells outside the placed bounding box start with a
     history surcharge, so detours through the halo or the sky are taken
     only when the fabric is genuinely congested — they grow the space-time
     volume. The first two layers above the fabric form a cheaper
     over-the-top routing plane. *)
  let nx, ny, _ = Grid.extents base in
  for z = lo.Point3.z to hi.Point3.z - 1 do
    for y = lo.Point3.y to hi.Point3.y - 1 do
      for x = lo.Point3.x to hi.Point3.x - 1 do
        let in_footprint = x >= 0 && x < d && y >= 0 && y < w in
        if not (in_footprint && z >= 0 && z < h) then begin
          let c =
            ((((z - lo.Point3.z) * ny) + y - lo.Point3.y) * nx) + x - lo.Point3.x
          in
          if in_footprint && z >= h && z < h + 2 then ws.history.(c) <- 0.5
          else ws.history.(c) <- 2.5
        end
      done
    done
  done;
  let st =
    { ws;
      base;
      cell_owner = Hashtbl.create 1024;
      committed = Hashtbl.create 256;
      ends = Hashtbl.create 256;
      pin_nets = Hashtbl.create 256 }
  in
  List.iter
    (fun n ->
      let add pin =
        let cur = Option.value ~default:[] (Hashtbl.find_opt st.pin_nets pin) in
        Hashtbl.replace st.pin_nets pin (n.Bridge.net_id :: cur)
      in
      add n.Bridge.pin_a;
      add n.Bridge.pin_b)
    nets;
  let pin_pos = Place25d.pin_position placement in
  (* Pin mouths — the few free cells next to each pin — are choke points no
     foreign net should squat on. Pre-charge them so other nets detour, and
     remember which net each mouth belongs to for conflict arbitration. *)
  let mouth_owner : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  (Hashtbl.iter
     (fun pin net_ids ->
       let pos = pin_pos pin in
       List.iter
         (fun q ->
           if Grid.in_bounds base q && not (Grid.blocked base q) then begin
             let c = Grid.encode base q in
             ws.history.(c) <- ws.history.(c) +. 2.0;
             let cur = Option.value ~default:[] (Hashtbl.find_opt mouth_owner c) in
             Hashtbl.replace mouth_owner c (net_ids @ cur)
           end)
         (Point3.neighbors pos))
     st.pin_nets)
  [@tqec.allow
    "hashtbl-unsorted: order-insensitive — every mouth cell takes the same \
     +2.0 surcharge (exact float addition, commutative) and mouth_owner \
     lists are only ever queried for membership, never in order"];
  let grid_box = Cuboid.make lo hi in
  (* Restricted search regions (paper §III-D): the pin bounding box plus a
     margin, grown on failure by the attempt loop. [restrict_regions] is the
     differential test hook — the fuzz property routes once with regions and
     once against the whole grid and pins the results equal. *)
  let region_of ~extra n =
    if not restrict_regions then grid_box
    else begin
      let pa = pin_pos n.Bridge.pin_a and pb = pin_pos n.Bridge.pin_b in
      let box =
        Cuboid.inflate
          (Cuboid.union
             (Cuboid.of_origin_size pa ~w:1 ~h:1 ~d:1)
             (Cuboid.of_origin_size pb ~w:1 ~h:1 ~d:1))
          (config.region_margin + extra)
      in
      match Cuboid.intersect box grid_box with Some r -> r | None -> grid_box
    end
  in
  let search = search_kernel kernel in
  let attempt ?(max_expansions = max_expansions) ?focus
      ?(bidir = false) ~extra ~present_penalty n =
    let pa = pin_pos n.Bridge.pin_a and pb = pin_pos n.Bridge.pin_b in
    let region =
      (* [focus] localizes region growth: instead of inflating the whole
         pin bounding box for a repeatedly ripped net, the caller passes
         the inflated neighbourhood of the net's latest conflict window
         and the search widens only there. *)
      let base = region_of ~extra n in
      match focus with
      | None -> base
      | Some box -> (
          match Cuboid.intersect (Cuboid.union base box) grid_box with
          | Some r -> r
          | None -> base)
    in
    let starts = pa :: friend_cells st ~config ~region n.Bridge.pin_a in
    let goals = pb :: friend_cells st ~config ~region n.Bridge.pin_b in
    let result =
      match (starts, goals) with
      | [ start ], [ goal ] when bidir ->
          (* First-pass searches on the lightly occupied grid take the
             meet-in-the-middle kernel when the net has two lone terminals
             (no friend cells yet). In congested later passes the two
             frontiers struggle to meet and unidirectional search with the
             history-aware heuristic wins, so [bidir] is only requested for
             pass 1. *)
          search_bidir ws ~max_expansions ~present_penalty ~exact:false ~region
            ~start ~goal
      | _ ->
          search ws ~max_expansions ~present_penalty ~exact:false ~region ~starts
            ~goals ~target:pb
    in
    match result with Some path -> Some { net = n; path } | None -> None
  in
  (st, mouth_owner, pin_pos, region_of, attempt)

(* [?pool] is accepted and ignored: routing is one sequential negotiation
   loop (see router.mli). *)
let route ?(trace = Trace.noop) ?pool:_ ?restrict_regions ?(kernel = Dial)
    config placement nets =
  let st, mouth_owner, pin_pos, region_of, attempt =
    init_state ?restrict_regions ~kernel config placement nets
  in
  let ws = st.ws in
  let modular = placement.Place25d.cluster.Tqec_place.Cluster.modular in
  let net_len n = Point3.manhattan (pin_pos n.Bridge.pin_a) (pin_pos n.Bridge.pin_b) in
  let sorted = List.stable_sort (fun a b -> Int.compare (net_len a) (net_len b)) nets in
  (* Conflict detection: a cell shared by two or more nets is legal only when
     at most one of them crosses it as path interior — the others must
     terminate there (friend-net terminals). Returns the younger interior
     owners to rip up, keeping the earliest-committed net in place. *)
  let commit_seq = Hashtbl.create 256 in
  let seq = ref 0 in
  (* Consecutive passes each net has lost arbitration. Age-based keep alone
     can starve a net forever: when every near-alternative corridor is
     blocked by one interior cell of a distinct older net, the newcomer is
     ripped each pass while the blockers — never victims themselves — keep
     permanent right-of-way, and the history the loser deposits just cycles
     it around the same blocked set. A net that has been ripped
     [starvation_threshold] passes in a row therefore wins arbitration over
     age, forcing a blocker to re-route through its own grown history. *)
  let rip_streak = Hashtbl.create 16 in
  let streak id = Option.value ~default:0 (Hashtbl.find_opt rip_streak id) in
  let starvation_threshold = 3 in
  (* Nets whose committed path came from a whole-grid search. Such a path
     was the product of the single most expensive search the schedule can
     buy; ripping it invites the net to re-flood the grid on its next turn
     (measured: one net re-ran four whole-grid floods across consecutive
     passes, each ~100-300k expansions). Arbitration therefore prefers to
     keep these nets — below pin mouths (immovable) but above age — so the
     flood is paid for once. *)
  let lastrite_won : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let conflicted_nets record =
    let victims = Hashtbl.create 16 in
    (Hashtbl.iter
      (fun cell owners ->
        if List.length owners >= 2 then begin
          let interior =
            List.filter
              (fun id ->
                match Hashtbl.find_opt st.ends id with
                | None -> false
                | Some (first, last) ->
                    let p = Grid.decode st.ws.grid cell in
                    not (Point3.equal p first || Point3.equal p last))
              owners
          in
          match interior with
          | [] | [ _ ] -> ()
          | _ ->
              st.ws.history.(cell) <- st.ws.history.(cell) +. history_increment;
              refresh_cost st.ws cell;
              (* Keep the net that cannot go anywhere else: one whose own pin
                 mouth this cell is; otherwise the earliest-committed. *)
              let mouth_ids =
                Option.value ~default:[] (Hashtbl.find_opt mouth_owner cell)
              in
              let keep =
                match List.filter (fun id -> List.mem id mouth_ids) interior with
                | k :: _ -> Some k
                | [] -> (
                  match
                    List.filter (fun id -> Hashtbl.mem lastrite_won id) interior
                  with
                  | [ k ] -> Some k
                  | ks -> (
                    (* Several whole-grid survivors on one cell: the earliest
                       committed keeps its flood's worth. *)
                    match
                      List.fold_left
                        (fun best id ->
                          let s = Hashtbl.find commit_seq id in
                          match best with
                          | Some (bs, _) when bs <= s -> best
                          | _ -> Some (s, id))
                        None ks
                    with
                    | Some (_, k) -> Some k
                    | None ->
                    (* Highest rip streak at or past the starvation threshold
                       wins; ties and the unstarved case fall back to the
                       earliest-committed net. *)
                    let starved =
                      List.fold_left
                        (fun best id ->
                          let s = streak id in
                          match best with
                          | Some (bs, bid)
                            when bs > s
                                 || (bs = s
                                     && Hashtbl.find commit_seq bid
                                        <= Hashtbl.find commit_seq id) ->
                              best
                          | _ -> Some (s, id))
                        None interior
                    in
                    (match starved with
                    | Some (s, id) when s >= starvation_threshold -> Some id
                    | _ ->
                        List.fold_left
                          (fun best id ->
                            let s = Hashtbl.find commit_seq id in
                            match best with
                            | Some (bs, _) when bs <= s -> best
                            | _ -> Some (s, id))
                          None interior
                        |> Option.map snd)))
              in
              let kept id = match keep with Some k -> k = id | None -> false in
              List.iter
                (fun id ->
                  if not (kept id) then begin
                    Hashtbl.replace victims id ();
                    record id cell
                  end)
                interior
        end)
      st.cell_owner)
    [@tqec.allow
      "hashtbl-unsorted: order-insensitive — each cell's arbitration looks \
       only at that cell's owners, history increments add the same constant \
       (commutative), recorded conflict cells fold into per-victim bounding \
       boxes (union is commutative and associative), and the victim list \
       order is pinned separately below"];
    (* The victim SET is fixed before any rip-up and is order-independent
       (per-cell arbitration; cascades are idempotent). The LIST order below
       feeds the next pass's stable sort as its tie-break, so it is pinned
       to the fold order the committed volume baseline (BENCH_pr23.json,
       4gt4-v0_73 at 148512 under the canonical open-list order) was taken
       under: sorting here (List.sort Int.compare) shifts tie-breaks and
       moves the committed volumes. Re-baseline before changing. *)
    (Hashtbl.fold (fun id () acc -> id :: acc) victims [])
    [@tqec.allow
      "hashtbl-unsorted: the victim set is order-independent and the list \
       order is the tie-break contract pinned by BENCH_pr23.json; sorting it \
       changes routing tie-breaks and the committed volume baseline"]
  in
  let first_iter_count = ref 0 in
  let iterations_used = ref 0 in
  let pending = ref sorted in
  let extra = Hashtbl.create 64 in
  let get_extra n = Option.value ~default:0 (Hashtbl.find_opt extra n.Bridge.net_id) in
  (* Consecutive search failures (no path found / budget exhausted), cleared
     on commit. A net with a live fail streak is exempt from the adaptive
     pass budget below: capping it again could starve it forever, and its
     grown region means the search is paid in full either way. *)
  let fail_streak : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let get_fail_streak id = Option.value ~default:0 (Hashtbl.find_opt fail_streak id) in
  (* Bounding box of the cells each direct arbitration victim lost on in
     the previous pass, filled by the [record] callback of the end-of-pass
     [conflicted_nets] before any rip-up. Cascade-ripped dependents lost
     their friend terminal, not a path segment, and have no entry. *)
  let conflict_box : (int, Cuboid.t) Hashtbl.t = Hashtbl.create 16 in
  (* Streak-scaled focus box for a ripped net's re-search: the latest
     conflict window's bounding box, inflated one region step per rip on the
     current streak (capped at three steps). First rips stay local; repeat
     offenders get room exactly where the fight is, instead of a blanket
     inflation of the whole pin bounding box. *)
  let focus_of n =
    let s = streak n.Bridge.net_id in
    if s < 2 then None
    else
      Option.map
        (fun box ->
          Cuboid.inflate box
            (config.region_margin + (region_expand * Int.min 3 s)))
        (Hashtbl.find_opt conflict_box n.Bridge.net_id)
  in
  let iter = ref 0 in
  let total_ripped = ref 0 in
  let abandoned = ref [] in
  let grid_cells = Cuboid.volume (Grid.box st.ws.grid) in
  while !pending <> [] && !iter < config.max_iterations do
    incr iter;
    iterations_used := !iter;
    (* Span labels only exist when tracing is live: the sprintf otherwise
       allocated a fresh label per pass just to hand it to the noop sink. *)
    let pass_span =
      if Trace.enabled trace then Trace.span trace (Printf.sprintf "pass_%d" !iter)
      else Trace.noop
    in
    let attempted = List.length !pending in
    let exp_before = ws.n_expansions in
    (* Present-sharing penalty doubles each pass (PathFinder schedule), up
       to 24. *)
    let present_penalty =
      let doubled = 2.0 ** float_of_int (!iter + 1) in
      if 24.0 <= doubled then 24.0 else doubled
    in
    (* Adaptive per-net expansion budget, tightening with the penalty
       schedule — but only for nets that burned a full budget without
       finding a path last pass. A healthy net keeps the full budget:
       truncating a search that would have succeeded converts it into a
       failure, a region doubling, and an even larger search next pass. A
       net that just search-failed, by contrast, is flooding a
       neighbourhood it has already proven exhausted; its doubled region
       is retried at the decaying budget, and by the time the present
       penalty has saturated such searches are nearly pure waste (floor: a
       sixteenth of [max_expansions] — failing nets keep growing
       their region and retrying until the give-up rule below parks
       them). *)
    let pass_budget =
      if !iter <= 3 then max_expansions
      else
        Int.max (max_expansions / 16)
          (max_expansions lsr (!iter - 3))
    in
    let last_rite (n : Bridge.net) =
      region_of ~extra:(get_extra n) n = Grid.box st.ws.grid
    in
    let net_budget (n : Bridge.net) =
      if last_rite n && get_fail_streak n.Bridge.net_id < 2 then
        (* A whole-grid search at a fail streak of 0 or 1 gets at least 2x
           the grid's cells (absorbing weighted-A* re-expansions), so on a
           grid larger than [max_expansions] it can visit every reachable
           cell; on smaller grids this is the ordinary budget. It is the
           only exhaustive budget: a net whose region first spans the whole
           grid at a streak of 2 or more gets the decaying [pass_budget],
           and the give-up rule below parks it if that truncated search
           fails. *)
        Int.max max_expansions (2 * grid_cells)
      else if get_fail_streak n.Bridge.net_id >= 1 then pass_budget
      else max_expansions
    in
    let unrouted = ref [] in
    let on_committed n rn =
      commit st rn;
      if last_rite n then Hashtbl.replace lastrite_won n.Bridge.net_id ();
      Hashtbl.remove fail_streak n.Bridge.net_id;
      Hashtbl.replace commit_seq n.Bridge.net_id !seq;
      incr seq
    in
    let on_failed n =
      (* The region the search that just failed actually covered — the
         give-up decision below must judge that search, not the grown one
         scheduled next. *)
      let failed_region = region_of ~extra:(get_extra n) n in
      (* Geometric region growth: a failed search over a region is paid
         in full, so take big steps toward the whole grid. *)
      Hashtbl.replace extra n.Bridge.net_id
        (Int.max region_expand (2 * get_extra n));
      let s = get_fail_streak n.Bridge.net_id + 1 in
      Hashtbl.replace fail_streak n.Bridge.net_id s;
      (* Give-up rule: a net whose failed search covered the whole grid is
         parked among the failures so it does not re-flood the grid every
         remaining pass. This is a budget verdict, not a proof: the search
         often ran at a truncated [pass_budget] (on rd84_142 at fast effort,
         every parked net did), so a parked net may be routable. (Failed
         nets never commit, so parking one perturbs no other net's costs.) *)
      if failed_region = Grid.box st.ws.grid then
        abandoned := n :: !abandoned
      else unrouted := n :: !unrouted
    in
    List.iter
      (fun n ->
        match
          attempt ~max_expansions:(net_budget n) ?focus:(focus_of n)
            ~bidir:(!iter = 1) ~extra:(get_extra n) ~present_penalty n
        with
        | Some rn -> on_committed n rn
        | None -> on_failed n)
      !pending;
    let ripped = ref [] in
    Hashtbl.reset conflict_box;
    let record id cell =
      let c = Cuboid.of_origin_size (Grid.decode st.ws.grid cell) ~w:1 ~h:1 ~d:1 in
      Hashtbl.replace conflict_box id
        (match Hashtbl.find_opt conflict_box id with
        | None -> c
        | Some b -> Cuboid.union b c)
    in
    let victims = conflicted_nets record in
    List.iter
      (fun id -> uncommit st id ~requeue:(fun net -> ripped := net :: !ripped))
      victims;
    (* Every commit, rip-up and history bump of the pass has refreshed the
       step-cost field; the reference kernel checks each cell of it. *)
    (match kernel with Reference -> audit_cost_field ws | Dial -> ());
    (* A ripped net must look for a detour next time: grow its region too,
       or it keeps finding the same conflicting corridor. The step scales
       with the net's current rip streak — first and second rips stay
       local, a net ripped on a streak gets a triple step: its re-search
       needs room for a genuine detour. *)
    List.iter
      (fun (net : Bridge.net) ->
        let g =
          region_expand
          * (if streak net.Bridge.net_id >= 2 then 2 else 1)
        in
        Hashtbl.replace extra net.Bridge.net_id (get_extra net + g))
      !ripped;
    (* Starvation accounting: losing arbitration extends a net's streak; a
       net that routed and survived the pass resets. Search-failed nets keep
       their streak untouched — region growth, not escalation, is their
       remedy. *)
    List.iter
      (fun (net : Bridge.net) ->
        Hashtbl.replace rip_streak net.Bridge.net_id (streak net.Bridge.net_id + 1))
      !ripped;
    List.iter
      (fun (n : Bridge.net) ->
        let id = n.Bridge.net_id in
        let among l = List.exists (fun (m : Bridge.net) -> m.Bridge.net_id = id) l in
        if not (among !ripped) && not (among !unrouted) then
          Hashtbl.remove rip_streak id)
      !pending;
    if !iter = 1 then
      first_iter_count :=
        List.length nets - List.length !unrouted - List.length !ripped;
    total_ripped := !total_ripped + List.length !ripped;
    if Trace.enabled pass_span then begin
      Trace.incr ~n:attempted pass_span "attempted";
      Trace.incr ~n:(attempted - List.length !unrouted) pass_span "routed";
      Trace.incr ~n:(List.length !unrouted) pass_span "unrouted";
      Trace.incr ~n:(List.length !ripped) pass_span "ripped";
      Trace.incr ~n:(ws.n_expansions - exp_before) pass_span "expansions"
    end;
    Trace.close pass_span;
    let next = List.rev_append !unrouted !ripped in
    (* Next-pass order, pinned tie-breaks outermost first: direct
       arbitration victims route before everything else (a net re-routing
       around its conflict window should reclaim a corridor before
       search-failed nets flood it), then
       most-starved (largest region growth), ties shortest-first, and the
       residual order is the stable-sort input order — unrouted in reverse
       attempt order, then the pinned conflicted_nets fold order. *)
    pending :=
      List.stable_sort
        (fun a b ->
          let sp (n : Bridge.net) =
            if Hashtbl.mem conflict_box n.Bridge.net_id then 0 else 1
          in
          let c = Int.compare (sp a) (sp b) in
          if c <> 0 then c
          else
            let c = Int.compare (get_extra b) (get_extra a) in
            if c <> 0 then c else Int.compare (net_len a) (net_len b))
        next
  done;
  (* The committed layout is overlap-free here, even when the pass cap cut
     the negotiation short: every pass ends by ripping each arbitration
     victim, which leaves at most one interior owner per cell, and a rip-up
     only removes owners. (With no pass run, nothing was committed.) *)
  let failed =
    List.sort_uniq
      (fun a b -> Int.compare a.Bridge.net_id b.Bridge.net_id)
      (!pending @ !abandoned)
  in
  let routed =
    Hashtbl.fold (fun _ rn acc -> rn :: acc) st.committed []
    |> List.sort (fun a b -> Int.compare a.net.Bridge.net_id b.net.Bridge.net_id)
  in
  (* Final bounding box: modules plus every routed cell. The cells fold
     into integer bounds, so the box of the routes is built once. *)
  let bbox = ref None in
  let extend box =
    bbox := Some (match !bbox with None -> box | Some b -> Cuboid.union b box)
  in
  Array.iter
    (fun (md : Modular.module_) ->
      extend (Place25d.module_box placement md.Modular.module_id))
    modular.Modular.modules;
  let x0 = ref max_int and y0 = ref max_int and z0 = ref max_int in
  let x1 = ref min_int and y1 = ref min_int and z1 = ref min_int in
  List.iter
    (fun rn ->
      List.iter
        (fun (p : Point3.t) ->
          x0 := Int.min !x0 p.x;
          y0 := Int.min !y0 p.y;
          z0 := Int.min !z0 p.z;
          x1 := Int.max !x1 p.x;
          y1 := Int.max !y1 p.y;
          z1 := Int.max !z1 p.z)
        rn.path)
    routed;
  if !x0 <= !x1 then
    extend
      (Cuboid.make (Point3.make !x0 !y0 !z0) (Point3.make (!x1 + 1) (!y1 + 1) (!z1 + 1)));
  let dims, volume =
    match !bbox with
    | None -> ((0, 0, 0), 0)
    | Some b ->
        let bd, bw, bh = Cuboid.dims b in
        ((bd, bw, bh), bd * bw * bh)
  in
  if Trace.enabled trace then begin
    Trace.incr ~n:ws.n_expansions trace "astar_expansions";
    Trace.incr ~n:ws.n_pushes trace "heap_pushes";
    Trace.incr ~n:ws.n_bidir trace "bidir_searches";
    Trace.incr ~n:!iterations_used trace "ripup_passes";
    Trace.incr ~n:!total_ripped trace "nets_ripped";
    Trace.incr ~n:(List.length !abandoned) trace "nets_parked";
    Trace.incr ~n:(List.length !pending) trace "nets_pending";
    Trace.incr ~n:(List.length routed) trace "nets_routed";
    Trace.incr ~n:(List.length failed) trace "nets_failed";
    Trace.incr ~n:!first_iter_count trace "routed_first_pass"
  end;
  { routed;
    failed;
    dims;
    volume;
    iterations_used = !iterations_used;
    routed_first_iteration = !first_iter_count }

let routed_segments r =
  List.map (fun rn -> (rn.net.Bridge.net_id, rn.path)) r.routed

(* Benchmark hook: one repeatable A* search over the real routing grid.
   Targets the longest net (the costliest single search) on an empty
   occupancy grid; nothing is ever committed, so every call does identical
   work. *)
let astar_bench ?kernel config placement nets =
  match nets with
  | [] -> invalid_arg "Router.astar_bench: no nets"
  | _ ->
      let st, _mouth_owner, pin_pos, _region_of, attempt =
        init_state ?kernel config placement nets
      in
      let net_len n =
        Point3.manhattan (pin_pos n.Bridge.pin_a) (pin_pos n.Bridge.pin_b)
      in
      let longest =
        List.fold_left
          (fun best n -> if net_len n > net_len best then n else best)
          (List.hd nets) nets
      in
      let expansions () = st.ws.n_expansions in
      let search () = ignore (attempt ~extra:0 ~present_penalty:2.0 longest) in
      (search, expansions)

(* ------------------------------------------------------------------ *)
(* Low-level search arena for the differential kernel tests.            *)
(* ------------------------------------------------------------------ *)

module Search = struct
  type nonrec kernel = kernel = Dial | Reference

  type t = workspace

  let make ~lo ~hi = workspace (Grid.create ~lo ~hi)

  (* The setters write the cost inputs behind the negotiation's back, so
     each one invalidates the step-cost field. *)
  let block t p =
    Grid.block_box t.grid (Cuboid.of_origin_size p ~w:1 ~h:1 ~d:1);
    invalidate_cost_field t

  let set_history t p v =
    if not (v >= 0.0) then invalid_arg "Router.Search.set_history: negative";
    t.history.(Grid.encode t.grid p) <- v;
    invalidate_cost_field t

  let set_occ t p n =
    if n < 0 then invalid_arg "Router.Search.set_occ: negative";
    let c = Grid.encode t.grid p in
    t.occ.(c) <- n;
    if n > 0 then note_occupied t c;
    invalidate_cost_field t

  let expansions t = t.n_expansions

  let pushes t = t.n_pushes

  let run ?(kernel = Dial) ?(exact = false) ?(max_expansions = max_expansions)
      ?(present_penalty = 2.0) t ~region ~starts ~goals ~target =
    search_kernel kernel t ~max_expansions ~present_penalty ~exact ~region
      ~starts ~goals ~target

  let run_bidir ?(exact = false) ?(max_expansions = max_expansions)
      ?(present_penalty = 2.0) t ~region ~start ~goal =
    search_bidir t ~max_expansions ~present_penalty ~exact ~region ~start ~goal

  let bidir_searches t = t.n_bidir

  let heuristic ?(exact = false) t ~region ~target p =
    match clip_region t.grid region with
    | None -> 0
    | Some (rx0, ry0, rz0, rx1, ry1, rz1) ->
        let nx, ny, _ = Grid.extents t.grid in
        let minc =
          region_min_surcharge t ~nx ~nxy:(nx * ny) ~rx0 ~ry0 ~rz0 ~rx1 ~ry1
            ~rz1
        in
        let u = if exact then quantum + minc else (quantum + minc) * 3 / 2 in
        u * Point3.manhattan p target

  (* Exhaustive ground truth for the admissibility tests: cheapest cost of
     walking from each region cell to [target] under the kernels' cost model
     (a step into cell [c] costs [quantum + trunc (quantum * (history c +
     present_penalty * occ c))]; only unblocked cells and [target] itself may
     be entered). Implemented as a backward Dijkstra from [target]: popping a
     cell with distance d relaxes each region neighbor to d plus the cost of
     entering the popped cell, so the final distance of [p] is exactly the
     forward cost of the cheapest p -> target walk. *)
  let true_costs ?(present_penalty = 2.0) t ~region ~target =
    let grid = t.grid in
    match clip_region grid region with
    | None -> fun _ -> None
    | Some (rx0, ry0, rz0, rx1, ry1, rz1) ->
        let nx, ny, _ = Grid.extents grid in
        let nxy = nx * ny in
        let dist = Array.make (Grid.size grid) max_int in
        let step_cost c =
          quantum
          + int_of_float
              (float_of_int quantum
              *. (t.history.(c) +. (present_penalty *. float_of_int t.occ.(c))))
        in
        let tc = Grid.encode grid target in
        let heap = Binheap.create () in
        let enterable c = (not (Grid.blocked_c grid c)) || c = tc in
        if Cuboid.contains_point region target then begin
          dist.(tc) <- 0;
          Binheap.push heap ~key:0 tc;
          let continue_ = ref true in
          while !continue_ do
            match Binheap.pop heap with
            | None -> continue_ := false
            | Some (neg_d, c) ->
                if -neg_d = dist.(c) then begin
                  let through = -neg_d + step_cost c in
                  let x = c mod nx in
                  let r = c / nx in
                  let y = r mod ny and z = r / ny in
                  let relax cq =
                    if dist.(cq) > through then begin
                      dist.(cq) <- through;
                      Binheap.push heap ~key:(-through) cq
                    end
                  in
                  let try_relax ok cq = if ok && enterable c then relax cq in
                  try_relax (x + 1 < rx1) (c + 1);
                  try_relax (x - 1 >= rx0) (c - 1);
                  try_relax (y + 1 < ry1) (c + nx);
                  try_relax (y - 1 >= ry0) (c - nx);
                  try_relax (z + 1 < rz1) (c + nxy);
                  try_relax (z - 1 >= rz0) (c - nxy)
                end
          done
        end;
        fun p ->
          if not (Cuboid.contains_point region p) then None
          else
            let d = dist.(Grid.encode grid p) in
            if d = max_int then None else Some d
end

module Pset = Set.Make (Point3)

let validate placement result =
  let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt in
  let pin_pos = Place25d.pin_position placement in
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
        if Point3.manhattan a b <> 1 then false else contiguous rest
    | [ _ ] | [] -> true
  in
  (* Single traversal per path: cell multiplicities and the (first, last)
     endpoint pair of every net, computed once and reused by both passes. *)
  let use_count : (Point3.t, int) Hashtbl.t = Hashtbl.create 1024 in
  let endpoints = ref Pset.empty in
  let net_ends =
    List.map
      (fun rn ->
        List.iter
          (fun p ->
            let c = Option.value ~default:0 (Hashtbl.find_opt use_count p) in
            Hashtbl.replace use_count p (c + 1))
          rn.path;
        match rn.path with
        | [] -> (rn, None)
        | first :: _ ->
            let last = path_last rn.path in
            endpoints := Pset.add first (Pset.add last !endpoints);
            (rn, Some (first, last)))
      result.routed
  in
  let rec check_all = function
    | [] -> Ok ()
    | (rn, ends) :: rest -> (
        match ends with
        | None -> err "net %d has an empty path" rn.net.Bridge.net_id
        | Some (first, last) ->
            if not (contiguous rn.path) then
              err "net %d path is not axis-connected" rn.net.Bridge.net_id
            else begin
              let pa = pin_pos rn.net.Bridge.pin_a
              and pb = pin_pos rn.net.Bridge.pin_b in
              (* Each endpoint is either one of the net's own pins or a friend
                 terminal, i.e. a cell also used by another routed net. *)
              let endpoint_valid p =
                Point3.equal p pa || Point3.equal p pb
                || Option.value ~default:0 (Hashtbl.find_opt use_count p) >= 2
              in
              if not (endpoint_valid first && endpoint_valid last) then
                err "net %d has an endpoint that is neither pin nor friend cell"
                  rn.net.Bridge.net_id
              else check_all rest
            end)
  in
  match check_all net_ends with
  | Error _ as e -> e
  | Ok () ->
      (* A cell used by two nets must be an endpoint (friend terminal). All
         offenders are collected and the spatially smallest reported, so the
         error message never depends on hash-table iteration order. *)
      let bad =
        Hashtbl.fold
          (fun p n acc ->
            if n > 1 && not (Pset.mem p !endpoints) then p :: acc else acc)
          use_count []
        |> List.sort Point3.compare
      in
      (match bad with
       | p :: _ -> err "cell %s shared by several net interiors" (Point3.to_string p)
       | [] -> Ok ())
