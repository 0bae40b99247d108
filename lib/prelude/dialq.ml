(* Dial's bucketed priority queue, specialized to int values.

   One growable FIFO bucket per key; [cur] is the scan finger: every live
   entry has key >= cur, so a pop scans forward from [cur] to the first
   non-empty bucket. Pushing a key below [cur] moves the finger back — the
   weighted-A* client pushes keys that dip below the last popped f-value, so
   the classic monotone-Dial precondition is relaxed to "keys stay small
   integers" only. [clear] bumps a generation stamp instead of touching the
   buckets; a stale bucket reads as empty and is reset lazily on its first
   push of the new generation. *)

type bucket = {
  mutable data : int array;
  mutable len : int;  (* entries written this generation *)
  mutable head : int; (* entries already popped this generation *)
  mutable stamp : int;
}

type t = {
  mutable buckets : bucket array;
  mutable cur : int; (* no live key below this *)
  mutable hi : int;  (* no live key above this *)
  mutable len : int; (* live entries across all buckets *)
  mutable generation : int;
  mutable last : int; (* key of the most recent pop, for [last_key] *)
}

let fresh_bucket () = { data = [||]; len = 0; head = 0; stamp = 0 }

let create () =
  { buckets = [||]; cur = 0; hi = 0; len = 0; generation = 1; last = min_int }

let is_empty t = t.len = 0

let size t = t.len

let[@tqec.hot] clear t =
  t.generation <- t.generation + 1;
  t.cur <- 0;
  t.hi <- 0;
  t.len <- 0;
  (* A cleared queue is indistinguishable from a fresh one: a client reading
     [last_key] between generations (the bidirectional kernel interleaves two
     queues) must see the pre-first-pop sentinel, not a stale key. *)
  t.last <- min_int

let[@tqec.allow
     "hot-path-alloc: bucket-array doubling is amortized O(1) per push and \
      absent once the queue reaches steady-state capacity"] ensure_key t key =
  let cap = Array.length t.buckets in
  if key >= cap then begin
    let ncap = Int.max (key + 1) (Int.max 16 (2 * cap)) in
    let nbuckets =
      Array.init ncap (fun i -> if i < cap then t.buckets.(i) else fresh_bucket ())
    in
    t.buckets <- nbuckets
  end

let[@tqec.hot] push t ~key v =
  if key < 0 then invalid_arg "Dialq.push: negative key";
  ensure_key t key;
  let b = t.buckets.(key) in
  if b.stamp <> t.generation then begin
    b.stamp <- t.generation;
    b.len <- 0;
    b.head <- 0
  end;
  let cap = Array.length b.data in
  if b.len = cap then
    begin
      let ndata = Array.make (Int.max 8 (2 * cap)) 0 in
      Array.blit b.data 0 ndata 0 b.len;
      b.data <- ndata
    end [@tqec.allow
          "hot-path-alloc: per-bucket FIFO doubling is amortized O(1) per \
           push"];
  Array.unsafe_set b.data b.len v;
  b.len <- b.len + 1;
  if t.len = 0 then begin
    t.cur <- key;
    t.hi <- key
  end
  else begin
    if key < t.cur then t.cur <- key;
    if key > t.hi then t.hi <- key
  end;
  t.len <- t.len + 1

let live t b = b.stamp = t.generation && b.head < b.len

let[@tqec.hot] pop_min t =
  if t.len = 0 then min_int
  else begin
    (* t.len > 0 guarantees a live bucket in [cur, hi], and hi < capacity,
       so the scan cannot run off the array. The finger advances in place:
       a local ref here would be one minor allocation per pop. *)
    while not (live t (Array.unsafe_get t.buckets t.cur)) do
      t.cur <- t.cur + 1
    done;
    let b = Array.unsafe_get t.buckets t.cur in
    let v = Array.unsafe_get b.data b.head in
    b.head <- b.head + 1;
    t.len <- t.len - 1;
    t.last <- t.cur;
    v
  end

let last_key t = t.last

let pop t = if t.len = 0 then None else let v = pop_min t in Some (t.last, v)

let peek t =
  if t.len = 0 then None
  else begin
    let k = ref t.cur in
    while not (live t t.buckets.(!k)) do incr k done;
    t.cur <- !k;
    let b = t.buckets.(!k) in
    Some (!k, b.data.(b.head))
  end

let[@tqec.hot] peek_key t =
  if t.len = 0 then max_int
  else begin
    while not (live t (Array.unsafe_get t.buckets t.cur)) do
      t.cur <- t.cur + 1
    done;
    t.cur
  end
