type 'a entry = { key : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let is_empty t = t.len = 0
let size t = t.len
let clear t = t.len <- 0

let grow t entry =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = Int.max 8 (2 * cap) in
    let ndata = Array.make ncap entry in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.data.(parent).key < t.data.(i).key then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(i);
      t.data.(i) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.len && t.data.(l).key > t.data.(!largest).key then largest := l;
  if r < t.len && t.data.(r).key > t.data.(!largest).key then largest := r;
  if !largest <> i then begin
    let tmp = t.data.(!largest) in
    t.data.(!largest) <- t.data.(i);
    t.data.(i) <- tmp;
    sift_down t !largest
  end

let push t ~key value =
  let entry = { key; value } in
  grow t entry;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t = if t.len = 0 then None else Some (t.data.(0).key, t.data.(0).value)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end
