module Modular = Tqec_modular.Modular
module Binheap = Tqec_prelude.Binheap
module Trace = Tqec_obs.Trace

type net = { net_id : int; pin_a : int; pin_b : int; loop : int }

type structure = { structure_id : int; loops : int list }

type chain_view = { chain_pins : int list; chain_loops : int list }

type result = {
  modular : Modular.t;
  structures : structure list;
  nets : net list;
  merges : int;
  attempts : int;
  dead_pins : bool array;
  chains : chain_view list;
}

(* ------------------------------------------------------------------ *)
(* Chain store                                                         *)
(* ------------------------------------------------------------------ *)

type chain = {
  cid : int;
  mutable pins : int list;    (* ordered pin sequence *)
  mutable owners : int list;  (* loops whose reconstruction uses this chain *)
  mutable alive : bool;
}

type state = {
  m : Modular.t;
  mutable chain_list : chain list;   (* all chains ever created, reversed *)
  mutable chain_count : int;
  pin_chain : chain option array;    (* pin -> its alive chain *)
  dead : bool array;                 (* pins absorbed by merges *)
  loop_chains : chain list array;    (* loop -> chains owned (may contain dead) *)
  module_loops : int list array;     (* module -> penetrating loops *)
}

let new_chain st pins owners =
  let c = { cid = st.chain_count; pins; owners; alive = true } in
  st.chain_count <- st.chain_count + 1;
  st.chain_list <- c :: st.chain_list;
  List.iter (fun p -> st.pin_chain.(p) <- Some c) pins;
  List.iter (fun l -> st.loop_chains.(l) <- c :: st.loop_chains.(l)) owners;
  c

let kill_chain st c =
  c.alive <- false;
  List.iter (fun p -> st.pin_chain.(p) <- None) c.pins

let alive_chains_of_loop st l =
  List.filter (fun c -> c.alive) st.loop_chains.(l)
  |> List.sort_uniq (fun a b -> Int.compare a.cid b.cid)

let init_state m =
  let num_pins = Array.length m.Modular.pins in
  let num_loops = Array.length m.Modular.loops in
  let num_modules = Modular.num_modules m in
  let st =
    { m;
      chain_list = [];
      chain_count = 0;
      pin_chain = Array.make num_pins None;
      dead = Array.make num_pins false;
      loop_chains = Array.make num_loops [];
      module_loops = Array.make num_modules [] }
  in
  Array.iter
    (fun l ->
      List.iter
        (fun p ->
          st.module_loops.(p.Modular.pmodule) <-
            l.Modular.loop_id :: st.module_loops.(p.Modular.pmodule);
          ignore (new_chain st [ p.Modular.pin_a; p.Modular.pin_b ] [ l.Modular.loop_id ]))
        l.Modular.penetrations)
    m.Modular.loops;
  Array.iteri (fun i ls -> st.module_loops.(i) <- List.rev ls) st.module_loops;
  st

(* ------------------------------------------------------------------ *)
(* Bridge graph and path search                                        *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

let endpoints c =
  let rec last_of p = function [] -> p | q :: tl -> last_of q tl in
  match c.pins with
  | [] -> None
  | [ p ] -> Some (p, p)
  | p :: rest -> Some (p, last_of p rest)

(* The local bridge graph around the critical vertices: vertices are the
   b-side pins of the common modules plus the endpoints of chains reachable
   within one loop hop; edges follow the paper's two construction rules. *)
type graph = {
  vertices : Int_set.t;
  adj : (int, Int_set.t) Hashtbl.t;
  critical : Int_set.t;
}

let add_edge g u v =
  if u <> v then begin
    let get k = Option.value ~default:Int_set.empty (Hashtbl.find_opt g.adj k) in
    Hashtbl.replace g.adj u (Int_set.add v (get u));
    Hashtbl.replace g.adj v (Int_set.add u (get v))
  end

let build_graph st ~b_loops ~critical_pins =
  (* Neighborhood: chains holding critical pins, every loop of [b] owning
     such a chain, and all chains of those loops. Conservative restriction —
     failing to find a longer-range path only skips a merge. *)
  let seed_chains =
    List.filter_map (fun p -> st.pin_chain.(p)) critical_pins
    |> List.sort_uniq (fun a b -> Int.compare a.cid b.cid)
  in
  let hop_loops =
    List.concat_map (fun c -> c.owners) seed_chains
    |> List.filter (fun l -> Hashtbl.mem b_loops l)
    |> List.sort_uniq Int.compare
  in
  let region_chains =
    List.concat_map (fun l -> alive_chains_of_loop st l) hop_loops
    |> List.append seed_chains
    |> List.sort_uniq (fun a b -> Int.compare a.cid b.cid)
  in
  let crit_set = Int_set.of_list critical_pins in
  (* Vertices: critical pins + endpoints of region chains shared by >= 2
     loops (common endpoint pins of chains belonging to different loops). *)
  let vertices = ref crit_set in
  List.iter
    (fun c ->
      if List.length c.owners >= 2 then
        match endpoints c with
        | Some (a, b) -> vertices := Int_set.add a (Int_set.add b !vertices)
        | None -> ())
    region_chains;
  let g = { vertices = !vertices; adj = Hashtbl.create 32; critical = crit_set } in
  (* Rule (b): consecutive chain pins, both vertices. *)
  List.iter
    (fun c ->
      let rec scan = function
        | a :: (b :: _ as rest) ->
            if Int_set.mem a g.vertices && Int_set.mem b g.vertices then add_edge g a b;
            scan rest
        | [ _ ] | [] -> ()
      in
      scan c.pins)
    region_chains;
  (* Rule (a): endpoints of different chains within the same loop of b. *)
  List.iter
    (fun l ->
      let cs = alive_chains_of_loop st l in
      let ends =
        List.filter_map
          (fun c ->
            match endpoints c with
            | Some (a, b) -> Some (c.cid, a, b)
            | None -> None)
          cs
      in
      let rec pairs = function
        | (cid1, a1, b1) :: rest ->
            List.iter
              (fun (cid2, a2, b2) ->
                if cid1 <> cid2 then begin
                  let link u v =
                    if Int_set.mem u g.vertices && Int_set.mem v g.vertices then add_edge g u v
                  in
                  link a1 a2; link a1 b2; link b1 a2; link b1 b2
                end)
              rest;
            pairs rest
        | [] -> ()
      in
      pairs ends)
    hop_loops;
  g

(* Search a path visiting each common module's pin pair consecutively, in
   the given module order, entering each module at either pin. Between
   modules the path may traverse non-critical vertices only. Returns the
   vertex sequence. *)
let find_path st g ~order ~module_rep =
  ignore st;
  let neighbor u = Option.value ~default:Int_set.empty (Hashtbl.find_opt g.adj u) in
  (* BFS from [src] to [dst] avoiding [used] and critical intermediates. *)
  let connect src dst used =
    if src = dst then Some []
    else begin
      let q = Queue.create () in
      let pred = Hashtbl.create 16 in
      Queue.push src q;
      let found = ref false in
      while (not !found) && not (Queue.is_empty q) do
        let u = Queue.pop q in
        Int_set.iter
          (fun v ->
            if not !found then
              if v = dst then begin
                Hashtbl.replace pred v u;
                found := true
              end
              else if
                (not (Hashtbl.mem pred v))
                && (not (Int_set.mem v used))
                && not (Int_set.mem v g.critical)
              then begin
                Hashtbl.replace pred v u;
                Queue.push v q
              end)
          (neighbor u)
      done;
      if not !found then None
      else begin
        (* Reconstruct dst's predecessors, excluding src, including dst. *)
        let rec back v acc = if v = src then acc else back (Hashtbl.find pred v) (v :: acc) in
        Some (back dst [])
      end
    end
  in
  let rec go modules current used acc =
    match modules with
    | [] -> Some (List.rev acc)
    | m :: rest ->
        let pa, pb = module_rep m in
        let try_enter entry exit_ =
          match current with
          | None ->
              if Int_set.mem entry used then None
              else
                go rest (Some exit_)
                  (Int_set.add entry (Int_set.add exit_ used))
                  (exit_ :: entry :: acc)
          | Some cur -> (
              match connect cur entry used with
              | None -> None
              | Some via ->
                  if List.exists (fun v -> Int_set.mem v used) via then None
                  else begin
                    let used =
                      List.fold_left (fun s v -> Int_set.add v s) used (entry :: exit_ :: via)
                    in
                    go rest (Some exit_) used (exit_ :: List.rev_append (List.rev via) acc)
                  end)
        in
        (* The two pins of a module segment are chain-adjacent, so entering
           at one and leaving at the other is always a graph edge; try both
           orientations. *)
        (match try_enter pa pb with Some p -> Some p | None -> try_enter pb pa)
  in
  go order None Int_set.empty []

let permutations lst =
  let rec insert_all x = function
    | [] -> [ [ x ] ]
    | y :: ys as l -> (x :: l) :: List.map (fun r -> y :: r) (insert_all x ys)
  in
  List.fold_left (fun acc x -> List.concat_map (insert_all x) acc) [ [] ] lst

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

(* Given the path, merge every chain it touches into one shared chain whose
   owners gain [le]. Chains are concatenated whole, oriented so that the
   junction endpoints meet, in path order. *)
let apply_merge st ~le path =
  let chain_of p =
    match st.pin_chain.(p) with
    | Some c -> c
    | None -> invalid_arg "bridge: path pin has no chain"
  in
  (* Ordered unique chains along the path, with entry pin for each. *)
  let chains_in_order =
    List.fold_left
      (fun acc p ->
        let c = chain_of p in
        match acc with
        | (c', _) :: _ when c'.cid = c.cid -> acc
        | _ -> (c, p) :: acc)
      [] path
    |> List.rev
  in
  match chains_in_order with
  | [] -> ()
  | [ (only, _) ] ->
      (* Single chain: the common segment already lies inside it; just share
         ownership with [le]. *)
      if not (List.mem le only.owners) then begin
        only.owners <- le :: only.owners;
        st.loop_chains.(le) <- only :: st.loop_chains.(le)
      end
  | first :: rest ->
      let orient_for_junction c entry ~entry_first =
        (* Orient chain so [entry] is at the required end. *)
        match c.pins with
        | [] -> []
        | p :: _ ->
            if entry_first then if p = entry then c.pins else List.rev c.pins
            else if p = entry then List.rev c.pins
            else c.pins
      in
      (* First chain: its *exit* endpoint is the junction to the second
         chain, i.e. the entry pin of chain 2 links to the end of chain 1.
         We orient chain 1 so its last pin is the one adjacent to chain 2's
         entry in the path. *)
      let pins = ref [] and owners = ref [ le ] in
      let all = first :: rest in
      List.iteri
        (fun i (c, entry) ->
          let oriented =
            if i = 0 then begin
              (* exit pin = last path vertex belonging to this chain *)
              let exit_ =
                List.fold_left (fun acc p -> if (chain_of p).cid = c.cid then p else acc)
                  entry path
              in
              orient_for_junction c exit_ ~entry_first:false
            end
            else orient_for_junction c entry ~entry_first:true
          in
          pins := !pins @ oriented;
          owners := c.owners @ !owners)
        all;
      let owners = List.sort_uniq Int.compare !owners in
      List.iter (fun (c, _) -> kill_chain st c) all;
      ignore (new_chain st !pins owners)

(* Attempt to merge loop [le] into the bridge structure described by
   [b_loops] / [b_mod_rep]. On success, update all state. *)
let try_merge st ~b_loops ~b_mod_rep ~le =
  let pens = st.m.Modular.loops.(le).Modular.penetrations in
  let common = List.filter (fun p -> Hashtbl.mem b_mod_rep p.Modular.pmodule) pens in
  if common = [] then false
  else begin
    let common_modules = List.map (fun p -> p.Modular.pmodule) common in
    let module_rep m = Hashtbl.find b_mod_rep m in
    let critical_pins =
      List.concat_map
        (fun m ->
          let a, b = module_rep m in
          [ a; b ])
        common_modules
    in
    let g = build_graph st ~b_loops ~critical_pins in
    let orders =
      if List.length common_modules <= 4 then permutations common_modules
      else [ common_modules; List.rev common_modules ]
    in
    let path =
      List.fold_left
        (fun acc order ->
          match acc with
          | Some _ -> acc
          | None -> find_path st g ~order ~module_rep)
        None orders
    in
    match path with
    | None -> false
    | Some path ->
        apply_merge st ~le path;
        (* Retire le's own segments in common modules: the merged segment
           replaces them. *)
        List.iter
          (fun p ->
            (match st.pin_chain.(p.Modular.pin_a) with
             | Some c -> kill_chain st c
             | None -> ());
            st.dead.(p.Modular.pin_a) <- true;
            st.dead.(p.Modular.pin_b) <- true)
          common;
        (* Register le's exclusive modules in the structure. *)
        List.iter
          (fun p ->
            if not (Hashtbl.mem b_mod_rep p.Modular.pmodule) then
              Hashtbl.replace b_mod_rep p.Modular.pmodule (p.Modular.pin_a, p.Modular.pin_b))
          pens;
        Hashtbl.replace b_loops le ();
        true
  end

(* ------------------------------------------------------------------ *)
(* Net generation                                                      *)
(* ------------------------------------------------------------------ *)

let generate_nets st =
  let net_count = ref 0 in
  let seen = Hashtbl.create 256 in
  let nets = ref [] in
  let emit loop pa pb =
    if pa <> pb then begin
      let key = (Int.min pa pb, Int.max pa pb) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let id = !net_count in
        incr net_count;
        nets := { net_id = id; pin_a = pa; pin_b = pb; loop } :: !nets
      end
    end
  in
  Array.iter
    (fun l ->
      let loop = l.Modular.loop_id in
      let cs = alive_chains_of_loop st loop in
      let ends = List.filter_map endpoints cs in
      match ends with
      | [] -> ()
      | [ (a, b) ] -> emit loop a b
      | first :: _ ->
          (* Connect chains cyclically: end of each to start of the next. *)
          let rec connect = function
            | (_, b1) :: ((a2, _) :: _ as rest) ->
                emit loop b1 a2;
                connect rest
            | [ (_, blast) ] ->
                let afirst, _ = first in
                emit loop blast afirst
            | [] -> ()
          in
          connect ends)
    st.m.Modular.loops;
  List.rev !nets

(* ------------------------------------------------------------------ *)
(* Algorithm 1                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(trace = Trace.noop) m =
  let st = init_state m in
  let num_loops = Array.length m.Modular.loops in
  let processed = Array.make num_loops false in
  let structures = ref [] and structure_count = ref 0 in
  let merges = ref 0 and attempts = ref 0 in
  let common_count ~b_mod_rep le =
    List.fold_left
      (fun acc p -> if Hashtbl.mem b_mod_rep p.Modular.pmodule then acc + 1 else acc)
      0
      st.m.Modular.loops.(le).Modular.penetrations
  in
  for li = 0 to num_loops - 1 do
    if not processed.(li) then begin
      (* Start a new bridge structure from loop li. *)
      processed.(li) <- true;
      let b_loops = Hashtbl.create 16 in
      Hashtbl.replace b_loops li ();
      let b_mod_rep = Hashtbl.create 16 in
      List.iter
        (fun p ->
          Hashtbl.replace b_mod_rep p.Modular.pmodule (p.Modular.pin_a, p.Modular.pin_b))
        m.Modular.loops.(li).Modular.penetrations;
      let q = Binheap.create () in
      let failed = Hashtbl.create 16 in
      let enqueued = Hashtbl.create 16 in
      let push_relatives seed =
        List.iter
          (fun p ->
            List.iter
              (fun l ->
                if (not processed.(l)) && (not (Hashtbl.mem failed l))
                   && not (Hashtbl.mem enqueued l) then begin
                  Hashtbl.replace enqueued l ();
                  Binheap.push q ~key:(common_count ~b_mod_rep l) l
                end)
              st.module_loops.(p.Modular.pmodule))
          m.Modular.loops.(seed).Modular.penetrations
      in
      push_relatives li;
      let rec drain () =
        match Binheap.pop q with
        | None -> ()
        | Some (key, le) ->
            if processed.(le) || Hashtbl.mem failed le then drain ()
            else begin
              let current = common_count ~b_mod_rep le in
              if current > key then begin
                (* Stale (key grew since push): re-insert with fresh key. *)
                Binheap.push q ~key:current le;
                drain ()
              end
              else begin
                incr attempts;
                if try_merge st ~b_loops ~b_mod_rep ~le then begin
                  incr merges;
                  processed.(le) <- true;
                  Hashtbl.remove enqueued le;
                  push_relatives le
                end
                else Hashtbl.replace failed le ();
                drain ()
              end
            end
      in
      drain ();
      let loops = Hashtbl.fold (fun l () acc -> l :: acc) b_loops [] |> List.sort Int.compare in
      structures := { structure_id = !structure_count; loops } :: !structures;
      incr structure_count
    end
  done;
  let nets = generate_nets st in
  let chains =
    List.rev_map
      (fun c ->
        if c.alive then Some { chain_pins = c.pins; chain_loops = c.owners } else None)
      st.chain_list
    |> List.filter_map (fun x -> x)
  in
  if Trace.enabled trace then begin
    (* A merge attempt succeeds exactly when the bridge-graph path search
       proves the loop reconstructable after merging; a rejection is a failed
       reconstructability check. *)
    Trace.incr ~n:!attempts trace "merge_attempts";
    Trace.incr ~n:!merges trace "merges";
    Trace.incr ~n:(!attempts - !merges) trace "merge_rejected";
    Trace.incr ~n:!structure_count trace "structures";
    Trace.incr ~n:(List.length nets) trace "nets_generated";
    Trace.incr ~n:(List.length chains) trace "chains_alive"
  end;
  { modular = m;
    structures = List.rev !structures;
    nets;
    merges = !merges;
    attempts = !attempts;
    dead_pins = st.dead;
    chains }

let naive_nets m =
  let net_count = ref 0 in
  let nets = ref [] in
  Array.iter
    (fun l ->
      let pens = Array.of_list l.Modular.penetrations in
      let k = Array.length pens in
      for i = 0 to k - 1 do
        let cur = pens.(i) and next = pens.((i + 1) mod k) in
        let id = !net_count in
        incr net_count;
        nets :=
          { net_id = id; pin_a = cur.Modular.pin_b; pin_b = next.Modular.pin_a;
            loop = l.Modular.loop_id }
          :: !nets
      done)
    m.Modular.loops;
  List.rev !nets

let nets_of_loop r l = List.filter (fun n -> n.loop = l) r.nets

let structure_of_loop r l =
  List.find_opt (fun s -> List.mem l s.loops) r.structures
  |> Option.map (fun s -> s.structure_id)

let chains_of_loop r l =
  List.filter (fun c -> List.mem l c.chain_loops) r.chains

let friend_groups nets =
  let by_pin = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let add p =
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_pin p) in
        Hashtbl.replace by_pin p (n.net_id :: cur)
      in
      add n.pin_a;
      add n.pin_b)
    nets;
  Hashtbl.fold
    (fun pin ids acc -> if List.length ids >= 2 then (pin, List.rev ids) :: acc else acc)
    by_pin []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let validate r =
  let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt in
  let dup = Hashtbl.create 64 in
  let rec check_nets = function
    | [] -> Ok ()
    | n :: rest ->
        if r.dead_pins.(n.pin_a) || r.dead_pins.(n.pin_b) then
          err "net %d ends on a dead pin" n.net_id
        else begin
          let key = (Int.min n.pin_a n.pin_b, Int.max n.pin_a n.pin_b) in
          if Hashtbl.mem dup key then err "duplicate net %d" n.net_id
          else begin
            Hashtbl.replace dup key ();
            check_nets rest
          end
        end
  in
  match check_nets r.nets with
  | Error _ as e -> e
  | Ok () ->
      (* Every loop is covered by at least one chain. *)
      let covered = Array.make (Array.length r.modular.Modular.loops) false in
      List.iter
        (fun cv -> List.iter (fun l -> covered.(l) <- true) cv.chain_loops)
        r.chains;
      if Array.for_all (fun b -> b) covered then Ok ()
      else err "some loop lost all its chains"
