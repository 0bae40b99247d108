module Point3 = Tqec_geom.Point3
module Cuboid = Tqec_geom.Cuboid
module Rtree = Tqec_rtree.Rtree
module Union_find = Tqec_prelude.Union_find
module Modular = Tqec_modular.Modular
module Bridge = Tqec_bridge.Bridge
module Cluster = Tqec_place.Cluster
module Place25d = Tqec_place.Place25d
module Router = Tqec_route.Router

type input = {
  modular : Modular.t;
  placement : Place25d.placement;
  routing : Router.result;
  nets : Bridge.net list;
  bridge : Bridge.result option;
}

type report = (string * (unit, string) Stdlib.result) list

let check_names =
  [ "module-overlap";
    "path-geometry";
    "path-sharing";
    "net-connectivity";
    "time-ordering";
    "bridge-reconstruction" ]

let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt

let cell_box p = Cuboid.of_origin_size p ~w:1 ~h:1 ~d:1

let rec last = function
  | [ x ] -> x
  | _ :: tl -> last tl
  | [] -> invalid_arg "Verify.last: empty list"

(* ------------------------------------------------------------------ *)
(* module-overlap: R-tree insertion with a pre-insert overlap query.   *)
(* ------------------------------------------------------------------ *)

let check_module_overlap input =
  let tree = Rtree.create () in
  let rec go = function
    | [] -> Ok ()
    | (m, box) :: rest -> (
        match Rtree.search tree box with
        | (_, m') :: _ ->
            err "modules %d and %d overlap at %s" m' m (Cuboid.to_string box)
        | [] ->
            Rtree.insert tree box m;
            go rest)
  in
  go (Place25d.module_boxes input.placement)

(* ------------------------------------------------------------------ *)
(* path-geometry: contiguity, no self-intersection, module clearance.  *)
(* ------------------------------------------------------------------ *)

let check_path_geometry input =
  let boxes = Rtree.create () in
  List.iter
    (fun (m, b) -> Rtree.insert boxes b m)
    (Place25d.module_boxes input.placement);
  let pin_cells = Hashtbl.create 256 in
  List.iter
    (fun (_, p) -> Hashtbl.replace pin_cells p ())
    (Place25d.pin_positions input.placement);
  let rec check_path net_id seen prev = function
    | [] -> Ok ()
    | p :: rest ->
        if Hashtbl.mem seen p then
          err "net %d visits %s twice" net_id (Point3.to_string p)
        else begin
          Hashtbl.replace seen p ();
          match prev with
          | Some q when Point3.manhattan p q <> 1 ->
              err "net %d jumps from %s to %s" net_id (Point3.to_string q)
                (Point3.to_string p)
          | _ ->
              if Rtree.any_overlap boxes (cell_box p)
                 && not (Hashtbl.mem pin_cells p)
              then
                err "net %d crosses a module interior at %s" net_id
                  (Point3.to_string p)
              else check_path net_id seen (Some p) rest
        end
  in
  let rec go = function
    | [] -> Ok ()
    | (net_id, []) :: _ -> err "net %d has an empty path" net_id
    | (net_id, path) :: rest -> (
        match check_path net_id (Hashtbl.create 64) None path with
        | Error _ as e -> e
        | Ok () -> go rest)
  in
  go (Router.routed_segments input.routing)

(* ------------------------------------------------------------------ *)
(* path-sharing: shared cells carry at most one interior; endpoints    *)
(* are pins or shared (friend-terminal) cells.                         *)
(* ------------------------------------------------------------------ *)

let check_path_sharing input =
  let segments = Router.routed_segments input.routing in
  let users : (Point3.t, (int * bool) list) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (net_id, path) ->
      match path with
      | [] -> ()
      | first :: _ ->
          let lastp = last path in
          List.iter
            (fun p ->
              let is_end = Point3.equal p first || Point3.equal p lastp in
              let cur = Option.value ~default:[] (Hashtbl.find_opt users p) in
              Hashtbl.replace users p ((net_id, is_end) :: cur))
            path)
    segments;
  let pins = Array.of_list (List.map snd (Place25d.pin_positions input.placement)) in
  let net_pins = Hashtbl.create 256 in
  List.iter
    (fun (n : Bridge.net) ->
      Hashtbl.replace net_pins n.Bridge.net_id
        (pins.(n.Bridge.pin_a), pins.(n.Bridge.pin_b)))
    input.nets;
  let rec endpoints_ok = function
    | [] -> Ok ()
    | (_, []) :: rest -> endpoints_ok rest
    | (net_id, (first :: _ as path)) :: rest -> (
        match Hashtbl.find_opt net_pins net_id with
        | None -> err "routed net %d is not in the net list" net_id
        | Some (pa, pb) ->
            let valid p =
              Point3.equal p pa || Point3.equal p pb
              || List.length (Option.value ~default:[] (Hashtbl.find_opt users p)) >= 2
            in
            if valid first && valid (last path) then endpoints_ok rest
            else
              err "net %d terminates at a cell that is neither its pin nor shared"
                net_id)
  in
  match endpoints_ok segments with
  | Error _ as e -> e
  | Ok () ->
      (* Collect every offending cell and report the spatially smallest one,
         so the error message does not depend on hash-table iteration order. *)
      let bad =
        Hashtbl.fold
          (fun p us acc ->
            if List.length us >= 2 then begin
              let interiors =
                List.filter_map
                  (fun (id, is_end) -> if is_end then None else Some id)
                  us
              in
              match interiors with _ :: _ :: _ -> (p, interiors) :: acc | _ -> acc
            end
            else acc)
          users []
        |> List.sort (fun (a, _) (b, _) -> Point3.compare a b)
      in
      (match bad with
       | (p, ids) :: _ ->
           err "cell %s crossed by several net interiors (%s)"
             (Point3.to_string p)
             (String.concat ", " (List.map string_of_int (List.sort Int.compare ids)))
       | [] -> Ok ())

(* ------------------------------------------------------------------ *)
(* net-connectivity: BFS over the routed cells of the friend closure.  *)
(* ------------------------------------------------------------------ *)

let check_net_connectivity input =
  let pins = Array.of_list (List.map snd (Place25d.pin_positions input.placement)) in
  let num_pins = Array.length pins in
  (* Friend closure: nets transitively sharing a pin collapse into one
     class; a net may legally terminate on any cell routed for its class. *)
  let uf = Union_find.create (Int.max 1 num_pins) in
  List.iter
    (fun (n : Bridge.net) ->
      ignore (Union_find.union uf n.Bridge.pin_a n.Bridge.pin_b))
    input.nets;
  let path_of_net = Hashtbl.create 256 in
  List.iter
    (fun (net_id, path) -> Hashtbl.replace path_of_net net_id path)
    (Router.routed_segments input.routing);
  let class_cells : (int, (Point3.t, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (n : Bridge.net) ->
      match Hashtbl.find_opt path_of_net n.Bridge.net_id with
      | None -> ()
      | Some path ->
          let cls = Union_find.find uf n.Bridge.pin_a in
          let cells =
            match Hashtbl.find_opt class_cells cls with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 256 in
                Hashtbl.replace class_cells cls h;
                h
          in
          List.iter (fun p -> Hashtbl.replace cells p ()) path)
    input.nets;
  let connected cells src dst =
    Point3.equal src dst
    ||
    let visited = Hashtbl.create 256 in
    let queue = Queue.create () in
    Hashtbl.replace visited src ();
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      List.iter
        (fun q ->
          if Point3.equal q dst then found := true
          else if Hashtbl.mem cells q && not (Hashtbl.mem visited q) then begin
            Hashtbl.replace visited q ();
            Queue.add q queue
          end)
        (Point3.neighbors p)
    done;
    !found
  in
  let empty_cells = Hashtbl.create 1 in
  let rec go = function
    | [] -> Ok ()
    | (n : Bridge.net) :: rest ->
        let cells =
          Option.value ~default:empty_cells
            (Hashtbl.find_opt class_cells (Union_find.find uf n.Bridge.pin_a))
        in
        if connected cells pins.(n.Bridge.pin_a) pins.(n.Bridge.pin_b) then go rest
        else
          err "net %d: pins %d and %d are not connected by routed cells"
            n.Bridge.net_id n.Bridge.pin_a n.Bridge.pin_b
  in
  go input.nets

(* ------------------------------------------------------------------ *)
(* time-ordering: TSL order read back from raw module boxes.           *)
(* ------------------------------------------------------------------ *)

let check_time_ordering input =
  let pl = input.placement in
  let cl = pl.Place25d.cluster in
  let min_x c =
    List.fold_left
      (fun acc (m, _) ->
        Int.min acc (Place25d.module_box pl m).Cuboid.lo.Point3.x)
      max_int cl.Cluster.clusters.(c).Cluster.members
  in
  let bad = ref None in
  Array.iteri
    (fun qubit ids ->
      let rec walk = function
        | c1 :: (c2 :: _ as rest) ->
            if min_x c1 > min_x c2 then bad := Some (qubit, c1, c2) else walk rest
        | [ _ ] | [] -> ()
      in
      if !bad = None then walk ids)
    cl.Cluster.tsl;
  match !bad with
  | Some (q, c1, c2) ->
      err "qubit %d: T-gadget cluster %d starts after cluster %d in time" q c1 c2
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* bridge-reconstruction: each loop's chains close into one structure. *)
(* ------------------------------------------------------------------ *)

let check_bridge input =
  let num_loops = Array.length input.modular.Modular.loops in
  match input.bridge with
  | None ->
      (* Naive mode emits exactly one net per penetration of every loop. *)
      let counts = Array.make (Int.max 1 num_loops) 0 in
      List.iter
        (fun (n : Bridge.net) -> counts.(n.Bridge.loop) <- counts.(n.Bridge.loop) + 1)
        input.nets;
      let bad = ref None in
      Array.iteri
        (fun l (lp : Modular.loop) ->
          let k = List.length lp.Modular.penetrations in
          if !bad = None && counts.(l) <> k then bad := Some (l, k, counts.(l)))
        input.modular.Modular.loops;
      (match !bad with
       | Some (l, k, c) ->
           err "loop %d: %d penetrations but %d naive nets" l k c
       | None -> Ok ())
  | Some r ->
      let chains = Array.of_list r.Bridge.chains in
      let chain_of = Hashtbl.create 256 in
      Array.iteri
        (fun ci (c : Bridge.chain_view) ->
          List.iter (fun p -> Hashtbl.replace chain_of p ci) c.Bridge.chain_pins)
        chains;
      let rec nets_alive = function
        | [] -> Ok ()
        | (n : Bridge.net) :: rest ->
            if r.Bridge.dead_pins.(n.Bridge.pin_a) || r.Bridge.dead_pins.(n.Bridge.pin_b)
            then err "net %d ends on a pin absorbed by a bridge merge" n.Bridge.net_id
            else if
              not
                (Hashtbl.mem chain_of n.Bridge.pin_a
                 && Hashtbl.mem chain_of n.Bridge.pin_b)
            then err "net %d ends on a pin outside every chain" n.Bridge.net_id
            else nets_alive rest
      in
      (match nets_alive input.nets with
       | Error _ as e -> e
       | Ok () ->
           let check_loop l =
             let vs =
               Array.to_list
                 (Array.mapi
                    (fun ci (c : Bridge.chain_view) ->
                      if List.mem l c.Bridge.chain_loops then Some ci else None)
                    chains)
               |> List.filter_map (fun x -> x)
             in
             match vs with
             | [] -> err "loop %d has no chains" l
             | [ ci ] ->
                 (* Single chain: the loop closes through one net joining the
                    chain's two (distinct) ends, or through the chain alone
                    when its ends coincide. *)
                 let c = chains.(ci) in
                 let in_chain pin =
                   match Hashtbl.find_opt chain_of pin with
                   | Some c -> c = ci
                   | None -> false
                 in
                 let closing =
                   List.exists
                     (fun (n : Bridge.net) ->
                       in_chain n.Bridge.pin_a && in_chain n.Bridge.pin_b)
                     input.nets
                 in
                 let ends_coincide =
                   match c.Bridge.chain_pins with
                   | [] | [ _ ] -> true
                   | first :: rest -> first = last rest
                 in
                 if closing || ends_coincide then Ok ()
                 else err "loop %d: single chain left unclosed" l
             | _ ->
                 let idx = Hashtbl.create 16 in
                 List.iteri (fun i ci -> Hashtbl.replace idx ci i) vs;
                 let k = List.length vs in
                 let degree = Array.make k 0 in
                 let comp = Union_find.create k in
                 List.iter
                   (fun (n : Bridge.net) ->
                     match
                       ( Hashtbl.find_opt chain_of n.Bridge.pin_a,
                         Hashtbl.find_opt chain_of n.Bridge.pin_b )
                     with
                     | Some ca, Some cb -> (
                         match (Hashtbl.find_opt idx ca, Hashtbl.find_opt idx cb) with
                         | Some ia, Some ib ->
                             degree.(ia) <- degree.(ia) + 1;
                             degree.(ib) <- degree.(ib) + 1;
                             ignore (Union_find.union comp ia ib)
                         | _ -> ())
                     | _ -> ())
                   input.nets;
                 if Array.exists (fun d -> d < 2) degree then
                   err "loop %d: a chain is not linked at both ends" l
                 else begin
                   let root = Union_find.find comp 0 in
                   let connected = ref true in
                   for i = 1 to k - 1 do
                     if Union_find.find comp i <> root then connected := false
                   done;
                   if !connected then Ok ()
                   else err "loop %d: chains split into several components" l
                 end
           in
           let rec go l =
             if l >= num_loops then Ok ()
             else match check_loop l with Error _ as e -> e | Ok () -> go (l + 1)
           in
           go 0)

(* ------------------------------------------------------------------ *)

let verify input =
  [ ("module-overlap", check_module_overlap input);
    ("path-geometry", check_path_geometry input);
    ("path-sharing", check_path_sharing input);
    ("net-connectivity", check_net_connectivity input);
    ("time-ordering", check_time_ordering input);
    ("bridge-reconstruction", check_bridge input) ]

let ok report = List.for_all (fun (_, r) -> r = Ok ()) report

let first_error report =
  List.find_map
    (fun (name, r) -> match r with Ok () -> None | Error e -> Some (name ^ ": " ^ e))
    report
