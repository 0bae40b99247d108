module Point3 = Tqec_geom.Point3
module Cuboid = Tqec_geom.Cuboid
module Modular = Tqec_modular.Modular
module Icm = Tqec_icm.Icm

type kind =
  | Tdep of { gadget : int }
  | Dist_inj of { box_module : int }
  | Primal_group
  | Singleton of { module_ : int }

type cluster = {
  cluster_id : int;
  kind : kind;
  members : (int * Point3.t) list;
  mutable cdims : int * int * int;
}

type t = {
  modular : Modular.t;
  clusters : cluster array;
  module_cluster : int array;
  module_offset : Point3.t array;
  tsl : int list array;
}

let num_clusters t = Array.length t.clusters

let cluster_volume c =
  let d, w, h = c.cdims in
  d * w * h

(* A distillation-injection element: box and injected wire module connected
   head-to-tail along the time axis (box output feeds the injection). *)
(* Clearance between sibling modules inside a cluster: two units, so that
   every pin keeps a private mouth cell plus a free lane even when another
   member faces it. *)
let internal_gap = 2

let dist_inj_element modular ~box ~wire =
  let bd, bw, bh = modular.Modular.modules.(box).Modular.dims in
  let wd, ww, wh = modular.Modular.modules.(wire).Modular.dims in
  let members = [ (box, Point3.zero); (wire, Point3.make (bd + internal_gap) 0 0) ] in
  let dims = (bd + internal_gap + wd, Int.max bw ww, Int.max bh wh) in
  (members, dims)

let single_element modular ~module_ =
  ([ (module_, Point3.zero) ], modular.Modular.modules.(module_).Modular.dims)

let shift_members members dx dy =
  List.map (fun (m, o) -> (m, Point3.add o (Point3.make dx dy 0))) members

let build ?(primal_groups = true) ?(max_group_size = 4) modular =
  let icm = modular.Modular.icm in
  let nm = Modular.num_modules modular in
  let module_cluster = Array.make nm (-1) in
  let module_offset = Array.make nm Point3.zero in
  let clusters = ref [] and cluster_count = ref 0 in
  let add_cluster kind members dims =
    let id = !cluster_count in
    incr cluster_count;
    let c = { cluster_id = id; kind; members; cdims = dims } in
    clusters := c :: !clusters;
    List.iter
      (fun (m, off) ->
        assert (module_cluster.(m) = -1);
        module_cluster.(m) <- id;
        module_offset.(m) <- off)
      members;
    id
  in
  (* Box modules per gadget, in creation order: A, Y, Y. *)
  let gadget_boxes = Array.make (Array.length icm.Icm.gadgets) [] in
  Array.iter
    (fun md ->
      match md.Modular.kind with
      | Modular.A_box { gadget } | Modular.Y_box { gadget } ->
          gadget_boxes.(gadget) <- md.Modular.module_id :: gadget_boxes.(gadget)
      | Modular.Wire_module _ | Modular.Cross_module _ -> ())
    modular.Modular.modules;
  Array.iteri (fun i boxes -> gadget_boxes.(i) <- List.rev boxes) gadget_boxes;
  (* Distillation-injection super-modules: every box fused with the wire
     module of the state it injects. Boxes are created in (A, Y, Y) order and
     inject (w_a, w_y1, w_y2), i.e. the first three selective wires. *)
  Array.iter
    (fun (g : Icm.gadget) ->
      let injected =
        match g.Icm.selective_wires with
        | w_a :: w_y1 :: w_y2 :: _ -> [ w_a; w_y1; w_y2 ]
        | _ -> invalid_arg "Cluster.build: gadget must have injected wires"
      in
      List.iter2
        (fun box wire ->
          let members, dims = dist_inj_element modular ~box ~wire in
          ignore (add_cluster (Dist_inj { box_module = box }) members dims))
        gadget_boxes.(g.Icm.gadget_id) injected)
    icm.Icm.gadgets;
  (* Time-dependent super-modules: the gadget's non-injected measurement
     modules — leading Z-basis measurement on the left, selective ancillas
     stacked on the right, right-aligned so the lead measures first. *)
  let gadget_cluster = Array.make (Array.length icm.Icm.gadgets) (-1) in
  Array.iter
    (fun (g : Icm.gadget) ->
      let selective_plain =
        List.filter (fun w -> module_cluster.(w) = -1) g.Icm.selective_wires
      in
      let elements =
        List.map (fun w -> single_element modular ~module_:w) selective_plain
        @ (match g.Icm.gadget_wires with
           | [ _; _; _; _; w_m2; _ ] when module_cluster.(w_m2) = -1 ->
               [ single_element modular ~module_:w_m2 ]
           | _ -> [])
      in
      let lead = g.Icm.lead_wire in
      let ld, lw, _ = modular.Modular.modules.(lead).Modular.dims in
      let max_elem_d =
        List.fold_left (fun acc (_, (d, _, _)) -> Int.max acc d) 0 elements
      in
      let right_end = ld + internal_gap + max_elem_d in
      let members = ref [ (lead, Point3.zero) ] in
      let y = ref 0 and total_w = ref 0 in
      List.iter
        (fun (elem_members, (ed, ew, _)) ->
          let x = right_end - ed in
          members := shift_members elem_members x !y @ !members;
          y := !y + ew + internal_gap;
          total_w := Int.max !total_w (!y - internal_gap))
        elements;
      let dims = (right_end, Int.max lw !total_w, 2) in
      let id = add_cluster (Tdep { gadget = g.Icm.gadget_id }) (List.rev !members) dims in
      gadget_cluster.(g.Icm.gadget_id) <- id)
    icm.Icm.gadgets;
  (* Primal groups over the remaining modules, walking dual loops. *)
  if primal_groups then
    Array.iter
      (fun l ->
        let free =
          List.filter
            (fun p -> module_cluster.(p.Modular.pmodule) = -1)
            l.Modular.penetrations
          |> List.map (fun p -> p.Modular.pmodule)
          |> List.sort_uniq Int.compare
        in
        let group = List.filteri (fun i _ -> i < max_group_size) free in
        if List.length group >= 2 then begin
          (* Row layout along the time axis. *)
          let members, x_end, w_max =
            List.fold_left
              (fun (members, x, w_acc) m ->
                let md, mw, _ = modular.Modular.modules.(m).Modular.dims in
                ( (m, Point3.make x 0 0) :: members,
                  x + md + internal_gap,
                  Int.max w_acc mw ))
              ([], 0, 0) group
          in
          ignore
            (add_cluster Primal_group (List.rev members) (x_end - internal_gap, w_max, 2))
        end)
      modular.Modular.loops;
  (* Singletons for everything left over. *)
  Array.iter
    (fun md ->
      if module_cluster.(md.Modular.module_id) = -1 then
        ignore
          (add_cluster
             (Singleton { module_ = md.Modular.module_id })
             [ (md.Modular.module_id, Point3.zero) ]
             md.Modular.dims))
    modular.Modular.modules;
  let tsl =
    Array.map (fun gadgets -> List.map (fun g -> gadget_cluster.(g)) gadgets) icm.Icm.tsl
  in
  { modular;
    clusters = Array.of_list (List.rev !clusters);
    module_cluster;
    module_offset;
    tsl }

(* Incidence index for incremental wirelength: cluster id -> indices (into
   the given net order) of every net with a pin on one of the cluster's
   modules. A net internal to one cluster appears once; its length still
   changes when the cluster moves, so it must not be dropped. *)
let net_index t nets =
  let n = num_clusters t in
  let pins = t.modular.Modular.pins in
  let acc = Array.make n [] in
  List.iteri
    (fun i (net : Tqec_bridge.Bridge.net) ->
      let ca = t.module_cluster.(pins.(net.Tqec_bridge.Bridge.pin_a).Modular.owner) in
      let cb = t.module_cluster.(pins.(net.Tqec_bridge.Bridge.pin_b).Modular.owner) in
      acc.(ca) <- i :: acc.(ca);
      if cb <> ca then acc.(cb) <- i :: acc.(cb))
    nets;
  Array.map (fun is -> Array.of_list (List.rev is)) acc

let equalize_tsl t =
  Array.iter
    (fun cluster_ids ->
      match cluster_ids with
      | [] | [ _ ] -> ()
      | ids ->
          let dims =
            List.fold_left
              (fun (d, w, h) id ->
                let cd, cw, ch = t.clusters.(id).cdims in
                (Int.max d cd, Int.max w cw, Int.max h ch))
              (0, 0, 0) ids
          in
          List.iter (fun id -> t.clusters.(id).cdims <- dims) ids)
    t.tsl

let validate t =
  let err fmt = Printf.ksprintf (fun s : (unit, string) Stdlib.result -> Error s) fmt in
  if Array.exists (fun c -> c = -1) t.module_cluster then
    err "some module is unclustered"
  else begin
    let bad = ref None in
    Array.iter
      (fun c ->
        let cd, cw, ch = c.cdims in
        let boxes =
          List.map
            (fun (m, off) ->
              let md, mw, mh = t.modular.Modular.modules.(m).Modular.dims in
              (m, Cuboid.of_origin_size off ~w:mw ~h:mh ~d:md))
            c.members
        in
        List.iter
          (fun (m, box) ->
            let { Cuboid.hi; lo } = box in
            if lo.Point3.x < 0 || lo.Point3.y < 0 || lo.Point3.z < 0
               || hi.Point3.x > cd || hi.Point3.y > cw || hi.Point3.z > ch then
              bad := Some (Printf.sprintf "module %d escapes cluster %d" m c.cluster_id))
          boxes;
        let rec overlaps = function
          | (m1, b1) :: rest ->
              List.iter
                (fun (m2, b2) ->
                  if Cuboid.overlaps b1 b2 then
                    bad :=
                      Some
                        (Printf.sprintf "modules %d and %d overlap in cluster %d" m1 m2
                           c.cluster_id))
                rest;
              overlaps rest
          | [] -> ()
        in
        overlaps boxes)
      t.clusters;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let ok_tsl =
          Array.for_all
            (fun ids ->
              List.for_all
                (fun id -> match t.clusters.(id).kind with Tdep _ -> true | _ -> false)
                ids)
            t.tsl
        in
        if ok_tsl then Ok () else err "TSL contains a non-time-dependent cluster"
  end
