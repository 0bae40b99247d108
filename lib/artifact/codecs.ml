module Json = Tqec_obs.Json
module Gate = Tqec_circuit.Gate
module Circuit = Tqec_circuit.Circuit
module Icm = Tqec_icm.Icm
module Stats = Tqec_icm.Stats
module Canonical = Tqec_canonical.Canonical
module Modular = Tqec_modular.Modular
module Bridge = Tqec_bridge.Bridge
module Cluster = Tqec_place.Cluster
module Place25d = Tqec_place.Place25d
module Sa = Tqec_place.Sa
module Router = Tqec_route.Router
open Codec

(* ------------------------------------------------------------------ *)
(* Circuits                                                            *)
(* ------------------------------------------------------------------ *)

let of_gate g =
  let tag name qs = Json.List (Json.String name :: List.map (fun q -> Json.Int q) qs) in
  match g with
  | Gate.Not q -> tag "not" [ q ]
  | Gate.Cnot { control; target } -> tag "cnot" [ control; target ]
  | Gate.Toffoli { c1; c2; target } -> tag "toffoli" [ c1; c2; target ]
  | Gate.Fredkin { control; a; b } -> tag "fredkin" [ control; a; b ]
  | Gate.H q -> tag "h" [ q ]
  | Gate.P q -> tag "p" [ q ]
  | Gate.Pdag q -> tag "pdag" [ q ]
  | Gate.V q -> tag "v" [ q ]
  | Gate.Vdag q -> tag "vdag" [ q ]
  | Gate.T q -> tag "t" [ q ]
  | Gate.Tdag q -> tag "tdag" [ q ]
  | Gate.Z q -> tag "z" [ q ]

let gate = function
  | Json.List [ Json.String "not"; Json.Int q ] -> Gate.Not q
  | Json.List [ Json.String "cnot"; Json.Int control; Json.Int target ] ->
      Gate.Cnot { control; target }
  | Json.List [ Json.String "toffoli"; Json.Int c1; Json.Int c2; Json.Int target ] ->
      Gate.Toffoli { c1; c2; target }
  | Json.List [ Json.String "fredkin"; Json.Int control; Json.Int a; Json.Int b ] ->
      Gate.Fredkin { control; a; b }
  | Json.List [ Json.String "h"; Json.Int q ] -> Gate.H q
  | Json.List [ Json.String "p"; Json.Int q ] -> Gate.P q
  | Json.List [ Json.String "pdag"; Json.Int q ] -> Gate.Pdag q
  | Json.List [ Json.String "v"; Json.Int q ] -> Gate.V q
  | Json.List [ Json.String "vdag"; Json.Int q ] -> Gate.Vdag q
  | Json.List [ Json.String "t"; Json.Int q ] -> Gate.T q
  | Json.List [ Json.String "tdag"; Json.Int q ] -> Gate.Tdag q
  | Json.List [ Json.String "z"; Json.Int q ] -> Gate.Z q
  | j -> err "unknown gate encoding %s" (Json.to_string j)

let of_circuit (c : Circuit.t) =
  Json.Obj
    [ ("name", Json.String c.Circuit.name);
      ("qubits", Json.Int c.Circuit.num_qubits);
      ("gates", Json.List (List.map of_gate c.Circuit.gates)) ]

let circuit j =
  Circuit.make
    ~name:(string_ (field "name" j))
    ~num_qubits:(int (field "qubits" j))
    (list gate (field "gates" j))

(* ------------------------------------------------------------------ *)
(* ICM                                                                 *)
(* ------------------------------------------------------------------ *)

let of_wire_init = function
  | Icm.Init_zero -> Json.String "0"
  | Icm.Init_plus -> Json.String "+"
  | Icm.Init_y -> Json.String "y"
  | Icm.Init_a -> Json.String "a"

let wire_init = function
  | Json.String "0" -> Icm.Init_zero
  | Json.String "+" -> Icm.Init_plus
  | Json.String "y" -> Icm.Init_y
  | Json.String "a" -> Icm.Init_a
  | j -> err "unknown wire init %s" (Json.to_string j)

let of_wire (w : Icm.wire) =
  Json.List
    [ Json.Int w.Icm.wire_id;
      of_wire_init w.Icm.init;
      (match w.Icm.data_qubit with None -> Json.Null | Some q -> Json.Int q) ]

let wire = function
  | Json.List [ Json.Int wire_id; init; dq ] ->
      { Icm.wire_id;
        init = wire_init init;
        data_qubit = opt int dq }
  | j -> err "bad wire encoding %s" (Json.to_string j)

let of_cnot (c : Icm.cnot) =
  Json.List [ Json.Int c.Icm.cnot_id; Json.Int c.Icm.control; Json.Int c.Icm.target ]

let cnot = function
  | Json.List [ Json.Int cnot_id; Json.Int control; Json.Int target ] ->
      { Icm.cnot_id; control; target }
  | j -> err "bad cnot encoding %s" (Json.to_string j)

let of_gadget (g : Icm.gadget) =
  Json.Obj
    [ ("id", Json.Int g.Icm.gadget_id);
      ("qubit", Json.Int g.Icm.qubit);
      ("lead", Json.Int g.Icm.lead_wire);
      ("sel", of_int_list g.Icm.selective_wires);
      ("wires", of_int_list g.Icm.gadget_wires);
      ("cnots", of_int_list g.Icm.gadget_cnots);
      ("dagger", Json.Bool g.Icm.dagger) ]

let gadget j =
  { Icm.gadget_id = int (field "id" j);
    qubit = int (field "qubit" j);
    lead_wire = int (field "lead" j);
    selective_wires = int_list (field "sel" j);
    gadget_wires = int_list (field "wires" j);
    gadget_cnots = int_list (field "cnots" j);
    dagger = bool (field "dagger" j) }

let of_icm (m : Icm.t) =
  Json.Obj
    [ ("name", Json.String m.Icm.name);
      ("data_qubits", Json.Int m.Icm.num_data_qubits);
      ("wires", Json.List (Array.to_list (Array.map of_wire m.Icm.wires)));
      ("cnots", Json.List (Array.to_list (Array.map of_cnot m.Icm.cnots)));
      ("gadgets", Json.List (Array.to_list (Array.map of_gadget m.Icm.gadgets)));
      ("tsl", Json.List (Array.to_list (Array.map of_int_list m.Icm.tsl)));
      ("output_wire", of_int_array m.Icm.output_wire);
      ("inline_injections", Json.Int m.Icm.inline_injections);
      ("pauli_frame_updates", Json.Int m.Icm.pauli_frame_updates) ]

let icm j =
  { Icm.name = string_ (field "name" j);
    num_data_qubits = int (field "data_qubits" j);
    wires = array wire (field "wires" j);
    cnots = array cnot (field "cnots" j);
    gadgets = array gadget (field "gadgets" j);
    tsl = array int_list (field "tsl" j);
    output_wire = int_array (field "output_wire" j);
    inline_injections = int (field "inline_injections" j);
    pauli_frame_updates = int (field "pauli_frame_updates" j) }

let of_stats (s : Stats.t) =
  Json.Obj
    [ ("name", Json.String s.Stats.name);
      ("qubits_o", Json.Int s.Stats.qubits_o);
      ("gates_o", Json.Int s.Stats.gates_o);
      ("qubits_d", Json.Int s.Stats.qubits_d);
      ("cnots", Json.Int s.Stats.cnots);
      ("n_y", Json.Int s.Stats.n_y);
      ("n_a", Json.Int s.Stats.n_a);
      ("vol_y", Json.Int s.Stats.vol_y);
      ("vol_a", Json.Int s.Stats.vol_a) ]

let stats j =
  { Stats.name = string_ (field "name" j);
    qubits_o = int (field "qubits_o" j);
    gates_o = int (field "gates_o" j);
    qubits_d = int (field "qubits_d" j);
    cnots = int (field "cnots" j);
    n_y = int (field "n_y" j);
    n_a = int (field "n_a" j);
    vol_y = int (field "vol_y" j);
    vol_a = int (field "vol_a" j) }

(* ------------------------------------------------------------------ *)
(* Canonical geometry                                                  *)
(* ------------------------------------------------------------------ *)

let of_element (e : Canonical.element) =
  Json.List
    [ (match e.Canonical.defect with
       | Canonical.Primal -> Json.String "p"
       | Canonical.Dual -> Json.String "d");
      of_cuboid e.Canonical.cuboid;
      Json.String e.Canonical.label ]

let element = function
  | Json.List [ Json.String tag; box; Json.String label ] ->
      let defect =
        match tag with
        | "p" -> Canonical.Primal
        | "d" -> Canonical.Dual
        | other -> err "unknown defect tag %S" other
      in
      { Canonical.defect; cuboid = cuboid box; label }
  | j -> err "bad canonical element %s" (Json.to_string j)

let of_canonical (c : Canonical.t) =
  Json.Obj
    [ ("width", Json.Int c.Canonical.width);
      ("height", Json.Int c.Canonical.height);
      ("depth", Json.Int c.Canonical.depth);
      ("elements", Json.List (List.map of_element c.Canonical.elements)) ]

let canonical ~icm j =
  { Canonical.icm;
    width = int (field "width" j);
    height = int (field "height" j);
    depth = int (field "depth" j);
    elements = list element (field "elements" j) }

(* ------------------------------------------------------------------ *)
(* Modularization                                                      *)
(* ------------------------------------------------------------------ *)

let of_module_kind = function
  | Modular.Wire_module { wire; init } ->
      Json.List [ Json.String "wire"; Json.Int wire; of_wire_init init ]
  | Modular.Cross_module { cnot } -> Json.List [ Json.String "cross"; Json.Int cnot ]
  | Modular.Y_box { gadget } -> Json.List [ Json.String "ybox"; Json.Int gadget ]
  | Modular.A_box { gadget } -> Json.List [ Json.String "abox"; Json.Int gadget ]

let module_kind = function
  | Json.List [ Json.String "wire"; Json.Int wire; init ] ->
      Modular.Wire_module { wire; init = wire_init init }
  | Json.List [ Json.String "cross"; Json.Int cnot ] -> Modular.Cross_module { cnot }
  | Json.List [ Json.String "ybox"; Json.Int gadget ] -> Modular.Y_box { gadget }
  | Json.List [ Json.String "abox"; Json.Int gadget ] -> Modular.A_box { gadget }
  | j -> err "unknown module kind %s" (Json.to_string j)

let of_pin (p : Modular.pin) =
  Json.List
    [ Json.Int p.Modular.pin_id;
      Json.Int p.Modular.owner;
      of_point3 p.Modular.offset;
      Json.Int p.Modular.loop ]

let pin = function
  | Json.List [ Json.Int pin_id; Json.Int owner; offset; Json.Int loop ] ->
      { Modular.pin_id; owner; offset = point3 offset; loop }
  | j -> err "bad pin encoding %s" (Json.to_string j)

let of_module (m : Modular.module_) =
  Json.Obj
    [ ("id", Json.Int m.Modular.module_id);
      ("kind", of_module_kind m.Modular.kind);
      ("dims", of_triple m.Modular.dims);
      ("pins", of_int_list m.Modular.pin_ids) ]

let module_ j =
  { Modular.module_id = int (field "id" j);
    kind = module_kind (field "kind" j);
    dims = triple (field "dims" j);
    pin_ids = int_list (field "pins" j) }

let of_penetration (p : Modular.penetration) =
  Json.List [ Json.Int p.Modular.pmodule; Json.Int p.Modular.pin_a; Json.Int p.Modular.pin_b ]

let penetration = function
  | Json.List [ Json.Int pmodule; Json.Int pin_a; Json.Int pin_b ] ->
      { Modular.pmodule; pin_a; pin_b }
  | j -> err "bad penetration encoding %s" (Json.to_string j)

let of_loop (l : Modular.loop) =
  Json.List
    [ Json.Int l.Modular.loop_id;
      Json.List (List.map of_penetration l.Modular.penetrations) ]

let loop = function
  | Json.List [ Json.Int loop_id; pens ] ->
      { Modular.loop_id; penetrations = list penetration pens }
  | j -> err "bad loop encoding %s" (Json.to_string j)

let of_modular (m : Modular.t) =
  Json.Obj
    [ ("modules", Json.List (Array.to_list (Array.map of_module m.Modular.modules)));
      ("pins", Json.List (Array.to_list (Array.map of_pin m.Modular.pins)));
      ("loops", Json.List (Array.to_list (Array.map of_loop m.Modular.loops)));
      ("wire_module", of_int_array m.Modular.wire_module);
      ("cross_module", of_int_array m.Modular.cross_module) ]

let modular ~icm j =
  { Modular.icm;
    modules = array module_ (field "modules" j);
    pins = array pin (field "pins" j);
    loops = array loop (field "loops" j);
    wire_module = int_array (field "wire_module" j);
    cross_module = int_array (field "cross_module" j) }

(* ------------------------------------------------------------------ *)
(* Bridging                                                            *)
(* ------------------------------------------------------------------ *)

let of_net (n : Bridge.net) =
  Json.List
    [ Json.Int n.Bridge.net_id; Json.Int n.Bridge.pin_a; Json.Int n.Bridge.pin_b;
      Json.Int n.Bridge.loop ]

let net = function
  | Json.List [ Json.Int net_id; Json.Int pin_a; Json.Int pin_b; Json.Int loop ] ->
      { Bridge.net_id; pin_a; pin_b; loop }
  | j -> err "bad net encoding %s" (Json.to_string j)

let of_nets ns = Json.List (List.map of_net ns)

let nets = list net

let of_structure (s : Bridge.structure) =
  Json.List [ Json.Int s.Bridge.structure_id; of_int_list s.Bridge.loops ]

let structure = function
  | Json.List [ Json.Int structure_id; loops ] ->
      { Bridge.structure_id; loops = int_list loops }
  | j -> err "bad structure encoding %s" (Json.to_string j)

let of_chain_view (c : Bridge.chain_view) =
  Json.List [ of_int_list c.Bridge.chain_pins; of_int_list c.Bridge.chain_loops ]

let chain_view = function
  | Json.List [ pins; loops ] ->
      { Bridge.chain_pins = int_list pins; chain_loops = int_list loops }
  | j -> err "bad chain encoding %s" (Json.to_string j)

let of_bridge_result (r : Bridge.result) =
  Json.Obj
    [ ("structures", Json.List (List.map of_structure r.Bridge.structures));
      ("nets", of_nets r.Bridge.nets);
      ("merges", Json.Int r.Bridge.merges);
      ("attempts", Json.Int r.Bridge.attempts);
      ("dead_pins", of_bool_array r.Bridge.dead_pins);
      ("chains", Json.List (List.map of_chain_view r.Bridge.chains)) ]

let bridge_result ~modular j =
  { Bridge.modular;
    structures = list structure (field "structures" j);
    nets = nets (field "nets" j);
    merges = int (field "merges" j);
    attempts = int (field "attempts" j);
    dead_pins = bool_array (field "dead_pins" j);
    chains = list chain_view (field "chains" j) }

(* ------------------------------------------------------------------ *)
(* Clustering & placement                                              *)
(* ------------------------------------------------------------------ *)

let of_cluster_kind = function
  | Cluster.Tdep { gadget } -> Json.List [ Json.String "tdep"; Json.Int gadget ]
  | Cluster.Dist_inj { box_module } ->
      Json.List [ Json.String "dist"; Json.Int box_module ]
  | Cluster.Primal_group -> Json.String "group"
  | Cluster.Singleton { module_ } ->
      Json.List [ Json.String "single"; Json.Int module_ ]

let cluster_kind = function
  | Json.List [ Json.String "tdep"; Json.Int gadget ] -> Cluster.Tdep { gadget }
  | Json.List [ Json.String "dist"; Json.Int box_module ] ->
      Cluster.Dist_inj { box_module }
  | Json.String "group" -> Cluster.Primal_group
  | Json.List [ Json.String "single"; Json.Int module_ ] ->
      Cluster.Singleton { module_ }
  | j -> err "unknown cluster kind %s" (Json.to_string j)

let of_cluster_record (c : Cluster.cluster) =
  Json.Obj
    [ ("id", Json.Int c.Cluster.cluster_id);
      ("kind", of_cluster_kind c.Cluster.kind);
      ( "members",
        Json.List
          (List.map
             (fun (m, off) -> Json.List [ Json.Int m; of_point3 off ])
             c.Cluster.members) );
      ("dims", of_triple c.Cluster.cdims) ]

let cluster_record j =
  { Cluster.cluster_id = int (field "id" j);
    kind = cluster_kind (field "kind" j);
    members =
      list
        (function
          | Json.List [ Json.Int m; off ] -> (m, point3 off)
          | m -> err "bad cluster member %s" (Json.to_string m))
        (field "members" j);
    cdims = triple (field "dims" j) }

let of_cluster (t : Cluster.t) =
  Json.Obj
    [ ( "clusters",
        Json.List (Array.to_list (Array.map of_cluster_record t.Cluster.clusters)) );
      ("module_cluster", of_int_array t.Cluster.module_cluster);
      ("module_offset", of_point3_array t.Cluster.module_offset);
      ("tsl", Json.List (Array.to_list (Array.map of_int_list t.Cluster.tsl))) ]

let cluster ~modular j =
  { Cluster.modular;
    clusters = array cluster_record (field "clusters" j);
    module_cluster = int_array (field "module_cluster" j);
    module_offset = point3_array (field "module_offset" j);
    tsl = array int_list (field "tsl" j) }

let of_placement (p : Place25d.placement) =
  Json.Obj
    [ ("module_pos", of_point3_array p.Place25d.module_pos);
      ("cluster_pos", of_point3_array p.Place25d.cluster_pos);
      ("tier_of_cluster", of_int_array p.Place25d.tier_of_cluster);
      ("dims", of_triple p.Place25d.dims);
      ("volume", Json.Int p.Place25d.volume);
      ("wirelength", Json.Int p.Place25d.wirelength);
      ("sa_accepted", Json.Int p.Place25d.sa_accepted);
      ("sa_improved", Json.Int p.Place25d.sa_improved) ]

let placement ~cluster j =
  { Place25d.cluster;
    module_pos = point3_array (field "module_pos" j);
    cluster_pos = point3_array (field "cluster_pos" j);
    tier_of_cluster = int_array (field "tier_of_cluster" j);
    dims = triple (field "dims" j);
    volume = int (field "volume" j);
    wirelength = int (field "wirelength" j);
    sa_accepted = int (field "sa_accepted" j);
    sa_improved = int (field "sa_improved" j) }

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let of_routed_net (r : Router.routed_net) =
  Json.List [ of_net r.Router.net; of_path r.Router.path ]

let routed_net = function
  | Json.List [ n; p ] -> { Router.net = net n; path = path p }
  | j -> err "bad routed net encoding %s" (Json.to_string j)

let of_routing (r : Router.result) =
  Json.Obj
    [ ("routed", Json.List (List.map of_routed_net r.Router.routed));
      ("failed", of_nets r.Router.failed);
      ("dims", of_triple r.Router.dims);
      ("volume", Json.Int r.Router.volume);
      ("iterations_used", Json.Int r.Router.iterations_used);
      ("routed_first_iteration", Json.Int r.Router.routed_first_iteration) ]

let routing j =
  { Router.routed = list routed_net (field "routed" j);
    failed = nets (field "failed" j);
    dims = triple (field "dims" j);
    volume = int (field "volume" j);
    iterations_used = int (field "iterations_used" j);
    routed_first_iteration = int (field "routed_first_iteration" j) }

(* ------------------------------------------------------------------ *)
(* Configs (cache-key inputs only)                                     *)
(* ------------------------------------------------------------------ *)

let of_sa_params (p : Sa.params) =
  Json.Obj
    [ ("iterations", Json.Int p.Sa.iterations);
      ("start_temp", Json.Float p.Sa.start_temp);
      ("end_temp", Json.Float p.Sa.end_temp) ]

let of_place_config (c : Place25d.config) =
  Json.Obj
    [ ( "tiers",
        match c.Place25d.tiers with None -> Json.Null | Some t -> Json.Int t );
      ("sa", of_sa_params c.Place25d.sa);
      ("seed", Json.Int c.Place25d.seed) ]

let of_route_config (c : Router.config) =
  Json.Obj
    [ ("max_iterations", Json.Int c.Router.max_iterations);
      ("region_margin", Json.Int c.Router.region_margin);
      ("friend_aware", Json.Bool c.Router.friend_aware) ]
