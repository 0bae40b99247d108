(* A fixed JSON rendering of placements and routings for the bit-identity
   pins in test_place and test_route: every coordinate a JSON int, a point
   a [x, y, z] triple and a routed path a flat coordinate list, byte for
   byte the stage-cache codec's form before it packed coordinates into
   strings. The pins digest this rendering, not the cache codec's, so they
   move when a layout changes and never when the codec does. *)

module Json = Tqec_obs.Json
module Point3 = Tqec_geom.Point3
module Place25d = Tqec_place.Place25d
module Router = Tqec_route.Router
module Bridge = Tqec_bridge.Bridge

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let coords (p : Point3.t) = [ p.Point3.x; p.Point3.y; p.Point3.z ]

let points a = Json.List (Array.to_list (Array.map (fun p -> ints (coords p)) a))

let triple (a, b, c) = ints [ a; b; c ]

let net (n : Bridge.net) =
  ints [ n.Bridge.net_id; n.Bridge.pin_a; n.Bridge.pin_b; n.Bridge.loop ]

let placement (p : Place25d.placement) =
  Json.Obj
    [ ("module_pos", points p.Place25d.module_pos);
      ("cluster_pos", points p.Place25d.cluster_pos);
      ("tier_of_cluster", ints (Array.to_list p.Place25d.tier_of_cluster));
      ("dims", triple p.Place25d.dims);
      ("volume", Json.Int p.Place25d.volume);
      ("wirelength", Json.Int p.Place25d.wirelength);
      ("sa_accepted", Json.Int p.Place25d.sa_accepted);
      ("sa_improved", Json.Int p.Place25d.sa_improved) ]

let routing (r : Router.result) =
  let routed (rn : Router.routed_net) =
    Json.List [ net rn.Router.net; ints (List.concat_map coords rn.Router.path) ]
  in
  Json.Obj
    [ ("routed", Json.List (List.map routed r.Router.routed));
      ("failed", Json.List (List.map net r.Router.failed));
      ("dims", triple r.Router.dims);
      ("volume", Json.Int r.Router.volume);
      ("iterations_used", Json.Int r.Router.iterations_used);
      ("routed_first_iteration", Json.Int r.Router.routed_first_iteration) ]

let digest json = Tqec_prelude.Hash.sha256_hex (Json.to_string json)
