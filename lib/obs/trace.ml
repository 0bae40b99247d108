module Stopwatch = Tqec_prelude.Stopwatch

type dist = { n : int; sum : float; min_v : float; max_v : float }

type dist_acc = {
  mutable d_n : int;
  mutable d_sum : float;
  mutable d_min : float;
  mutable d_max : float;
}

type node = {
  node_name : string;
  start_s : float;
  mutable stop_s : float option;
  node_counters : (string, int ref) Hashtbl.t;
  node_gauges : (string, float) Hashtbl.t;
  node_dists : (string, dist_acc) Hashtbl.t;
  mutable rev_children : node list;
}

type span = Noop | Live of node

let noop = Noop

let make_node name =
  { node_name = name;
    start_s = Stopwatch.now_s ();
    stop_s = None;
    node_counters = Hashtbl.create 8;
    node_gauges = Hashtbl.create 4;
    node_dists = Hashtbl.create 4;
    rev_children = [] }

let root name = Live (make_node name)

let enabled = function Noop -> false | Live _ -> true

let span parent name =
  match parent with
  | Noop -> Noop
  | Live p ->
      let child = make_node name in
      p.rev_children <- child :: p.rev_children;
      Live child

let rec close_node now node =
  (match node.stop_s with None -> node.stop_s <- Some now | Some _ -> ());
  List.iter
    (fun child -> if child.stop_s = None then close_node now child)
    node.rev_children

let close = function
  | Noop -> ()
  | Live node -> close_node (Stopwatch.now_s ()) node

let with_span parent name f =
  match parent with
  | Noop -> f Noop
  | Live _ ->
      let child = span parent name in
      Fun.protect ~finally:(fun () -> close child) (fun () -> f child)

let incr ?(n = 1) s name =
  match s with
  | Noop -> ()
  | Live node -> (
      match Hashtbl.find_opt node.node_counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.replace node.node_counters name (ref n))

let gauge s name v =
  match s with
  | Noop -> ()
  | Live node -> Hashtbl.replace node.node_gauges name v

let observe s name v =
  match s with
  | Noop -> ()
  | Live node -> (
      match Hashtbl.find_opt node.node_dists name with
      | Some d ->
          d.d_n <- d.d_n + 1;
          d.d_sum <- d.d_sum +. v;
          if v < d.d_min then d.d_min <- v;
          if v > d.d_max then d.d_max <- v
      | None ->
          Hashtbl.replace node.node_dists name
            { d_n = 1; d_sum = v; d_min = v; d_max = v })

(* -------------------------- inspection --------------------------- *)

let name = function Noop -> "" | Live node -> node.node_name

let duration_s = function
  | Noop -> 0.0
  | Live node ->
      let stop =
        match node.stop_s with Some t -> t | None -> Stopwatch.now_s ()
      in
      stop -. node.start_s

let children = function
  | Noop -> []
  | Live node -> List.rev_map (fun c -> Live c) node.rev_children

let rec find s path =
  match path with
  | [] -> Some s
  | key :: rest -> (
      match
        List.find_opt (fun c -> String.equal (name c) key) (children s)
      with
      | Some child -> find child rest
      | None -> None)

let counter s cname =
  match s with
  | Noop -> 0
  | Live node -> (
      match Hashtbl.find_opt node.node_counters cname with
      | Some r -> !r
      | None -> 0)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters = function
  | Noop -> []
  | Live node -> sorted_bindings node.node_counters ( ! )

let gauges = function
  | Noop -> []
  | Live node -> sorted_bindings node.node_gauges Fun.id

let dists = function
  | Noop -> []
  | Live node ->
      sorted_bindings node.node_dists (fun d ->
          { n = d.d_n; sum = d.d_sum; min_v = d.d_min; max_v = d.d_max })

let flat_counters s =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let rec go prefix s =
    List.iter
      (fun (k, v) ->
        let key = prefix ^ k in
        Hashtbl.replace acc key (v + Option.value ~default:0 (Hashtbl.find_opt acc key)))
      (counters s);
    List.iter (fun c -> go (prefix ^ name c ^ "/") c) (children s)
  in
  go "" s;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* -------------------------- rendering ---------------------------- *)

let to_text s =
  match s with
  | Noop -> ""
  | Live _ ->
      let b = Buffer.create 1024 in
      let rec go depth s =
        let pad = String.make (2 * depth) ' ' in
        Buffer.add_string b
          (Printf.sprintf "%s%-*s %9.3fs\n" pad
             (Int.max 1 (32 - (2 * depth)))
             (name s) (duration_s s));
        let metric fmt = Printf.ksprintf (fun line ->
            Buffer.add_string b (pad ^ "    " ^ line ^ "\n")) fmt
        in
        List.iter (fun (k, v) -> metric "%s = %d" k v) (counters s);
        List.iter (fun (k, v) -> metric "%s = %g" k v) (gauges s);
        List.iter
          (fun (k, d) ->
            metric "%s: n=%d sum=%g min=%g max=%g avg=%g" k d.n d.sum d.min_v
              d.max_v
              (d.sum /. float_of_int (Int.max 1 d.n)))
          (dists s);
        List.iter (go (depth + 1)) (children s)
      in
      go 0 s;
      Buffer.contents b

let rec to_json s =
  match s with
  | Noop -> Json.Null
  | Live _ ->
      let fields = ref [] in
      let add k v = fields := (k, v) :: !fields in
      add "name" (Json.String (name s));
      add "duration_s" (Json.Float (duration_s s));
      (match counters s with
       | [] -> ()
       | cs -> add "counters" (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)));
      (match gauges s with
       | [] -> ()
       | gs -> add "gauges" (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) gs)));
      (match dists s with
       | [] -> ()
       | ds ->
           add "dists"
             (Json.Obj
                (List.map
                   (fun (k, d) ->
                     ( k,
                       Json.Obj
                         [ ("n", Json.Int d.n);
                           ("sum", Json.Float d.sum);
                           ("min", Json.Float d.min_v);
                           ("max", Json.Float d.max_v) ] ))
                   ds)));
      (match children s with
       | [] -> ()
       | cs -> add "children" (Json.List (List.map to_json cs)));
      Json.Obj (List.rev !fields)
