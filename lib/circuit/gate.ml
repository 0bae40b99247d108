type t =
  | Not of int
  | Cnot of { control : int; target : int }
  | Toffoli of { c1 : int; c2 : int; target : int }
  | Fredkin of { control : int; a : int; b : int }
  | H of int
  | P of int
  | Pdag of int
  | V of int
  | Vdag of int
  | T of int
  | Tdag of int
  | Z of int

let qubits = function
  | Not q | H q | P q | Pdag q | V q | Vdag q | T q | Tdag q | Z q -> [ q ]
  | Cnot { control; target } -> [ control; target ]
  | Toffoli { c1; c2; target } -> [ c1; c2; target ]
  | Fredkin { control; a; b } -> [ control; a; b ]

let max_qubit g = List.fold_left Int.max 0 (qubits g)

let is_tqec_supported = function
  | Cnot _ | P _ | Pdag _ | V _ | Vdag _ | T _ | Tdag _ | Not _ | Z _ -> true
  | Toffoli _ | Fredkin _ | H _ -> false

let is_t_type = function T _ | Tdag _ -> true | _ -> false

let equal (a : t) (b : t) = a = b

let to_string = function
  | Not q -> Printf.sprintf "X %d" q
  | Cnot { control; target } -> Printf.sprintf "CNOT %d %d" control target
  | Toffoli { c1; c2; target } -> Printf.sprintf "TOF %d %d %d" c1 c2 target
  | Fredkin { control; a; b } -> Printf.sprintf "FRED %d %d %d" control a b
  | H q -> Printf.sprintf "H %d" q
  | P q -> Printf.sprintf "P %d" q
  | Pdag q -> Printf.sprintf "P+ %d" q
  | V q -> Printf.sprintf "V %d" q
  | Vdag q -> Printf.sprintf "V+ %d" q
  | T q -> Printf.sprintf "T %d" q
  | Tdag q -> Printf.sprintf "T+ %d" q
  | Z q -> Printf.sprintf "Z %d" q

let pp fmt g = Format.pp_print_string fmt (to_string g)
