module type S = sig
  type input
  type output

  val name : string
  val version : string
  val key : input -> string
  val run : trace:Tqec_obs.Trace.span -> input -> output
  val encode : output -> Tqec_obs.Json.t
  val decode : input -> Tqec_obs.Json.t -> output
end

type ('i, 'o) stage = (module S with type input = 'i and type output = 'o)

let cache_key (type i o) (stage : (i, o) stage) (input : i) =
  let module St = (val stage) in
  let module Sha256 = Tqec_prelude.Hash.Sha256 in
  (* The digest of [name ^ "\x00" ^ version ^ "\x00" ^ key], fed piece by
     piece so the (often several KB) key is never copied. *)
  let h = Sha256.create () in
  List.iter (Sha256.add_string h) [ St.name; "\x00"; St.version; "\x00"; St.key input ];
  Sha256.hex h
