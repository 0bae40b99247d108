(* Property-based fuzzing driver: random circuits through the full pipeline,
   checked against the differential properties of Tqec_fuzzing.Props. Exits
   non-zero on the first counterexample and prints the exact command line
   that replays it.

   Work is spread over the Taskpool (TQEC_DOMAINS): the run splits each
   property into batches of at most [batch_cases] cases with seeds derived
   from the master seed by batch index, and routes every (property, batch)
   pair through the pool. Batching depends only on [count] — never on the
   domain count — so the batch a case lands in, and therefore every replay
   seed, is stable across pool sizes. A printed replay line re-runs its
   batch with [--count] at most [batch_cases], which is below the batching
   threshold and thus reproduces the failure without re-batching. *)

open Cmdliner
module Props = Tqec_fuzzing.Props
module Property = Tqec_proptest.Property
module Pool = Tqec_prelude.Pool
module Rng = Tqec_prelude.Rng

let batch_cases = 25

(* Batch seeds: batch 0 keeps the master seed (a run with [count <=
   batch_cases] is byte-compatible with the historical single-batch driver);
   later batches draw from indexed SplitMix64 streams. The same schedule is
   used for every property, mirroring the sequential driver which ran each
   property from the same master seed. *)
let batch_seed ~seed j =
  if j = 0 then seed
  else Int64.to_int (Rng.int64 (Rng.stream ~root:seed j)) land max_int

let batches ~seed ~count =
  let nbatches = Int.max 1 ((count + batch_cases - 1) / batch_cases) in
  List.init nbatches (fun j ->
      (batch_seed ~seed j, Int.min batch_cases (count - (j * batch_cases))))

let run seed count max_qubits max_gates prop_filter =
  let props = Props.all ~max_qubits ~max_gates in
  let props =
    match prop_filter with
    | None -> props
    | Some p -> List.filter (fun pr -> Props.name pr = p) props
  in
  if props = [] then begin
    Printf.eprintf "unknown property %s; available: %s\n"
      (Option.value ~default:"" prop_filter)
      (String.concat ", " (List.map Props.name (Props.all ~max_qubits ~max_gates)));
    exit 2
  end;
  let plan = batches ~seed ~count in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun p -> List.map (fun (bseed, bcount) -> (p, bseed, bcount)) plan)
         props)
  in
  let outcomes =
    Pool.parallel_map (Pool.global ())
      (fun (p, bseed, bcount) -> Props.run_prop ~count:bcount ~seed:bseed p)
      tasks
  in
  (* Report per property, in declaration order; inside a property, batch
     outcomes arrive in batch order, so the failure chosen below is the
     earliest-seeded one — identical for every domain count. *)
  let nbatches = List.length plan in
  let failed = ref false in
  List.iteri
    (fun pi p ->
      if not !failed then begin
        Printf.printf "%-24s " (Props.name p);
        flush stdout;
        let first_failure = ref None in
        let cases = ref 0 in
        for j = 0 to nbatches - 1 do
          match outcomes.((pi * nbatches) + j) with
          | Property.Pass { cases = c; _ } -> cases := !cases + c
          | Property.Fail f ->
              if !first_failure = None then first_failure := Some f
        done;
        match !first_failure with
        | None -> Printf.printf "ok (%d cases)\n" !cases
        | Some f ->
            failed := true;
            Printf.printf "FAILED\n%s\n" (Property.describe f);
            Printf.printf
              "replay: tqec_fuzz --seed %d --count %d --max-qubits %d \
               --max-gates %d --prop %s\n"
              f.Property.seed f.Property.count max_qubits max_gates
              (Props.name p)
      end)
    props;
  if !failed then exit 1

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed; every failure replays from it.")

let count =
  Arg.(value & opt int 100 & info [ "count" ] ~doc:"Cases per property.")

let max_qubits =
  Arg.(value & opt int 6 & info [ "max-qubits" ] ~doc:"Upper bound on generated qubit counts.")

let max_gates =
  Arg.(value & opt int 20 & info [ "max-gates" ] ~doc:"Upper bound on generated gate counts.")

let prop =
  Arg.(value & opt (some string) None & info [ "prop" ] ~docv:"NAME"
         ~doc:"Run a single property (decomposition-semantics, volume-vs-lin,
               oracle-agreement).")

let cmd =
  let doc = "property-based fuzzing of the compression pipeline" in
  Cmd.v
    (Cmd.info "tqec_fuzz" ~doc)
    Term.(const run $ seed $ count $ max_qubits $ max_gates $ prop)

let () = exit (Cmd.eval cmd)
