(* hot-path-alloc: functions marked [@tqec.hot] — and everything they
   transitively call — must not allocate.

   The marker means "this runs inside a per-node/per-step loop"; the A*
   expansion step, the Dial-queue operations and the SHA-256 block loop
   execute millions of times per compression run, where even a short-lived
   minor allocation per iteration dominates the profile. Flagged
   constructs: closures, tuples, non-exception constructor applications
   (error paths are exempt by design), records, array literals, lazy
   thunks, first-class modules, binding operators, `ref`, known allocating
   stdlib calls (list/array/string/bytes builders, Buffer, boxed-integer
   arithmetic, Printf/Format) and partial applications. Float arithmetic
   is deliberately not flagged: the compiler unboxes local float flows.
   A hot local function bound inside a while/for body is flagged at its
   binding site: its closure is rebuilt on every iteration, a cost the
   graph charges to the hot function itself (Lint_graph.walk_let), since
   the enclosing function that builds it need not be hot.

   Traversal enters function defs only and can be pruned at a call site
   covered by [@tqec.allow "hot-path-alloc: ..."] — the cut is recorded
   as a suppression so the allow never reads as unused. A site reachable
   from several hot roots is reported once, with the first chain found. *)

module G = Lint_graph

let check g ~in_units ~cut =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun (root : G.def) ->
      if root.G.d_hot && in_units root.G.d_unit then
        let hits =
          G.fold_reach g ~root:root.G.d_id
            ~enter:(fun ~src:_ ~site:_ (t : G.def) -> t.G.d_is_fun)
            ~cut:(fun ~src:_ ~site (t : G.def) ->
              cut ~site ~target:t.G.d_display)
            ~init:[]
            ~f:(fun acc (d : G.def) chain ->
              List.fold_left
                (fun acc (desc, (site : G.site)) ->
                  let k = (site.G.s_file, site.G.s_line, site.G.s_col, desc) in
                  if Hashtbl.mem seen k then acc
                  else begin
                    Hashtbl.replace seen k ();
                    ( site,
                      Printf.sprintf
                        "%s allocates (%s) on the hot path %s; hoist the \
                         allocation out of the kernel or justify it with \
                         [@tqec.allow]"
                        d.G.d_display desc
                        (String.concat " -> " chain) )
                    :: acc
                  end)
                acc d.G.d_allocs)
        in
        out := List.rev_append hits !out)
    (G.defs g);
  List.rev !out
