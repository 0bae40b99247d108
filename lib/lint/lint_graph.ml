(* Cross-module call graph over Typedtrees, for the typed lint tier.

   Built in two passes over every unit the cmt index loaded. Pass A walks
   each structure collecting *defs* (top-level and module-member bindings,
   plus local named functions), allocation facts, and *raw* value
   references (Path.t + site), while building the per-unit module-alias
   tables needed to resolve them. Pass B — once every unit's qualified
   names are registered — resolves each raw reference to an internal def
   (edge), an external name (classified against ambient/allocation
   tables), or Unknown.

   Path resolution mirrors how the compiler names things in 5.1 cmts:
   - references to other compilation units go through persistent idents
     (`Ident.persistent`), possibly via local module aliases
     (`module Pool = Tqec_prelude.Pool` introduces a stamped module ident
     that must be chased through the alias table);
   - dune's module wrapping means prefix "A" + submodule "B" is the unit
     "A__B" exactly when such a unit was loaded;
   - Stdlib members arrive as `Stdlib.Sys.getenv_opt` and are canonicalised
     by stripping the `Stdlib.` prefix;
   - `Ident.stamp` is not exposed by compiler-libs, so stamped idents are
     keyed by `Ident.unique_name`.

   Known limitations (documented, deliberate): facts behind first-class
   modules, functor applications and higher-order escapes are attributed
   where the closure is built, not where it eventually runs; writes through
   local aliases of captured structures are not chased; `let () = ...`
   module-initialisation effects are only visible through the globals they
   initialise. *)

type site = { s_file : string; s_line : int; s_col : int }

type amb =
  | Env_read of { fn : string; var : string option }
  | File_read of string
  | Global_read of string  (* def id of the module-level mutable binding *)

type def = {
  d_id : string;
  d_display : string;
  d_site : site;
  d_unit : string;
  d_hot : bool;
  d_is_fun : bool;
  d_mutable_global : bool;
  mutable d_edges : (string * site) list;  (* resolved internal references *)
  mutable d_ambient : (amb * site) list;
  mutable d_allocs : (string * site) list; (* description, site *)
  mutable d_body : Typedtree.expression option;
}

type stage = {
  sg_display : string;
  sg_unit : string;
  sg_site : site;
  sg_run : string option;  (* def ids of the members, when present *)
  sg_key : string option;
}

type entry_call = {
  ec_entry : string;  (* display name of the Taskpool entry point *)
  ec_unit : string;
  ec_site : site;
  ec_in_def : string;
  ec_args : Typedtree.expression list;
}

type resolved = Internal of string | External of string | Unknown

type t = {
  g_defs : (string, def) Hashtbl.t;
  mutable g_order : string list;  (* def ids, deterministic walk order *)
  mutable g_stages : stage list;
  mutable g_entries : entry_call list;
  g_by_qual : (string, string) Hashtbl.t;
  g_resolvers : (string, Path.t -> resolved) Hashtbl.t;  (* per unit *)
}

(* ------------------------------------------------------------------ *)
(* External classification tables                                     *)
(* ------------------------------------------------------------------ *)

let strip_stdlib s =
  if String.length s > 7 && String.equal (String.sub s 0 7) "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

(* "Tqec_prelude__Pool.parallel_init" -> "Tqec_prelude.Pool.parallel_init":
   suffix matching on dotted names must see through dune's wrapping. *)
let dotted s =
  String.concat "." (String.split_on_char '.' s |> List.concat_map (fun part ->
      (* split on "__" *)
      let n = String.length part in
      let out = ref [] and start = ref 0 and i = ref 0 in
      while !i < n - 1 do
        if part.[!i] = '_' && part.[!i + 1] = '_' then begin
          out := String.sub part !start (!i - !start) :: !out;
          i := !i + 2;
          start := !i
        end
        else incr i
      done;
      out := String.sub part !start (n - !start) :: !out;
      List.rev !out))

let suffix_matches ~suffixes name =
  let d = dotted name in
  List.exists
    (fun suf ->
      let ls = String.length suf and ld = String.length d in
      ld >= ls
      && String.equal (String.sub d (ld - ls) ls) suf
      && (ld = ls || d.[ld - ls - 1] = '.'))
    suffixes

let pool_entries =
  [ "Pool.parallel_init"; "Pool.parallel_map"; "Pool.parallel_iteri";
    "Taskpool.run" ]

let env_fns = Lint.env_read_fns

let file_fns =
  [ "open_in"; "open_in_bin"; "open_in_gen";
    "In_channel.open_text"; "In_channel.open_bin"; "In_channel.open_gen";
    "In_channel.with_open_text"; "In_channel.with_open_bin";
    "In_channel.with_open_gen";
    "Sys.file_exists"; "Sys.readdir"; "Sys.is_directory"; "Sys.getcwd";
    "Sys.command"; "Unix.stat"; "Unix.lstat"; "Unix.opendir"; "Unix.readdir";
    "Unix.getcwd"; "Digest.file" ]

let membership names =
  let tbl = Hashtbl.create (List.length names * 2) in
  List.iter (fun n -> Hashtbl.replace tbl n ()) names;
  fun n -> Hashtbl.mem tbl n

let is_env_fn = membership env_fns
let is_file_fn = membership file_fns

let alloc_fn_list =
  [ "List.map"; "List.mapi"; "List.map2"; "List.init"; "List.append";
    "List.concat"; "List.concat_map"; "List.flatten"; "List.filter";
    "List.filter_map"; "List.rev"; "List.rev_append"; "List.rev_map";
    "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "List.split"; "List.combine"; "List.partition"; "List.merge";
    "List.of_seq"; "List.to_seq"; "@"; "^";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.make_matrix";
    "Array.append"; "Array.concat"; "Array.sub"; "Array.copy";
    "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi";
    "Array.map2"; "Array.split"; "Array.combine"; "Array.of_seq";
    "Array.to_seq";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.trim"; "String.escaped"; "String.uppercase_ascii";
    "String.lowercase_ascii"; "String.capitalize_ascii";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.copy"; "Bytes.sub";
    "Bytes.extend"; "Bytes.cat"; "Bytes.concat"; "Bytes.of_string";
    "Bytes.to_string"; "Bytes.sub_string"; "Bytes.get_int32_be";
    "Bytes.get_int32_le"; "Bytes.get_int64_be"; "Bytes.get_int64_le";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes";
    "Buffer.add_string"; "Buffer.add_bytes"; "Buffer.add_subbytes";
    "Buffer.add_substring"; "Buffer.add_char";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.add"; "Hashtbl.replace";
    "Hashtbl.of_seq";
    "Queue.create"; "Queue.push"; "Queue.add"; "Queue.copy"; "Queue.of_seq";
    "Stack.create"; "Stack.push"; "Stack.of_seq";
    "ref"; "string_of_int"; "string_of_float"; "string_of_bool";
    "Int.to_string"; "Float.to_string"; "Float.of_string";
    "Digest.string"; "Digest.to_hex"; "Filename.concat"; "Filename.basename";
    "Filename.dirname"; "Marshal.to_string"; "Marshal.to_bytes";
    "Marshal.from_string"; "Marshal.from_bytes";
    "Option.map"; "Option.bind"; "Option.join"; "Option.to_list";
    "Result.map"; "Result.bind" ]

let is_alloc_fn_exact = membership alloc_fn_list

let has_prefix p s =
  String.length s >= String.length p
  && String.equal (String.sub s 0 (String.length p)) p

(* Boxed-integer arithmetic allocates its result; conversions *to* the
   immediate int do not. Float arithmetic is deliberately not flagged: the
   compiler unboxes local float flows, so flagging every `+.` would be
   noise without being evidence of an allocation. *)
let is_alloc_fn name =
  is_alloc_fn_exact name
  || ((has_prefix "Int32." name || has_prefix "Int64." name
       || has_prefix "Nativeint." name)
      && not
           (List.exists
              (fun suf -> suffix_matches ~suffixes:[ suf ] name)
              [ "to_int"; "compare"; "equal" ]))
  || has_prefix "Printf." name || has_prefix "Format." name
  || has_prefix "Scanf." name || has_prefix "Seq." name

let mutator_arg =
  [ (":=", 0); ("incr", 0); ("decr", 0);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2); ("Array.sort", 1); ("Array.stable_sort", 1);
    ("Array.fast_sort", 1);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Bytes.blit", 2); ("Bytes.blit_string", 2);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.clear", 0); ("Hashtbl.reset", 0);
    ("Hashtbl.filter_map_inplace", 1);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_bytes", 0);
    ("Buffer.clear", 0); ("Buffer.reset", 0); ("Buffer.truncate", 0);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0); ("Queue.transfer", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("Atomic.set", 0); ("Atomic.exchange", 0); ("Atomic.compare_and_set", 0);
    ("Atomic.fetch_and_add", 0); ("Atomic.incr", 0); ("Atomic.decr", 0);
    ("Bigarray.Array1.set", 0); ("Bigarray.Array1.unsafe_set", 0);
    ("Bigarray.Array1.fill", 0); ("Bigarray.Array1.blit", 1);
    ("Bigarray.Array2.set", 0); ("Bigarray.Array2.unsafe_set", 0);
    ("Bigarray.Array2.fill", 0) ]

let mutable_type_heads =
  [ "ref"; "array"; "bytes"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t";
    "Atomic.t"; "Bigarray.Array1.t"; "Bigarray.Array2.t" ]

let is_mutable_type_head = membership mutable_type_heads

(* ------------------------------------------------------------------ *)
(* Per-unit walk (pass A)                                             *)
(* ------------------------------------------------------------------ *)

type raw =
  | Rref of { path : Path.t; site : site; def : def }
  | Rapp of {
      path : Path.t;
      args : Typedtree.expression list;
      arrow : bool;
      lit : string option;
      site : site;
      def : def;
    }

type ctx = {
  cx_unit : string;
  cx_file : string;
  cx_short : string;
  cx_unit_exists : string -> bool;
  cx_aliases : (string, string) Hashtbl.t; (* Ident.unique_name -> prefix *)
  cx_locals : (string, string) Hashtbl.t;  (* Ident.unique_name -> def id *)
  mutable cx_qual : string;    (* qualified registration prefix *)
  mutable cx_disp : string;    (* display prefix *)
  mutable cx_cur : def;
  mutable cx_in_loop : bool;   (* inside a while/for body of the current fn *)
  mutable cx_raws : raw list;  (* reverse order; reversed at unit end *)
}

let short_unit name =
  match String.rindex_opt name '_' with
  | Some i when i > 0 && name.[i - 1] = '_' ->
      String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

let site_of ctx (loc : Location.t) =
  { s_file = ctx.cx_file;
    s_line = loc.loc_start.pos_lnum;
    s_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol }

let rec mod_prefix ctx (p : Path.t) =
  match p with
  | Path.Pident id ->
      if Ident.persistent id then Some (Ident.name id)
      else Hashtbl.find_opt ctx.cx_aliases (Ident.unique_name id)
  | Path.Pdot (m, s) -> (
      match mod_prefix ctx m with
      | None -> None
      | Some pfx ->
          let wrapped = pfx ^ "__" ^ s in
          if ctx.cx_unit_exists wrapped then Some wrapped
          else Some (pfx ^ "." ^ s))
  | _ -> None

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name) attrs

let rec pattern_vars : type k. k Typedtree.general_pattern -> Ident.t list =
 fun p ->
  let open Typedtree in
  let sub = List.concat_map (fun (q : pattern) -> pattern_vars q) in
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (q, id, _) -> id :: pattern_vars q
  | Tpat_tuple ps -> sub ps
  | Tpat_construct (_, _, ps, _) -> sub ps
  | Tpat_variant (_, Some q, _) -> pattern_vars q
  | Tpat_record (fields, _) -> sub (List.map (fun (_, _, q) -> q) fields)
  | Tpat_array ps -> sub ps
  | Tpat_lazy q -> pattern_vars q
  | Tpat_or (a, b, _) -> pattern_vars a @ pattern_vars b
  | Tpat_value v -> pattern_vars (v :> value Typedtree.general_pattern)
  | Tpat_exception q -> pattern_vars q
  | _ -> []

let is_function_expr (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let returns_arrow (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with Types.Tarrow _ -> true | _ -> false

let mutable_global_pat (p : Typedtree.pattern) =
  match Types.get_desc p.Typedtree.pat_type with
  | Types.Tconstr (path, _, _) ->
      is_mutable_type_head (strip_stdlib (Path.name path))
  | _ -> false

let exn_constructor (cstr : Types.constructor_description) =
  match Types.get_desc cstr.Types.cstr_res with
  | Types.Tconstr (path, _, _) -> String.equal (Path.name path) "exn"
  | _ -> false

let iter_expr (self : Tast_iterator.iterator) e = self.Tast_iterator.expr self e

let iter_item (self : Tast_iterator.iterator) it =
  self.Tast_iterator.structure_item self it

let init_def g ~unit_name ~file ~short =
  let id = unit_name ^ "/<init>" in
  match Hashtbl.find_opt g.g_defs id with
  | Some d -> d
  | None ->
      let d =
        { d_id = id; d_display = short ^ ".<init>";
          d_site = { s_file = file; s_line = 1; s_col = 0 };
          d_unit = unit_name; d_hot = false; d_is_fun = false;
          d_mutable_global = false; d_edges = []; d_ambient = [];
          d_allocs = []; d_body = None }
      in
      Hashtbl.replace g.g_defs id d;
      g.g_order <- id :: g.g_order;
      d

let register_def g ~id ~display ~site ~unit_name ~hot ~is_fun ~mutable_global
    ~body =
  match Hashtbl.find_opt g.g_defs id with
  | Some d -> d
  | None ->
      let d =
        { d_id = id; d_display = display; d_site = site; d_unit = unit_name;
          d_hot = hot; d_is_fun = is_fun; d_mutable_global = mutable_global;
          d_edges = []; d_ambient = []; d_allocs = []; d_body = body }
      in
      Hashtbl.replace g.g_defs id d;
      g.g_order <- id :: g.g_order;
      d

let record_alloc ctx desc (loc : Location.t) =
  let d = ctx.cx_cur in
  d.d_allocs <- (desc, site_of ctx loc) :: d.d_allocs

(* Run [k] with [cx_in_loop] set to [in_loop]: true in a while/for body,
   false again inside a function body, which runs when it is called, not
   once per iteration of a loop around its definition. *)
let with_loop ctx in_loop k =
  let saved = ctx.cx_in_loop in
  ctx.cx_in_loop <- in_loop;
  k ();
  ctx.cx_in_loop <- saved

let with_cur ctx d k =
  let saved = ctx.cx_cur in
  ctx.cx_cur <- d;
  with_loop ctx false k;
  ctx.cx_cur <- saved

let fn_binding (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) when is_function_expr vb.vb_expr -> Some id
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The pass-A walker                                                  *)
(* ------------------------------------------------------------------ *)

let rec walk_expr g ctx self (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
      ctx.cx_raws <-
        Rref { path = p; site = site_of ctx e.exp_loc; def = ctx.cx_cur }
        :: ctx.cx_raws
  | Texp_apply (f, args) -> (
      let vargs = List.filter_map snd args in
      (match f.exp_desc with
       | Texp_ident (p, _, _) ->
           let lit =
             match vargs with
             | { exp_desc = Texp_constant (Const_string (s, _, _)); _ } :: _ ->
                 Some s
             | _ -> None
           in
           ctx.cx_raws <-
             Rapp
               { path = p; args = vargs; arrow = returns_arrow e; lit;
                 site = site_of ctx e.exp_loc; def = ctx.cx_cur }
             :: ctx.cx_raws
       | _ -> iter_expr self f);
      List.iter (iter_expr self) vargs)
  | Texp_function _ ->
      (* One syntactic lambda chain = one runtime closure: record once and
         consume the curried chain so nested Texp_function nodes are not
         double-counted. *)
      record_alloc ctx "closure" e.exp_loc;
      with_loop ctx false (fun () -> walk_fn_chain self e)
  | Texp_while (cond, body) ->
      with_loop ctx true (fun () ->
          iter_expr self cond;
          iter_expr self body)
  | Texp_for (_, _, lo, hi, _, body) ->
      iter_expr self lo;
      iter_expr self hi;
      with_loop ctx true (fun () -> iter_expr self body)
  | Texp_let (_, vbs, body) ->
      walk_let g ctx self vbs;
      iter_expr self body
  | Texp_letmodule (id_opt, _, _, me, body) ->
      (match (id_opt, strip_mod me) with
       | Some id, { mod_desc = Tmod_ident (p, _); _ } -> (
           match mod_prefix ctx p with
           | Some pfx -> Hashtbl.replace ctx.cx_aliases (Ident.unique_name id) pfx
           | None -> ())
       | _ -> self.Tast_iterator.module_expr self me);
      iter_expr self body
  | Texp_tuple _ ->
      record_alloc ctx "tuple" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_construct (_, cstr, cargs) ->
      if cargs <> [] && not (exn_constructor cstr) then
        record_alloc ctx ("constructor " ^ cstr.cstr_name) e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_variant (_, Some _) ->
      record_alloc ctx "polymorphic variant" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_record _ ->
      record_alloc ctx "record" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_array _ ->
      record_alloc ctx "array literal" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_lazy _ ->
      record_alloc ctx "lazy thunk" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_pack _ ->
      record_alloc ctx "first-class module" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | Texp_letop _ ->
      record_alloc ctx "binding operator" e.exp_loc;
      Tast_iterator.default_iterator.expr self e
  | _ -> Tast_iterator.default_iterator.expr self e

(* Walk a function definition's right-hand side: the outer lambda chain is
   the definition itself, not an allocation performed by it. *)
and walk_fn_chain self (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          Option.iter (iter_expr self) c.c_guard;
          walk_fn_chain self c.c_rhs)
        cases
  | _ -> iter_expr self e

and walk_let g ctx self vbs =
  let open Typedtree in
  (* Pre-register local named functions as defs of their own (pre-pass is
     safe under shadowing because idents are keyed by unique_name). *)
  let locals =
    List.filter_map (fun vb -> Option.map (fun id -> (vb, id)) (fn_binding vb)) vbs
  in
  List.iter
    (fun ((vb : value_binding), id) ->
      let uname = Ident.unique_name id in
      let did = ctx.cx_unit ^ "/" ^ uname in
      let d =
        register_def g ~id:did
          ~display:(ctx.cx_cur.d_display ^ "." ^ Ident.name id)
          ~site:(site_of ctx vb.vb_pat.pat_loc) ~unit_name:ctx.cx_unit
          ~hot:(has_attr Lint.hot_attr_name vb.vb_attributes)
          ~is_fun:true ~mutable_global:false ~body:(Some vb.vb_expr)
      in
      Hashtbl.replace ctx.cx_locals uname d.d_id;
      record_alloc ctx ("closure (local fn " ^ Ident.name id ^ ")")
        vb.vb_pat.pat_loc;
      (* The enclosing function pays for that closure, and it need not be
         hot. But a hot local function bound inside a loop body is rebuilt
         on every iteration, so the allocation is charged to the hot
         function itself, at its binding site. *)
      if d.d_hot && ctx.cx_in_loop then
        d.d_allocs <-
          ( "closure rebuilt on every iteration of the enclosing while/for \
             loop",
            site_of ctx vb.vb_pat.pat_loc )
          :: d.d_allocs)
    locals;
  List.iter
    (fun (vb : value_binding) ->
      match fn_binding vb with
      | Some id ->
          let d =
            Hashtbl.find g.g_defs (ctx.cx_unit ^ "/" ^ Ident.unique_name id)
          in
          with_cur ctx d (fun () -> walk_fn_chain self vb.vb_expr)
      | None -> iter_expr self vb.vb_expr)
    vbs

and strip_mod (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me', _, _, _) -> strip_mod me'
  | _ -> me

let walk_top_bindings g ctx self vbs =
  let open Typedtree in
  let entries = List.map (fun vb -> (vb, pattern_vars vb.vb_pat)) vbs in
  (* Register every bound name first so `let rec f .. and g ..` and forward
     references inside mutually recursive bindings resolve. *)
  List.iter
    (fun ((vb : value_binding), ids) ->
      List.iter
        (fun id ->
          let uname = Ident.unique_name id in
          let did = ctx.cx_unit ^ "/" ^ uname in
          let single = match ids with [ _ ] -> true | _ -> false in
          let is_fun = single && is_function_expr vb.vb_expr in
          let mutable_global =
            (not is_fun)
            &&
            match vb.vb_pat.pat_desc with
            | Tpat_var _ -> mutable_global_pat vb.vb_pat
            | _ -> false
          in
          let d =
            register_def g ~id:did
              ~display:(ctx.cx_disp ^ "." ^ Ident.name id)
              ~site:(site_of ctx vb.vb_pat.pat_loc) ~unit_name:ctx.cx_unit
              ~hot:(has_attr Lint.hot_attr_name vb.vb_attributes)
              ~is_fun ~mutable_global
              ~body:(if single then Some vb.vb_expr else None)
          in
          Hashtbl.replace ctx.cx_locals uname d.d_id;
          Hashtbl.replace g.g_by_qual (ctx.cx_qual ^ "." ^ Ident.name id)
            d.d_id)
        ids)
    entries;
  List.iter
    (fun ((vb : value_binding), ids) ->
      match ids with
      | [ id ] ->
          let d =
            Hashtbl.find g.g_defs (ctx.cx_unit ^ "/" ^ Ident.unique_name id)
          in
          with_cur ctx d (fun () ->
              if d.d_is_fun then walk_fn_chain self vb.vb_expr
              else iter_expr self vb.vb_expr)
      | _ ->
          (* `let () = ...` and destructuring bindings: module init work. *)
          let d0 =
            init_def g ~unit_name:ctx.cx_unit ~file:ctx.cx_file
              ~short:ctx.cx_short
          in
          with_cur ctx d0 (fun () -> iter_expr self vb.vb_expr))
    entries

let rec walk_module g ctx self (mb : Typedtree.module_binding) =
  let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
  let me = strip_mod mb.mb_expr in
  match me.mod_desc with
  | Tmod_ident (p, _) -> (
      match (mb.mb_id, mod_prefix ctx p) with
      | Some id, Some pfx ->
          Hashtbl.replace ctx.cx_aliases (Ident.unique_name id) pfx
      | _ -> ())
  | Tmod_structure str ->
      let qual = ctx.cx_qual ^ "." ^ name in
      let disp = ctx.cx_disp ^ "." ^ name in
      (match mb.mb_id with
       | Some id -> Hashtbl.replace ctx.cx_aliases (Ident.unique_name id) qual
       | None -> ());
      in_scope ctx ~qual ~disp (fun () ->
          List.iter (iter_item self) str.str_items);
      (* A structure exposing name/version/run values is treated as an
         artifact Stage implementation (key may legitimately be absent in
         malformed stages — then every ambient read in run is a finding). *)
      let member m = Hashtbl.find_opt g.g_by_qual (qual ^ "." ^ m) in
      if member "name" <> None && member "version" <> None
         && member "run" <> None then
        g.g_stages <-
          { sg_display = disp; sg_unit = ctx.cx_unit;
            sg_site = site_of ctx mb.mb_loc; sg_run = member "run";
            sg_key = member "key" }
          :: g.g_stages
  | _ ->
      in_scope ctx ~qual:(ctx.cx_qual ^ "." ^ name)
        ~disp:(ctx.cx_disp ^ "." ^ name) (fun () ->
          Tast_iterator.default_iterator.module_expr self me)

and in_scope ctx ~qual ~disp k =
  let saved_q = ctx.cx_qual and saved_d = ctx.cx_disp in
  ctx.cx_qual <- qual;
  ctx.cx_disp <- disp;
  k ();
  ctx.cx_qual <- saved_q;
  ctx.cx_disp <- saved_d

let walk_str_item g ctx self (item : Typedtree.structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) -> walk_top_bindings g ctx self vbs
  | Tstr_module mb -> walk_module g ctx self mb
  | Tstr_recmodule mbs -> List.iter (walk_module g ctx self) mbs
  | Tstr_eval (e, _) ->
      let d0 =
        init_def g ~unit_name:ctx.cx_unit ~file:ctx.cx_file
          ~short:ctx.cx_short
      in
      with_cur ctx d0 (fun () -> iter_expr self e)
  | _ -> Tast_iterator.default_iterator.structure_item self item

let make_iterator g ctx =
  { Tast_iterator.default_iterator with
    expr = (fun self e -> walk_expr g ctx self e);
    structure_item = (fun self it -> walk_str_item g ctx self it) }

(* ------------------------------------------------------------------ *)
(* Pass B: resolution                                                 *)
(* ------------------------------------------------------------------ *)

let resolve_with g ctx (p : Path.t) =
  match p with
  | Path.Pident id ->
      if Ident.persistent id then External (Ident.name id)
      else (
        match Hashtbl.find_opt ctx.cx_locals (Ident.unique_name id) with
        | Some did -> Internal did
        | None -> Unknown)
  | Path.Pdot (m, v) -> (
      match mod_prefix ctx m with
      | Some pfx -> (
          let full = pfx ^ "." ^ v in
          match Hashtbl.find_opt g.g_by_qual full with
          | Some did -> Internal did
          | None -> External (strip_stdlib full))
      | None -> Unknown)
  | _ -> Unknown

let display_of g did =
  match Hashtbl.find_opt g.g_defs did with
  | Some d -> d.d_display
  | None -> did

let maybe_entry g ctx name ~site ~def args =
  if suffix_matches ~suffixes:pool_entries name then
    g.g_entries <-
      { ec_entry = name; ec_unit = ctx.cx_unit; ec_site = site;
        ec_in_def = def.d_id; ec_args = args }
      :: g.g_entries

let note_internal g def site did =
  if not (String.equal did def.d_id) then
    def.d_edges <- (did, site) :: def.d_edges;
  match Hashtbl.find_opt g.g_defs did with
  | Some target when target.d_mutable_global ->
      def.d_ambient <- (Global_read did, site) :: def.d_ambient
  | _ -> ()

let classify_external_ref def name site =
  if String.equal name "Sys.argv" then
    def.d_ambient <- (Env_read { fn = name; var = None }, site) :: def.d_ambient

let classify_external_app def name ~lit ~arrow ~site =
  if is_env_fn name then
    def.d_ambient <- (Env_read { fn = name; var = lit }, site) :: def.d_ambient
  else if is_file_fn name then
    def.d_ambient <- (File_read name, site) :: def.d_ambient;
  if is_alloc_fn name then
    def.d_allocs <- ("call to " ^ name, site) :: def.d_allocs
  else if arrow then
    def.d_allocs <- ("partial application of " ^ name, site) :: def.d_allocs

let resolve_unit g ctx =
  let resolve = resolve_with g ctx in
  Hashtbl.replace g.g_resolvers ctx.cx_unit resolve;
  List.iter
    (function
      | Rref { path; site; def } -> (
          match resolve path with
          | Internal did -> note_internal g def site did
          | External name -> classify_external_ref def name site
          | Unknown -> ())
      | Rapp { path; args; arrow; lit; site; def } -> (
          match resolve path with
          | Internal did ->
              note_internal g def site did;
              if arrow then
                def.d_allocs <-
                  ("partial application of " ^ display_of g did, site)
                  :: def.d_allocs;
              maybe_entry g ctx (display_of g did) ~site ~def args
          | External name ->
              classify_external_app def name ~lit ~arrow ~site;
              maybe_entry g ctx name ~site ~def args
          | Unknown ->
              if arrow then
                def.d_allocs <- ("partial application", site) :: def.d_allocs))
    ctx.cx_raws

let finish g =
  g.g_order <- List.rev g.g_order;
  g.g_stages <- List.rev g.g_stages;
  g.g_entries <- List.rev g.g_entries;
  List.iter
    (fun did ->
      let d = Hashtbl.find g.g_defs did in
      d.d_edges <- List.rev d.d_edges;
      d.d_ambient <- List.rev d.d_ambient;
      d.d_allocs <- List.rev d.d_allocs)
    g.g_order

let build ~ix ~file_of =
  let g =
    { g_defs = Hashtbl.create 512; g_order = []; g_stages = [];
      g_entries = []; g_by_qual = Hashtbl.create 512;
      g_resolvers = Hashtbl.create 32 }
  in
  let ctxs =
    List.map
      (fun (ui : Lint_cmt.unit_info) ->
        let short = short_unit ui.ui_name in
        let file = file_of ui in
        let ctx =
          { cx_unit = ui.ui_name; cx_file = file; cx_short = short;
            cx_unit_exists = (fun n -> Lint_cmt.unit_exists ix n);
            cx_aliases = Hashtbl.create 32; cx_locals = Hashtbl.create 64;
            cx_qual = ui.ui_name; cx_disp = short;
            cx_cur = init_def g ~unit_name:ui.ui_name ~file ~short;
            cx_in_loop = false; cx_raws = [] }
        in
        let iter = make_iterator g ctx in
        iter.Tast_iterator.structure iter ui.ui_str;
        ctx.cx_raws <- List.rev ctx.cx_raws;
        ctx)
      (Lint_cmt.units ix)
  in
  List.iter (resolve_unit g) ctxs;
  finish g;
  g

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let defs g = List.map (Hashtbl.find g.g_defs) g.g_order
let find_def g id = Hashtbl.find_opt g.g_defs id
let stages g = g.g_stages
let entries g = g.g_entries
let resolver g unit_name = Hashtbl.find_opt g.g_resolvers unit_name

let mutator_target name = List.assoc_opt name mutator_arg

let amb_key = function
  | Env_read { var = Some v; _ } -> "env:" ^ v
  | Env_read { fn; var = None } -> "env-fn:" ^ fn
  | File_read fn -> "file:" ^ fn
  | Global_read did -> "global:" ^ did

let amb_display g = function
  | Env_read { fn; var = Some v } -> Printf.sprintf "%s %S" fn v
  | Env_read { fn; var = None } -> fn
  | File_read fn -> fn
  | Global_read did -> (
      match find_def g did with
      | Some d -> "module-level mutable " ^ d.d_display
      | None -> "module-level mutable state")

(* Breadth-first reachability from [root]. [f] folds over every reached
   def with the display-name chain from the root. [enter] filters which
   edges are traversed; [cut] can additionally prune an edge and is only
   consulted for edges [enter] accepted (it may record a suppression). *)
let fold_reach g ~root ~enter ~cut ~init ~f =
  match find_def g root with
  | None -> init
  | Some d0 ->
      let visited = Hashtbl.create 64 in
      Hashtbl.replace visited root ();
      let q = Queue.create () in
      Queue.push (d0, [ d0.d_display ]) q;
      let acc = ref init in
      while not (Queue.is_empty q) do
        let d, chain = Queue.pop q in
        acc := f !acc d chain;
        List.iter
          (fun (tid, site) ->
            if not (Hashtbl.mem visited tid) then
              match find_def g tid with
              | None -> ()
              | Some t ->
                  if enter ~src:d ~site t && not (cut ~src:d ~site t) then begin
                    Hashtbl.replace visited tid ();
                    Queue.push (t, chain @ [ t.d_display ]) q
                  end)
          d.d_edges
      done;
      !acc
