module Json = Tqec_obs.Json
module Stopwatch = Tqec_prelude.Stopwatch
open Parsetree

type tier = Syntactic | Typed

let tier_name = function Syntactic -> "syntactic" | Typed -> "typed"

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  tier : tier;
}

type suppressed = { s_finding : finding; s_justification : string }

type report = {
  findings : finding list;
  suppressed : suppressed list;
  files_scanned : int;
  wall_s : float;
}

let attr_name = "tqec.allow"
let hot_attr_name = "tqec.hot"
let schema_version = 2

(* ------------------------------------------------------------------ *)
(* Rule registry                                                      *)
(* ------------------------------------------------------------------ *)

let rule_hashtbl = "hashtbl-unsorted"
let rule_poly = "poly-compare"
let rule_ambient = "ambient-effect"
let rule_float_eq = "float-lit-eq"
let rule_catch_all = "catch-all"
let rule_nth = "list-nth"
let rule_exit = "exit"
let rule_domain = "domain-spawn"
let rule_fs_write = "fs-write"
let rule_race = "task-capture-race"
let rule_cache = "cache-ambient-read"
let rule_hot = "hot-path-alloc"
let pseudo_parse = "parse-error"
let pseudo_bad_allow = "bad-allow"
let pseudo_unused = "unused-allow"
let pseudo_cmt_missing = "cmt-missing"
let pseudo_cmt_stale = "cmt-stale"

let rules =
  [ ( rule_hashtbl,
      Syntactic,
      "Hashtbl.iter/Hashtbl.fold enumerate in hash order; sort the result in \
       the same expression (List.sort/sort_uniq/stable_sort) or justify why \
       the order cannot be observed" );
    ( rule_poly,
      Syntactic,
      "polymorphic compare/min/max/Hashtbl.hash, or a comparison operator \
       applied to a syntactically composite operand (tuple, record, \
       non-constant constructor): use a typed comparator" );
    ( rule_ambient,
      Syntactic,
      "ambient nondeterminism (Random.*, Sys.time, Unix.gettimeofday, \
       Unix.time) outside lib/prelude: thread an Rng.t or use \
       Stopwatch.now_s; environment reads (Sys.getenv, Sys.getenv_opt, \
       Unix.getenv, Unix.environment) outside bin/ and lib/prelude: take \
       the setting as an argument or a command-line flag" );
    ( rule_float_eq,
      Syntactic,
      "equality against a float literal is representation-fragile; compare \
       with a tolerance or restructure" );
    ( rule_catch_all,
      Syntactic,
      "`with _ ->` swallows every exception including Out_of_memory and \
       Stack_overflow; match the exceptions actually expected" );
    ( rule_nth,
      Syntactic,
      "List.nth is O(n) per access (O(n^2) in loops); use an array, List.hd \
       or a single traversal" );
    (rule_exit, Syntactic, "Stdlib.exit outside bin/ hides control flow from callers");
    ( rule_domain,
      Syntactic,
      "raw parallelism primitives (Domain.spawn/Domain.join/Mutex.create) \
       outside lib/prelude: go through Taskpool so chunking, result order \
       and exception propagation stay deterministic" );
    ( rule_fs_write,
      Syntactic,
      "filesystem writes (open_out*, Out_channel.open_*, Sys.rename/remove/\
       mkdir, Unix file mutation) in lib/ outside the artifact store: route \
       persistent state through Tqec_artifact.Store so cache entries stay \
       atomic and auditable" );
    ( rule_race,
      Typed,
      "a task closure handed to a Taskpool entry point (parallel_init/\
       parallel_map/parallel_iteri) writes a mutable \
       location captured from outside the task body; parallel tasks must \
       return results through their slot, not mutate shared state \
       (bit-identity contract, PR 5)" );
    ( rule_cache,
      Typed,
      "a Stage.S implementation's run reads ambient state (Sys.getenv, file \
       reads, module-level mutable globals) transitively, and the same read \
       is not reachable from key: the artifact store would serve cache hits \
       across environments that produce different outputs (cache-soundness, \
       PR 6)" );
    ( rule_hot,
      Typed,
      "an allocating construct (closure, tuple/record/array build, \
       non-constant constructor, boxed int32/int64, List/Buffer building, \
       partial application) is transitively reachable from a [@tqec.hot] \
       kernel, or a [@tqec.hot] local function is bound inside a while/for \
       body and so rebuilt every iteration; hot loops must run \
       allocation-free" ) ]

let known_rule r = List.exists (fun (n, _, _) -> String.equal n r) rules

let rule_tier r =
  match List.find_opt (fun (n, _, _) -> String.equal n r) rules with
  | Some (_, t, _) -> t
  | None ->
      if String.equal r pseudo_cmt_missing || String.equal r pseudo_cmt_stale
      then Typed
      else Syntactic

(* Pseudo-rules are emitted by the harness itself and are not suppressible;
   they are appended to per-rule summaries after the real registry. *)
let pseudo_rules =
  [ pseudo_parse; pseudo_bad_allow; pseudo_unused; pseudo_cmt_missing;
    pseudo_cmt_stale ]

(* ------------------------------------------------------------------ *)
(* Identifier helpers                                                 *)
(* ------------------------------------------------------------------ *)

let ident_name lid =
  let s = String.concat "." (Longident.flatten lid) in
  let prefix = "Stdlib." in
  let pl = String.length prefix in
  if String.length s > pl && String.equal (String.sub s 0 pl) prefix then
    String.sub s pl (String.length s - pl)
  else s

let rec head_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (ident_name txt)
  | Pexp_apply (f, _) -> head_name f
  | _ -> None

let sort_fns = [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq" ]
let is_sort_fn n = List.exists (String.equal n) sort_fns
let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]
let eq_ops = [ "="; "<>"; "=="; "!=" ]

let starts_with ~prefix s =
  let pl = String.length prefix in
  String.length s >= pl && String.equal (String.sub s 0 pl) prefix

(* Path scoping for [ambient-effect] and [exit]. Paths arrive relative to
   the repo root (the Makefile runs `tqec_lint lib bin bench`); a leading
   "./" is tolerated. *)
let normalize_path file =
  if starts_with ~prefix:"./" file then
    String.sub file 2 (String.length file - 2)
  else file

let in_prelude file =
  let f = normalize_path file in
  starts_with ~prefix:"lib/prelude/" f
  || List.exists (String.equal "prelude") (String.split_on_char '/' f)

let in_bin file =
  let f = normalize_path file in
  starts_with ~prefix:"bin/" f
  || List.exists (String.equal "bin") (String.split_on_char '/' f)

(* The one lib/ module allowed to write to the filesystem: the artifact
   store (rule fs-write). bin/ and bench/ executables are also exempt —
   CLI output files are their business. *)
let in_store file =
  let f = normalize_path file in
  String.equal f "lib/artifact/store.ml"
  || (match List.rev (String.split_on_char '/' f) with
      | base :: dir :: _ -> String.equal dir "artifact" && String.equal base "store.ml"
      | _ -> false)

let in_bench file =
  let f = normalize_path file in
  starts_with ~prefix:"bench/" f
  || List.exists (String.equal "bench") (String.split_on_char '/' f)

(* ------------------------------------------------------------------ *)
(* Expression shape helpers                                            *)
(* ------------------------------------------------------------------ *)

(* A "constant-shaped" operand pins the comparison to an immediate or
   literal value: int/char/string literals, nullary constructors ([], None,
   true, ()), and constructors/tuples thereof (Some 3, (1, 2)). Comparing
   against such a value is deterministic, so rule poly-compare stands down;
   float literals are instead the business of float-lit-eq. *)
let rec constant_shaped e =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some arg) -> constant_shaped arg
  | Pexp_variant (_, None) -> true
  | Pexp_variant (_, Some arg) -> constant_shaped arg
  | Pexp_tuple es -> List.for_all constant_shaped es
  | _ -> false

(* Syntactically composite: the operand visibly builds a structured value,
   so a polymorphic operator on it performs a structural traversal. Bare
   variables and applications stay silent — without types we cannot tell an
   int from a record, and flagging every `a < b` would drown the signal. *)
let composite e =
  (not (constant_shaped e))
  &&
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _
  | Pexp_construct (_, Some _)
  | Pexp_variant (_, Some _)
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ ->
      true
  | _ -> false

let is_float_lit e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, [ (_, arg) ]) ->
      (String.equal op "~-." || String.equal op "~-" || String.equal op "~+.")
      && (match arg.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false)
  | _ -> false

let rec catch_all_pat p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) -> catch_all_pat q
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

(* An allow carries two locations: where the attribute itself sits (for
   unused-allow reports) and the source range of the construct it is
   attached to. The syntactic tier matches allows by walk scope (a stack);
   the typed tier, whose findings arrive after the walk from cross-module
   analysis, matches them by range containment instead. A floating
   [@@@tqec.allow] covers the remainder of its structure; its range runs to
   end-of-file, which for a floating allow inside a nested module is
   slightly wider than its stack scope — acceptable, since it only ever
   widens an explicitly written suppression. *)
type allow = {
  al_rule : string;
  al_just : string;
  al_line : int;
  al_col : int;
  al_sl : int;
  al_sc : int;
  al_el : int;
  al_ec : int;
  mutable al_used : int;
}

let split_payload s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
      let rule = String.trim (String.sub s 0 i) in
      let just = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      Some (rule, just)

(* ------------------------------------------------------------------ *)
(* Per-file linting state                                              *)
(* ------------------------------------------------------------------ *)

type scan = {
  st_file : string;
  st_keep : string -> bool;
  st_foreign : bool;
      (* a foreign scan only contributes its allow table (and any typed
         findings routed into it); its syntactic findings, unused-allow
         accounting and files_scanned weight are dropped. Used when a typed
         finding lands in a file outside the requested set. *)
  mutable st_findings : finding list;
  mutable st_suppressed : suppressed list;
  mutable st_stack : allow list;  (* innermost first *)
  mutable st_allows : allow list; (* every allow seen, for unused reporting *)
  mutable st_sorted_depth : int;
}

let scan_path st = st.st_file

let loc_pos (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let loc_end_pos (loc : Location.t) =
  (loc.loc_end.pos_lnum, loc.loc_end.pos_cnum - loc.loc_end.pos_bol)

let emit st rule (loc : Location.t) message =
  if st.st_keep rule && not st.st_foreign then begin
    let line, col = loc_pos loc in
    let f = { rule; file = st.st_file; line; col; message; tier = Syntactic } in
    let suppressible = known_rule rule in
    match
      if suppressible then
        List.find_opt (fun al -> String.equal al.al_rule rule) st.st_stack
      else None
    with
    | Some al ->
        al.al_used <- al.al_used + 1;
        st.st_suppressed <- { s_finding = f; s_justification = al.al_just } :: st.st_suppressed
    | None -> st.st_findings <- f :: st.st_findings
  end

(* Returns the allows pushed so the caller can pop them afterwards. [range]
   is the source span of the construct the attributes are attached to. *)
let push_allows st ~range:(sl, sc, el, ec) (attrs : attributes) =
  let pushed = ref 0 in
  List.iter
    (fun (a : attribute) ->
      if String.equal a.attr_name.txt attr_name then begin
        let line, col = loc_pos a.attr_loc in
        let reject msg = emit st pseudo_bad_allow a.attr_loc msg in
        match a.attr_payload with
        | PStr
            [ { pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _ } ] -> (
            match split_payload s with
            | None ->
                reject
                  (Printf.sprintf
                     "[@%s] payload must be \"rule-name: justification\"" attr_name)
            | Some (rule, just) ->
                if not (known_rule rule) then
                  reject (Printf.sprintf "unknown rule %S in [@%s]" rule attr_name)
                else if String.equal just "" then
                  reject
                    (Printf.sprintf "[@%s \"%s: ...\"] needs a non-empty justification"
                       attr_name rule)
                else begin
                  let al =
                    { al_rule = rule; al_just = just; al_line = line; al_col = col;
                      al_sl = sl; al_sc = sc; al_el = el; al_ec = ec; al_used = 0 }
                  in
                  st.st_stack <- al :: st.st_stack;
                  st.st_allows <- al :: st.st_allows;
                  incr pushed
                end)
        | _ ->
            reject
              (Printf.sprintf "[@%s] payload must be a single string literal" attr_name)
      end)
    attrs;
  !pushed

let pop_allows st n =
  for _ = 1 to n do
    match st.st_stack with [] -> () | _ :: tl -> st.st_stack <- tl
  done

let range_of_loc (loc : Location.t) =
  let sl, sc = loc_pos loc in
  let el, ec = loc_end_pos loc in
  (sl, sc, el, ec)

(* ------------------------------------------------------------------ *)
(* Typed-tier absorption                                               *)
(* ------------------------------------------------------------------ *)

let pos_leq (l1, c1) (l2, c2) = l1 < l2 || (l1 = l2 && c1 <= c2)

let covers al ~line ~col =
  pos_leq (al.al_sl, al.al_sc) (line, col) && pos_leq (line, col) (al.al_el, al.al_ec)

(* Innermost covering allow for [rule]: among ranges containing the point,
   the one starting latest (ranges nest, so the latest start is the
   tightest). *)
let covering_allow st ~rule ~line ~col =
  List.fold_left
    (fun best al ->
      if String.equal al.al_rule rule && covers al ~line ~col then
        match best with
        | Some b when pos_leq (al.al_sl, al.al_sc) (b.al_sl, b.al_sc) -> best
        | _ -> Some al
      else best)
    None st.st_allows

let add_typed_finding st ~rule ~line ~col ~message =
  if st.st_keep rule then begin
    let f = { rule; file = st.st_file; line; col; message; tier = Typed } in
    match
      if known_rule rule then covering_allow st ~rule ~line ~col else None
    with
    | Some al ->
        al.al_used <- al.al_used + 1;
        st.st_suppressed <-
          { s_finding = f; s_justification = al.al_just } :: st.st_suppressed
    | None -> st.st_findings <- f :: st.st_findings
  end

(* When a typed analysis declines to traverse a call edge because an allow
   covers the call site, the cut is recorded as a suppressed entry so the
   report still accounts for it (and the allow is not reported unused). *)
let cut_allowed st ~rule ~line ~col ~note =
  match if known_rule rule then covering_allow st ~rule ~line ~col else None with
  | Some al ->
      al.al_used <- al.al_used + 1;
      if st.st_keep rule then
        st.st_suppressed <-
          { s_finding = { rule; file = st.st_file; line; col; message = note; tier = Typed };
            s_justification = al.al_just }
          :: st.st_suppressed;
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Rule checks                                                         *)
(* ------------------------------------------------------------------ *)

let fs_write_fns =
  [ "open_out"; "open_out_bin"; "open_out_gen";
    "Out_channel.open_text"; "Out_channel.open_bin"; "Out_channel.open_gen";
    "Out_channel.with_open_text"; "Out_channel.with_open_bin";
    "Out_channel.with_open_gen";
    "Sys.rename"; "Sys.remove"; "Sys.mkdir"; "Sys.rmdir";
    "Unix.mkdir"; "Unix.rename"; "Unix.unlink"; "Unix.rmdir"; "Unix.openfile" ]

let env_read_fns = [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.environment" ]

let check_ident st (loc : Location.t) name =
  if List.exists (String.equal name) fs_write_fns then begin
    if not (in_bin st.st_file || in_bench st.st_file || in_store st.st_file)
    then
      emit st rule_fs_write loc
        (name ^ " outside lib/artifact/store.ml; persist through the artifact store")
  end
  else if String.equal name "compare" then
    emit st rule_poly loc
      "polymorphic compare; use Int.compare/String.compare/a typed comparator"
  else if String.equal name "min" || String.equal name "max" then
    emit st rule_poly loc
      (name
      ^ " is the polymorphic compare (a C call even on ints); use Int." ^ name
      ^ ", or on floats an explicit comparison that states the NaN behaviour")
  else if String.equal name "Hashtbl.hash" || String.equal name "Hashtbl.seeded_hash"
  then emit st rule_poly loc "polymorphic Hashtbl.hash on an unconstrained type"
  else if String.equal name "Hashtbl.iter" || String.equal name "Hashtbl.fold" then begin
    if st.st_sorted_depth = 0 then
      emit st rule_hashtbl loc
        (name
        ^ " enumerates in hash order; sort the result in the same expression or \
           add [@tqec.allow] with a justification")
  end
  else if String.equal name "List.nth" || String.equal name "List.nth_opt" then
    emit st rule_nth loc (name ^ " is O(n) per access")
  else if String.equal name "exit" then begin
    if not (in_bin st.st_file) then
      emit st rule_exit loc "Stdlib.exit outside bin/"
  end
  else if
    String.equal name "Sys.time"
    || String.equal name "Unix.gettimeofday"
    || String.equal name "Unix.time"
    || String.equal name "Random" || starts_with ~prefix:"Random." name
  then begin
    if not (in_prelude st.st_file) then
      emit st rule_ambient loc (name ^ " outside lib/prelude")
  end
  else if List.exists (String.equal name) env_read_fns then begin
    if not (in_prelude st.st_file || in_bin st.st_file) then
      emit st rule_ambient loc
        (name ^ " outside bin/ and lib/prelude; take the setting as an argument or a flag")
  end
  else if
    String.equal name "Domain.spawn"
    || String.equal name "Domain.join"
    || String.equal name "Mutex.create"
  then begin
    if not (in_prelude st.st_file) then
      emit st rule_domain loc (name ^ " outside lib/prelude; use Taskpool")
  end

let check_operator st e op args =
  match args with
  | [ (_, a); (_, b) ] ->
      if
        List.exists (String.equal op) eq_ops
        && (is_float_lit a || is_float_lit b)
      then emit st rule_float_eq e.pexp_loc ("(" ^ op ^ ") against a float literal")
      else if
        List.exists (String.equal op) cmp_ops && (composite a || composite b)
      then
        emit st rule_poly e.pexp_loc
          ("polymorphic (" ^ op ^ ") on a structured operand")
  | _ -> ()

let check_cases st ~in_try cases =
  List.iter
    (fun c ->
      match c.pc_lhs.ppat_desc with
      | Ppat_exception q when catch_all_pat q ->
          emit st rule_catch_all c.pc_lhs.ppat_loc
            "catch-all `exception _` match case"
      | _ ->
          if in_try && catch_all_pat c.pc_lhs then
            emit st rule_catch_all c.pc_lhs.ppat_loc
              "catch-all `with _ ->` handler")
    cases

(* ------------------------------------------------------------------ *)
(* AST walk                                                            *)
(* ------------------------------------------------------------------ *)

let iterator st =
  let open Ast_iterator in
  let expr self e =
    let pushed = push_allows st ~range:(range_of_loc e.pexp_loc) e.pexp_attributes in
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } -> check_ident st loc (ident_name txt)
     | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, args)
       when List.exists (String.equal op) (cmp_ops @ [ "=="; "!=" ]) ->
         check_operator st e op args
     | Pexp_try (_, cases) -> check_cases st ~in_try:true cases
     | Pexp_match (_, cases) -> check_cases st ~in_try:false cases
     | _ -> ());
    (* Traversal. Applications are walked by hand so that an expression
       feeding a List.sort* — directly as an argument, or through |> / @@ —
       clears the hashtbl-unsorted rule for its whole subtree. *)
    (match e.pexp_desc with
     | Pexp_apply (f, args) ->
         let enter_sorted thunk =
           st.st_sorted_depth <- st.st_sorted_depth + 1;
           thunk ();
           st.st_sorted_depth <- st.st_sorted_depth - 1
         in
         let head_is_sort ex =
           match head_name ex with Some n -> is_sort_fn n | None -> false
         in
         let fname = match f.pexp_desc with
           | Pexp_ident { txt; _ } -> Some (ident_name txt)
           | _ -> None
         in
         (match (fname, args) with
          | Some n, _ when is_sort_fn n ->
              self.expr self f;
              enter_sorted (fun () ->
                  List.iter (fun (_, a) -> self.expr self a) args)
          | Some "|>", [ (_, lhs); (_, rhs) ] when head_is_sort rhs ->
              enter_sorted (fun () -> self.expr self lhs);
              self.expr self rhs
          | Some "@@", [ (_, lhs); (_, rhs) ] when head_is_sort lhs ->
              self.expr self lhs;
              enter_sorted (fun () -> self.expr self rhs)
          | _ ->
              self.expr self f;
              List.iter (fun (_, a) -> self.expr self a) args)
     | _ -> default_iterator.expr self e);
    pop_allows st pushed
  in
  let value_binding self vb =
    let pushed = push_allows st ~range:(range_of_loc vb.pvb_loc) vb.pvb_attributes in
    default_iterator.value_binding self vb;
    pop_allows st pushed
  in
  let module_binding self mb =
    let pushed = push_allows st ~range:(range_of_loc mb.pmb_loc) mb.pmb_attributes in
    default_iterator.module_binding self mb;
    pop_allows st pushed
  in
  let structure_item self item =
    match item.pstr_desc with
    | Pstr_eval (e, attrs) ->
        let pushed = push_allows st ~range:(range_of_loc item.pstr_loc) attrs in
        self.expr self e;
        pop_allows st pushed
    | _ -> default_iterator.structure_item self item
  in
  (* A floating [@@@tqec.allow "rule: ..."] covers the remaining items of
     the enclosing structure (file or module body). The pushes accumulate
     as the items are walked in order and are popped together at the end,
     so an allow never reaches backwards. *)
  let structure self items =
    let pushed = ref 0 in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_attribute a when String.equal a.attr_name.txt attr_name ->
            let sl, sc = loc_pos a.attr_loc in
            pushed := !pushed + push_allows st ~range:(sl, sc, max_int, max_int) [ a ]
        | _ -> self.structure_item self item)
      items;
    pop_allows st !pushed
  in
  { default_iterator with expr; value_binding; module_binding; structure_item;
    structure }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let keep_all = fun (_ : string) -> true

let scan_source ?(foreign = false) ?(keep = keep_all) ~file source =
  let st =
    { st_file = file;
      st_keep = keep;
      st_foreign = foreign;
      st_findings = [];
      st_suppressed = [];
      st_stack = [];
      st_allows = [];
      st_sorted_depth = 0 }
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  (match
     try Ok (Parse.implementation lexbuf) with
     | Syntaxerr.Error err -> Error (Syntaxerr.location_of_error err, "syntax error")
     | Lexer.Error (_, loc) -> Error (loc, "lexer error")
   with
   | Ok structure ->
       let it = iterator st in
       it.structure it structure
   | Error (loc, msg) -> emit st pseudo_parse loc msg);
  st

let read_file path =
  In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)

let scan_file ?(foreign = false) ?(keep = keep_all) path =
  match try Ok (read_file path) with Sys_error msg -> Error msg with
  | Ok src -> scan_source ~foreign ~keep ~file:path src
  | Error msg ->
      let st = scan_source ~foreign ~keep ~file:path "" in
      emit st pseudo_parse Location.none msg;
      st

(* One file after another: the compiler-libs lexer and parser keep global
   state (comment and string buffers, the current lexbuf), so parses on
   different domains race and fail at random. *)
let scan_files ?(keep = keep_all) paths = List.map (fun p -> scan_file ~keep p) paths

let finalize_scans ?(wall_s = 0.) scans =
  let findings = ref [] and suppressed = ref [] and files = ref 0 in
  List.iter
    (fun st ->
      if not st.st_foreign then begin
        incr files;
        List.iter
          (fun al ->
            if al.al_used = 0 && st.st_keep al.al_rule then
              st.st_findings <-
                { rule = pseudo_unused;
                  file = st.st_file;
                  line = al.al_line;
                  col = al.al_col;
                  message =
                    Printf.sprintf "[@%s \"%s: ...\"] suppresses nothing here"
                      attr_name al.al_rule;
                  tier = Syntactic }
                :: st.st_findings)
          st.st_allows
      end;
      findings := st.st_findings @ !findings;
      suppressed := st.st_suppressed @ !suppressed)
    scans;
  { findings = List.sort compare_findings !findings;
    suppressed =
      List.sort (fun a b -> compare_findings a.s_finding b.s_finding) !suppressed;
    files_scanned = !files;
    wall_s }

let lint_source ~file source = finalize_scans [ scan_source ~file source ]

let merge reports =
  { findings =
      List.sort compare_findings (List.concat_map (fun r -> r.findings) reports);
    suppressed =
      List.sort
        (fun a b -> compare_findings a.s_finding b.s_finding)
        (List.concat_map (fun r -> r.suppressed) reports);
    files_scanned = List.fold_left (fun n r -> n + r.files_scanned) 0 reports;
    wall_s = List.fold_left (fun w r -> Float.max w r.wall_s) 0. reports }

let lint_files ?(keep = keep_all) paths =
  let t0 = Stopwatch.now_s () in
  let scans = scan_files ~keep paths in
  finalize_scans ~wall_s:(Stopwatch.now_s () -. t0) scans

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let finding_json f =
  Json.Obj
    [ ("rule", Json.String f.rule);
      ("tier", Json.String (tier_name f.tier));
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.String f.message) ]

let count_rule r name =
  ( List.length (List.filter (fun f -> String.equal f.rule name) r.findings),
    List.length
      (List.filter (fun s -> String.equal s.s_finding.rule name) r.suppressed) )

let summary_rule_names =
  List.map (fun (n, _, _) -> n) rules @ pseudo_rules

let to_json r =
  let by_rule =
    List.filter_map
      (fun name ->
        let found, supp = count_rule r name in
        if found = 0 && supp = 0 then None
        else
          Some
            ( name,
              Json.Obj
                [ ("findings", Json.Int found); ("suppressed", Json.Int supp) ] ))
      summary_rule_names
  in
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("files", Json.Int r.files_scanned);
      ("wall_s", Json.Float r.wall_s);
      ("findings", Json.List (List.map finding_json r.findings));
      ("suppressed",
       Json.List
         (List.map
            (fun s ->
              match finding_json s.s_finding with
              | Json.Obj fields ->
                  Json.Obj
                    (fields @ [ ("justification", Json.String s.s_justification) ])
              | other -> other)
            r.suppressed));
      ("by_rule", Json.Obj by_rule) ]

let to_text r =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.rule f.message))
    r.findings;
  Buffer.add_string b
    (Printf.sprintf "%d file(s) scanned in %.2fs, %d finding(s), %d suppressed\n"
       r.files_scanned r.wall_s (List.length r.findings) (List.length r.suppressed));
  List.iter
    (fun name ->
      let found, supp = count_rule r name in
      if found > 0 || supp > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %-18s findings=%d suppressed=%d\n" name found supp))
    summary_rule_names;
  Buffer.contents b

(* GitHub Actions workflow commands: one ::error per unsuppressed finding,
   so findings annotate the diff inline on PRs. Lines/cols are 1-based in
   the annotation model; our cols are 0-based compiler-style, so shift. *)
let to_github r =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "::error file=%s,line=%d,col=%d::[%s] %s\n" f.file f.line
           (f.col + 1) f.rule f.message))
    r.findings;
  Buffer.contents b
