(** Determinism & hot-path lint over the repo's OCaml sources — the
    syntactic tier of the two-tier analyzer, plus the shared report and
    suppression machinery used by both tiers.

    Tier 1 (this module) is built on [compiler-libs.common] only: each
    [.ml] file is parsed with the compiler's own lexer/parser
    ([Parse.implementation]) and the resulting Parsetree is walked with
    [Ast_iterator] against a fixed registry of rules (see {!rules}). The
    reproduction's headline property — bit-identical volumes across runs,
    replayable fuzz seeds — depends on never letting hash-table iteration
    order, polymorphic structural comparison or ambient wall-clock reads
    leak into observable output; this pass rejects those patterns
    statically.

    Tier 2 (see {!Lint_typed}) loads [.cmt] files, builds a cross-module
    call graph over the Typedtree and runs the typed rules
    [task-capture-race], [cache-ambient-read] and [hot-path-alloc]. Its
    findings are routed back through this module's per-file {!scan}s so
    one suppression mechanism serves both tiers.

    Findings are suppressible with an attribute carrying a mandatory
    justification. Attachment points: expression, let-binding, module
    binding, structure item, or floating (module level — covers the rest
    of the enclosing structure):

    {[
      (Hashtbl.iter visit tbl) [@tqec.allow "hashtbl-unsorted: per-key work is commutative"]
      let[@tqec.allow "poly-compare: keys are immediate ints"] f x = ...
      module[@tqec.allow "hot-path-alloc: setup code"] M = struct ... end
      [@@@tqec.allow "cache-ambient-read: module holds pool config, keys exclude it by design"]
    ]}

    The payload is one string of the form ["rule-name: justification"]; a
    malformed payload, an unknown rule name or an attribute that suppresses
    nothing are themselves findings ([bad-allow] / [unused-allow]). *)

type tier = Syntactic | Typed

val tier_name : tier -> string
(** ["syntactic"] / ["typed"] — the [tier] strings of the JSON schema. *)

type finding = {
  rule : string;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
  tier : tier;
}

type suppressed = { s_finding : finding; s_justification : string }

type report = {
  findings : finding list;
      (** unsuppressed findings, sorted by file, line, column, rule *)
  suppressed : suppressed list;  (** same order; each used [@tqec.allow] hit *)
  files_scanned : int;
  wall_s : float;  (** wall-clock of the scan that produced the report *)
}

val attr_name : string
(** ["tqec.allow"] — the suppression attribute recognised by both tiers. *)

val hot_attr_name : string
(** ["tqec.hot"] — marks a function as a hot kernel for the typed
    [hot-path-alloc] rule (consumed by {!Lint_graph}/{!Lint_hot}). *)

val env_read_fns : string list
(** The environment readers: the syntactic [ambient-effect] rule flags them
    outside bin/ and lib/prelude/, and the typed [cache-ambient-read] rule
    treats them as ambient facts (consumed by {!Lint_graph}). *)

val schema_version : int
(** Version of the {!to_json} shape; bumped on any incompatible change. *)

val rules : (string * tier * string) list
(** [(name, tier, one-line description)] for every real rule, in report
    order. Pseudo-rules [parse-error], [bad-allow], [unused-allow],
    [cmt-missing] and [cmt-stale] are emitted by the harness itself and
    cannot be suppressed. *)

val known_rule : string -> bool

val rule_tier : string -> tier
(** Tier of a rule name; pseudo-rules map to the tier that emits them. *)

(** {1 Scans}

    A [scan] is the per-file unit of work: the syntactic walk's findings
    plus the file's allow table. The typed tier routes its cross-module
    findings into the owning file's scan ({!add_typed_finding}) so range
    matching, suppression accounting and unused-allow reporting are shared.
    [foreign] scans contribute only their allow table and absorbed typed
    findings — used when a typed finding lands in a file outside the
    requested set. *)

type scan

val scan_source :
  ?foreign:bool -> ?keep:(string -> bool) -> file:string -> string -> scan
(** Parse and walk one compilation unit given as in-memory source. [file]
    is used for locations and for the path-scoped rules: [ambient-effect]
    is waived under [lib/prelude/], [exit] under [bin/]. [keep] filters
    rules by name (--only/--ignore); dropped rules report nothing, and
    their allows are exempt from unused-allow. *)

val scan_file : ?foreign:bool -> ?keep:(string -> bool) -> string -> scan
(** [scan_source] over a file's contents; an unreadable file yields a
    [parse-error] finding rather than an exception. *)

val scan_files : ?keep:(string -> bool) -> string list -> scan list
(** Scan each path in order, one at a time: the compiler-libs parser is
    not safe to run on several domains at once. *)

val scan_path : scan -> string

val add_typed_finding :
  scan -> rule:string -> line:int -> col:int -> message:string -> unit
(** Route a typed-tier finding through the scan's allow table: a covering
    [@tqec.allow] for the rule (innermost range containing the position)
    records a suppression, otherwise the finding stands. *)

val cut_allowed :
  scan -> rule:string -> line:int -> col:int -> note:string -> bool
(** True when an allow for [rule] covers the position; marks it used and
    records [note] as a suppressed entry. Used by the typed tier to prune
    traversal at an allowed call site (the subtree behind the call is then
    not analysed, and the report says so). *)

val finalize_scans : ?wall_s:float -> scan list -> report
(** Unused-allow accounting (non-foreign scans only) + merge + sort. *)

(** {1 One-call entry points} *)

val lint_source : file:string -> string -> report
(** [finalize_scans [scan_source ~file src]] — the syntactic tier only. *)

val lint_files : ?keep:(string -> bool) -> string list -> report
(** Read and lint each path (syntactic tier only), merging per-file
    reports and recording wall-clock. *)

val merge : report list -> report

(** {1 Rendering} *)

val to_json : report -> Tqec_obs.Json.t
(** Stable machine-readable shape, [schema_version] {!schema_version}:
    [{ "schema_version": v, "files": n, "wall_s": s,
       "findings": [{..., "tier": "syntactic"|"typed"}, ...],
       "suppressed": [...], "by_rule": {...} }]. *)

val to_text : report -> string
(** [file:line:col: \[rule\] message] lines followed by a summary. *)

val to_github : report -> string
(** One GitHub Actions [::error file=..,line=..,col=..::] workflow command
    per unsuppressed finding (columns shifted to 1-based). *)
