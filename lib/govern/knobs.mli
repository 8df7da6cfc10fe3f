(** The engine's configuration as one immutable value.

    A {!t} holds every setting that changes how a statement is planned or
    executed: the executor engine, the static-validation and prover levels,
    the default per-statement budget, the four ablation switches of
    DESIGN.md section 5, and the two fault-injection parameters the test
    harnesses set. A session owns one {!t} and hands it (or the field that
    is needed) down the pipeline; nothing below reads a global.

    {!of_env} is the only parser of the [ASTQL_*] variables that feed it.
    A malformed value is an error naming the variable and the value — it
    never falls back to the default silently. *)

type engine =
  | Vector  (** batch-at-a-time over typed columns (the default) *)
  | Reference  (** naive oracle operators; testing only *)

(** Static IR validation ([ASTQL_VALIDATE], DESIGN.md section 12). *)
type validate =
  | Validate_off  (** no validation; every hook is one compare *)
  | Final_plan  (** validate the final rewritten plan (the default) *)
  | Every_candidate
      (** also builder output and every candidate compensation *)

(** Static prover activation ([ASTQL_PROVE], DESIGN.md section 17). *)
type prove =
  | Prove_off  (** no proving; subsumption falls back to syntax *)
  | At_rewrite
      (** semantic subsumption in the matcher and per-plan certificates
          (the default) *)
  | At_define
      (** additionally V118 and the L105 disjointness upgrade at
          definition/lint time *)

type t = {
  engine : engine;
  validate : validate;
  prove : prove;
  limits : Budget.limits;
      (** default per-statement budget; [ASTQL_DEADLINE_MS] and
          [ASTQL_MATCH_BUDGET] set its deadline and match cap *)
  equivalence_classes : bool;
      (** column-equivalence classes from join predicates (section 6) *)
  predicate_subsumption : bool;
      (** constant-relaxation predicate subsumption (footnote 4) *)
  greedy_derivation : bool;
      (** greedy largest-subexpression cover during derivation (section 6);
          when off only whole expressions and bare columns are covered *)
  smallest_cuboid : bool;
      (** pick the smallest matching cuboid of a grouping-sets summary
          (section 5.1); when off the first declared one that fits *)
  fault_seed : int option;
      (** [ASTQL_FAULT_SEED]: seed of the randomized fault-injection
          tests *)
  wire_stall_ms : float option;
      (** [ASTQL_WIRE_STALL_MS]: how long an armed [wire_stall_read] fault
          stalls a server connection *)
}

(** Vector engine, final-plan validation, proving at rewrite time,
    unlimited budget, every ablation switch on, no fault parameters. *)
val default : t

(** [of_env get] is {!default} with every [ASTQL_*] variable that [get]
    returns applied: [ASTQL_EXEC], [ASTQL_VALIDATE], [ASTQL_PROVE],
    [ASTQL_DEADLINE_MS], [ASTQL_MATCH_BUDGET], [ASTQL_FAULT_SEED] and
    [ASTQL_WIRE_STALL_MS]. An empty value counts as unset. The error names
    the first malformed variable and its value. *)
val of_env : (string -> string option) -> (t, string) result

(** [set t var value] applies one variable of {!of_env} (used for the
    command-line flag that overrides it). The error says what was expected,
    without naming the variable. Raises [Invalid_argument] for a name
    {!of_env} does not read. *)
val set : t -> string -> string -> (t, string) result

(** The process default: {!of_env} over the real environment, parsed once
    when the program starts. Raises [Invalid_argument] with the {!of_env}
    error when a variable is malformed. *)
val process : unit -> t

val engine_to_string : engine -> string
val validate_to_string : validate -> string
val prove_to_string : prove -> string

(** One line, e.g.
    ["engine=vector validate=final-plan prove=rewrite limits=unlimited"];
    ablation switches that are off and fault parameters that are set are
    appended. *)
val to_string : t -> string
