(** Worst-case response time of one task under static offsets and jitters
    (Sections 3.1.1 and 3.1.2, extended to abstract platforms by
    Section 3.2).

    Given the current offset and jitter assignment, computes the response
    time of task [(a, b)] — measured from the activation of its
    transaction — by examining busy periods started by every scenario:

    - {!Params.Exact}: one scenario per combination of initiating tasks
      across all transactions with interfering tasks (Eq. 12);
    - {!Params.Reduced}: scenarios range over the task's own transaction
      only, remote transactions contribute their scenario maximum W{^*}
      (Eq. 15–16).

    Every busy-period recurrence pays the platform delay Δ once and
    scales demands by 1/α.  [Divergent] is returned when a recurrence
    exceeds [params.horizon_factor * max period deadline].

    With [params.prune] (the default) the exact enumeration does not
    visit every scenario: the mixed-radix scenario space is explored as
    a digit tree and every block of at least eight scenarios whose
    optimistic bound — fixed digits at their actual demand, free digits
    at the scenario maximum W{^*} — cannot beat the best fully
    evaluated scenario is skipped; smaller blocks are enumerated, since
    a bound costs at least a leaf.  The enumeration is seeded with the
    W{^*}-argmax scenario, so the incumbent is strong from the first
    comparison.  Pruning never drops the maximising scenario (the bound
    is pointwise conservative and ties are kept until evaluated), so the
    returned bound is the exact same rational as the exhaustive
    enumeration — see docs/THEORY.md for the dominance argument.

    One site's enumeration is sequential.  {!Engine} parallelises across
    the sites of a Jacobi sweep instead, passing each call the pool slot
    that runs it. *)

(** Scenario accounting, shared by benchmarks and the CLI.  One unit is
    one remote scenario vector ν of Eq. 12 ([Reduced] counts 1 per
    call).  The counts are cumulative across calls and safe to bump and
    read concurrently; they are diagnostics only — never part of a
    {!Report.t}. *)
type counters

val counters : unit -> counters
(** A fresh set of zeroed counters. *)

val total_scenarios : counters -> int
(** Scenario units in the spaces examined so far (visited or not). *)

val visited_scenarios : counters -> int
(** Scenario units actually evaluated ([<= total_scenarios] with
    pruning, [= total_scenarios] without). *)

val pruned_scenarios : counters -> int
(** Scenario units discarded by a bound test.  With pruning,
    [visited + pruned] covers [total]; it exceeds it by one when the
    seed scenario, always visited, also lies in a discarded block. *)

val bound_evaluations : counters -> int
(** Optimistic block bounds computed (the overhead side of pruning). *)

val kernel_runs : counters -> int
(** Analyses the engine started on the integer timeline kernel
    ({!response_time_site_int}), whether or not they completed there. *)

val kernel_fallbacks : counters -> int
(** Kernel analyses aborted by a mid-analysis overflow and rerun on the
    rational path.  Always [<= kernel_runs]. *)

val record_kernel_run : counters -> unit
(** Bumped by {!Engine.analyze} when it enters the kernel path. *)

val record_kernel_fallback : counters -> unit
(** Bumped by {!Engine.analyze} when a kernel run overflows. *)

val delta_runs : counters -> int
(** Warm delta analyses ({!Engine.analyze_delta}) that were planned and
    started — the previous converged point was carried across and only
    the dirty frontier iterated. *)

val delta_fallbacks : counters -> int
(** Warm delta runs that did not converge cleanly and were rerun on the
    cold path.  Always [<= delta_runs]. *)

val record_delta_run : counters -> unit
(** Bumped by {!Engine.analyze_delta} when a warm plan is executed. *)

val record_delta_fallback : counters -> unit
(** Bumped by {!Engine.analyze_delta} when a warm run falls back. *)

val response_time_site :
  ?slot:int ->
  ?memo:Memo.t ->
  ?counters:counters ->
  Ir.site ->
  Model.t ->
  Params.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  Report.bound
(** Response time of the task the {!Ir.site} was compiled for, reading
    the participant sets and the mixed-radix scenario layout from the
    site instead of recomputing them — the entry point every
    {!Engine} session uses.  The site must come from an IR
    {!Ir.compatible} with [m].

    [memo] caches interference evaluations across calls — see {!Memo};
    the call only touches the memo's cache of [(site, slot)] ([slot]
    defaults to 0), so calls on distinct slots need no synchronisation.
    [counters], when given, is bumped with this call's scenario
    accounting.
    @raise Ir.Scenario_space_too_large under [Exact] when the site's
    scenario space exceeds [max_int]. *)

(** {1 Integer timeline twin} *)

type iresponse = IFinite of int | IDivergent
    (** A response on the scaled integer timeline: the scaled numerator
        of the rational bound, or divergence (detected at exactly the
        scaled horizon, hence in exactly the cases the rational path
        detects it). *)

val iresponse_to_bound : Timebase.t -> iresponse -> Report.bound
(** Back to the report domain: [IFinite v] is the normalised rational
    [v / scale]. *)

val response_time_site_int :
  Timebase.t ->
  ?slot:int ->
  ?memo:Memo.t ->
  ?counters:counters ->
  ?kernels:Kernels.site ->
  Ir.site ->
  Params.t ->
  sphi:int array array ->
  sjit:int array array ->
  iresponse
(** {!response_time_site} on the integer timeline: same scenario
    enumeration (including branch-and-bound pruning), all inner fixed
    points on scaled native ints.
    [sphi]/[sjit] are the scaled offset and jitter matrices.  The result
    is the exact scaled image of the rational bound; any intermediate
    overflow raises [Rational.Overflow], which {!Engine.analyze} turns
    into a rational-path fallback.  [counters] accounting (total /
    visited / pruned / bounds) is bumped exactly as the rational path
    would.  [kernels] supplies the site's precompiled
    {!Kernels.site} skeleton table (an {!Engine} session compiles one
    per timebase); without it the skeletons are flattened on the fly —
    same result, more allocation. *)

val scenario_count : Model.t -> Params.t -> a:int -> b:int -> int
(** Number of scenarios the chosen variant examines for task [(a, b)]
    (Eq. 12 for [Exact]; [N_a + 1] for [Reduced]).
    @raise Ir.Scenario_space_too_large under [Exact] when the remote
    scenario space exceeds [max_int]. *)
