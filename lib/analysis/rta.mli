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
    the sites of a Jacobi sweep instead. *)

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
(** Analyses the engine started on the integer timeline ({!Scaled}),
    whether or not they completed there. *)

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

val scenario_count : Model.t -> Params.t -> a:int -> b:int -> int
(** Number of scenarios the chosen variant examines for task [(a, b)]
    (Eq. 12 for [Exact]; [N_a + 1] for [Reduced]).
    @raise Ir.Scenario_space_too_large under [Exact] when the remote
    scenario space exceeds [max_int]. *)

(** {1 The per-site analysis}

    Written once over a {!Timebase.TIME} number type and instantiated
    for both timelines: {!Rat} on exact rationals, {!Scaled} on the
    overflow-checked scaled ints of an integer timebase.  Every scaled
    step is the exact image of the rational one, so the two instances
    take the same branches and return the same bounds (scaled), or the
    scaled one raises [Rational.Overflow] — the engine's cue to rerun on
    rationals.  Only the demand curves differ per timeline: they are
    compiled and evaluated by hand-specialised code
    ({!Interference.eval} and {!Interference.eval_int}), because without
    flambda a functor argument is never inlined into the innermost
    loop. *)
module type S = sig
  include Timebase.TIME

  val fixpoint : horizon:t -> (t -> t) -> t -> t option
  (** [fixpoint ~horizon f w0] iterates the busy-period recurrence [f]
      from [w0] until two consecutive values are equal ([Some w]) or
      the iterate exceeds [horizon] ([None]).
      @raise Invalid_argument if an iterate decreases. *)

  val phase :
    period:t ->
    phi:t array array ->
    jit:t array array ->
    i:int ->
    k:int ->
    j:int ->
    t
  (** ϕ{^k}{_i,j} (Eq. 10) for transaction [i] of the given period: the
      first activation of τ{_i,j} after the start of a busy period
      initiated by τ{_i,k} released at its maximum jitter, in (0, T{_i}].
      Offsets may exceed the period; they are reduced modulo it. *)

  val jobs : jitter:t -> phase:t -> period:t -> t:t -> int
  (** ⌊(J + ϕ)/T⌋ delayed jobs plus ⌈(t − ϕ)/T⌉ jobs activated inside a
      busy period of length [t] (Eq. 8), clamped at 0. *)

  val simple : t Timebase.t -> t array array
  (** The paper's best-case bound: cumulative [max 0 (Cb/α − β)] along
      each chain (see {!Best_case.simple}). *)

  val refined : Model.t -> t Timebase.t -> jit:t array array -> t array array
  (** The Redell-style best case under jitters [jit] (see
      {!Best_case.refined}); the model supplies the participant sets
      only. *)

  val response :
    ?counters:counters ->
    t Timebase.t ->
    Ir.site ->
    Params.t ->
    phi:t array array ->
    jit:t array array ->
    own:(int -> t -> t) ->
    remote:(int -> int -> t -> t) ->
    t Report.outcome
  (** The response time of the site's task under offsets [phi] and
      jitters [jit], maximised over the scenarios of
      [params.variant] (with branch and bound under [params.prune]).
      [own c] is the own transaction's demand curve W{^c}{_a} when
      τ{_a,c} initiates, [remote ri k] that of the site's remote [ri]
      when its task [k] initiates; each is requested once per call.
      [counters], when given, is bumped with this call's scenario
      accounting.
      @raise Ir.Scenario_space_too_large under [Exact] when the site's
      scenario space exceeds [max_int]. *)
end

module Make (T : Timebase.TIME) : S with type t = T.t

module Rat : S with type t = Rational.t

module Scaled : S with type t = int
