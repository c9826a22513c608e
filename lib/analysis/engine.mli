(** Analysis sessions: the model compiled once, analysed many times.

    An engine session binds together everything one analysis run needs —
    the {!Model.t}, the compiled {!Ir.t} (participant sets, mixed-radix
    scenario layouts, dependency rows), the {!Params.t}, the worker
    {!Parallel.Pool.t}, the interference {!Memo.t} and the scenario
    {!Rta.counters} — as one immutable value.  Creating the session pays
    the per-model compilation cost once; every subsequent {!analyze},
    {!response_time} or design-space probe reuses the compiled state.

    Sessions are cheap persistent values: {!with_overrides} and
    {!with_model} derive new sessions sharing whatever remains valid
    (the IR survives any model with the same placement and priorities;
    the memo survives parameter changes but never a model change).

    Everything an engine computes is bit-identical to the legacy
    sessionless entry point ({!Holistic.analyze}): the IR only
    reorganises static structure, and exact arithmetic plus sweeps that
    write each site's response at its own index do the rest, whatever
    the pool.  The test suite asserts this over random workloads. *)

type t
(** One analysis session.  Immutable apart from the memo and counters it
    carries, both of which are transparent: the memo replays exact
    values a recomputation would reproduce, and the counters are
    diagnostics.  Analysing the same session twice yields identical
    reports. *)

(** {1 Events}

    Structured progress notifications, emitted to the session's [sink]
    as the analysis runs.  The CLI's [--trace FILE] serialises them with
    {!event_to_json}, one object per line. *)

type event =
  | Compiled of { txns : int; tasks : int; exact_scenarios : int }
      (** Emitted by {!create}: the model was compiled into an IR.
          [exact_scenarios] is {!Ir.exact_scenarios} — the size of the
          scenario space an unpruned exact analysis would face per
          sweep. *)
  | Kernel_compiled of { scale : int }
      (** Emitted by {!create} right after [Compiled] when the integer
          timeline kernel is enabled and the model fits it: analyses
          will run on scaled native ints with denominator [scale]. *)
  | Kernel_fallback of { reason : string }
      (** The integer kernel is enabled but will not (or no longer) be
          used: ["unrepresentable"] at {!create} when the denominator
          LCM or a scaled constant leaves the headroom-checked native
          range, ["overflow"] mid-{!analyze} when checked int arithmetic
          overflowed — the analysis transparently reruns on the rational
          path and the session stops attempting the kernel. *)
  | Analysis_started of { variant : Params.variant }
  | Delta of { dirty : int; total : int; carried : int }
      (** Emitted by {!analyze_delta} when a warm plan is executed:
          [dirty] tasks sit on the dirty frontier and will be iterated,
          [carried] tasks ride on their previously converged responses,
          [total = dirty + carried] is the task count of the model.
          Followed by the warm run's ordinary [Analysis_started] /
          [Sweep] / [Finished] stream (and, on a warm fallback, by a
          second full cold stream). *)
  | Seeded of { distance : Rational.t; iterations : int; saved : int }
      (** Emitted by {!analyze_seeded} after a warm run: the outer fixed
          point was seeded from a converged report at a dominating
          (easier) parameter point at L1 parameter [distance],
          [iterations] outer sweeps were run, and [saved] is the seed
          trajectory length beyond them — a proxy for the cold sweeps
          the warm start skipped (the exact cold count would cost the
          cold run the seeding avoids). *)
  | Sweep of { iteration : int; recomputed : int; carried : int }
      (** One outer Jacobi iteration finished; [recomputed] tasks had a
          dirty dependency row, [carried] reused their previous response
          (incremental mode). *)
  | Finished of { iterations : int; converged : bool; schedulable : bool }
  | Pool_stats of { steals : int; splits : int; idle : int }
      (** Emitted after an analysis during which the pool's work-stealing
          scheduler engaged: counter deltas over that one analysis —
          ranges stolen by idle slots, ranges split off a slot's own
          deque, and slots that finished a region without claiming any
          work.  Never emitted when the run stayed sequential (the
          counts would all be zero). *)

type sink = event -> unit

val event_to_json : event -> string
(** One-line JSON rendering (no trailing newline), suitable for JSON
    Lines trace files. *)

(** {1 Session construction} *)

val create :
  ?params:Params.t ->
  ?pool:Parallel.Pool.t ->
  ?counters:Rta.counters ->
  ?sink:sink ->
  Model.t ->
  t
(** Compile [m] into a session.  [params] defaults to {!Params.default},
    [pool] to {!Parallel.Pool.sequential}, [counters] to a fresh set.
    Emits [Compiled] to [sink], followed — when
    [params.{!Params.int_kernel}] — by [Kernel_compiled] or
    [Kernel_fallback] according to whether the model admits an integer
    timebase ({!Ir.timebase}).  The session does not own the pool;
    shut it down where it was created. *)

val create_system :
  ?params:Params.t ->
  ?pool:Parallel.Pool.t ->
  ?counters:Rta.counters ->
  ?sink:sink ->
  Transaction.System.t ->
  t
(** [create] over {!Model.of_system}. *)

val with_overrides :
  ?params:Params.t ->
  ?keep_history:bool ->
  ?pool:Parallel.Pool.t ->
  ?counters:Rta.counters ->
  ?sink:sink ->
  t ->
  t
(** Derived session over the same model: absent arguments keep the
    original's values, [keep_history] patches just that field of the
    effective params (the common verdict-only probe:
    [with_overrides e ~keep_history:false]).  The compiled IR is always
    shared.  The memo is shared when it is still valid — same model by
    construction, and slot count matching the (possibly new) pool's job
    count — and re-created otherwise. *)

val with_model : t -> Model.t -> t
(** Re-bind the session to another model.  The compiled IR is reused
    when [m] is {!Ir.compatible} — same task placement and priorities,
    the design-space case where only demands or platform bounds moved —
    and recompiled otherwise.  The memo is always re-created: memoised
    interference values embed the old model's demands and rates. *)

(** {1 Accessors} *)

val model : t -> Model.t

val ir : t -> Ir.t
(** The session's compiled IR.  [Ir.compatible (ir t) m] predicts
    whether {!with_model}[ t m] will keep it warm — long-lived callers
    (the admission-control service) use this to report how often a
    rebind recompiled. *)

val params : t -> Params.t

val pool : t -> Parallel.Pool.t

val counters : t -> Rta.counters
(** Cumulative scenario accounting across every analysis this session
    (and sessions derived from it) ran. *)

val memo_stats : t -> Memo.stats option
(** [None] when the session runs without memoisation. *)

val kernel_scale : t -> int option
(** The denominator of the integer timeline this session's analyses run
    on, or [None] when they run on rationals — because the kernel is
    disabled, the model has no representable timebase, or a previous
    analysis overflowed and poisoned the kernel for this session. *)

(** {1 Holistic analysis} *)

val analyze : t -> Report.t
(** The holistic offset-based analysis (Section 3.2): outer Jacobi
    fixed point on the jitters, inner busy-period recurrences per
    scenario, under the session's params, pool and memo.  Each sweep
    runs the sites it recomputes as one pool region; each site's
    scenario enumeration is sequential.  Emits [Analysis_started], one
    [Sweep] per outer iteration and [Finished].  Bit-identical to
    [Holistic.analyze ~params ?pool m] for every job count and
    parameter toggle.
    @raise Ir.Scenario_space_too_large under the exact variant when a
    task's scenario space exceeds [max_int].

    When the session carries an integer timebase (see {!kernel_scale}),
    the whole fixed point runs on scaled native ints and converts back
    to rationals at the report boundary — same sweeps, same events, same
    report, bit for bit.  A checked-arithmetic overflow mid-run aborts
    the kernel, emits [Kernel_fallback], bumps
    {!Rta.kernel_fallbacks} and transparently reruns on the rational
    path; later analyses on this session skip the kernel. *)

val response_times : t -> Report.bound array array
(** [analyze] reduced to the response matrix. *)

(** {1 Delta re-analysis}

    {!analyze} pays a full outer fixed point — every task recomputed
    from the bottom — even when the session's model differs from a
    previously analysed one by a single admitted or revoked fragment.
    {!analyze_delta} instead diffs the two models into a changed
    transaction set, closes it over the IR's dependency rows
    ({!Ir.dirty_closure}), pins every clean transaction's jitter row
    and responses at the previous converged values and iterates only
    the dirty frontier — O(affected) instead of O(system), with the
    same report bit for bit.  Design, convergence argument and fallback
    conditions: docs/INCREMENTAL.md. *)

type delta_outcome =
  | Delta_warm of { dirty : int; total : int; carried : int }
      (** The warm fixed point converged; [carried] of [total] tasks
          reused their previous responses without recomputation. *)
  | Delta_cold of { reason : string }
      (** The analysis ran cold.  [reason] is one of
          ["previous-not-converged"], ["incremental-disabled"],
          ["refined-best-case"], ["history-requested"], ["all-dirty"]
          (planning refused) or ["warm-not-converged"] (the warm run
          early-exited or hit the iteration cap and was rerun cold). *)

(** The planning half of {!analyze_delta}, exposed for tests and
    benchmarks that want to inspect the dirty frontier without running
    the analysis. *)
module Delta : sig
  type plan

  val plan :
    t -> prev_model:Model.t -> prev_report:Report.t -> (plan, string) result
  (** Align [prev_model]'s transactions with the session's by name,
      seed the changed ones (different period, deadline, jitter,
      blocking, task chain or platform bounds — plus every survivor
      sharing a platform with a removed transaction), and close the
      seed over the session IR's dependency rows.  [Error reason] when
      warm analysis is unsound or pointless — the [Delta_cold] reasons
      above, except ["warm-not-converged"]. *)

  val dirty_tasks : plan -> int
  (** Tasks on the dirty frontier (to be iterated). *)

  val total_tasks : plan -> int
  (** Task count of the session's model. *)
end

val analyze_delta :
  t -> prev_model:Model.t -> prev_report:Report.t -> Report.t * delta_outcome
(** {!analyze}, warm-started from a previous converged analysis.
    [prev_report] must be the report of analysing [prev_model] (any
    converged pair works — it does not have to be the session's own
    history).  The returned report is bit-identical to [analyze t] in
    [results], [converged] and [schedulable]; [outer_iterations] (and
    [history], were it kept — warm plans require
    [params.keep_history = false]) count the warm run's shorter
    trajectory.  Emits [Delta] before a warm run; plans that fail and
    warm runs that do not converge fall back to the cold path
    transparently ({!Rta.delta_fallbacks}).  On a kernel session the
    warm start is scaled onto the integer timeline when the previous
    values lie on its lattice, and runs on exact rationals otherwise. *)

(** {1 Seeded analysis}

    {!analyze_delta} warms the fixed point across *model edits* at a
    fixed parameter point; {!analyze_seeded} warms it across *parameter
    points* of the same structure — the design-space case, where probe
    models differ only in platform bounds and demands.  A converged
    report at a point that *dominates* the target (per-resource rate ≥,
    delay ≤, burstiness equal; per-task demands no larger, the worst
    case shrinking at least as much as the best case) lies pointwise
    below the target's least fixed point, so its jitters are a sound
    Kleene seed: the warm iterates are squeezed between the cold
    iterates and the fixed point.  Lemma and proof: docs/THEORY.md. *)

(** The dominance tests and planning half of {!analyze_seeded}, exposed
    for the {!Regions.Probe_ladder} (which indexes converged probes by
    dominance) and for tests. *)
module Seeded : sig
  val dominates : seed:Model.t -> Model.t -> bool
  (** [dominates ~seed target]: same structure (transactions, chains,
      placement, priorities, periods, deadlines, jitters, blocking) and
      [seed] is coordinatewise easier — per resource α ≥, Δ ≤, β equal
      (the verdict is not monotone in β: a larger burstiness grows the
      jitters); per task Cb no larger and C shrinking by at least as
      much as Cb.  Reflexive. *)

  val distance : seed:Model.t -> Model.t -> Rational.t option
  (** L1 gap between the two parameter points (bounds and demands),
      [None] unless [dominates ~seed].  The ladder picks the nearest
      dominating seed — fewest warm sweeps to close the gap. *)

  val gap : seed:Model.t -> Model.t -> Rational.t
  (** The gap alone, assuming [dominates ~seed] already holds
      (meaningless otherwise).  For scans that tested dominance a step
      earlier — one pass instead of two per frontier entry. *)
end

val analyze_seeded :
  ?verdict_only:bool ->
  t ->
  seed_model:Model.t ->
  seed_report:Report.t ->
  Report.t * delta_outcome
(** {!analyze}, warm-started from a converged analysis of a dominating
    parameter point.  Planning refuses — and the call transparently
    runs cold, returning [Delta_cold] with reason
    ["seed-not-converged"], ["refined-best-case"],
    ["history-requested"], ["seed-structure-mismatch"] or
    ["seed-not-dominating"] — whenever the squeeze argument does not
    apply; a non-dominating seed is never silently used.  On a warm run
    every transaction is dirty (the parameter point changed under all
    of them): only the seed's jitters carry over, rounded *down* onto
    the integer lattice on a kernel session (sound because nothing is
    pinned), and the [Seeded] event reports the seed distance and
    iterations saved.  A converged warm run returns the cold report bit
    for bit ([Delta_warm] with [carried = 0]).  A warm run that does
    not converge is rerun cold ([Delta_cold "warm-not-converged"]) —
    unless [verdict_only] is set, in which case the warm report is
    returned as-is: its [schedulable] verdict is provably the cold
    verdict (a warm early exit overran a deadline the fixed point also
    overruns; a warm iteration cap implies the cold cap), but its
    response iterates are only cold-identical when [converged].
    Boolean probes ({!Design.Param_search} multisection) use
    [verdict_only]; report-returning probes (region corner samples)
    use the default.  Counted by {!Rta.delta_runs} /
    {!Rta.delta_fallbacks} alongside delta re-analysis. *)

val response_time :
  t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  a:int ->
  b:int ->
  Report.bound
(** Single response time under explicit offsets and jitters
    ({!Rta.response_time_site} on the compiled site). *)

val best_case : t -> jit:Rational.t array array -> Rational.t array array
(** The session's best-case bound ({!Params.best_case} dispatches
    between {!Best_case.simple} and {!Best_case.refined}). *)

(** {1 Classical baselines}

    The classical and EDF tests model independent single-task
    transactions on one platform; these views select exactly those
    transactions of the session's model whose only task runs on
    [resource], with the platform bound and horizon of the session. *)

val classical : t -> resource:int -> (Classical.task * Report.bound) list
(** {!Classical.response_times} over the session's single-task
    transactions on [resource]. *)

val classical_schedulable : t -> resource:int -> bool

val edf_schedulable : t -> resource:int -> bool
(** {!Edf.schedulable} over the same view (priorities ignored). *)

val edf_margin : t -> resource:int -> Rational.t option
(** {!Edf.margin}: spare cycles at the tightest deadline, [None] when
    infeasible by rate. *)
