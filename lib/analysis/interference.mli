(** Interference terms of the holistic analysis on abstract platforms
    (Equations 7–11, 15 and 17 of the paper).

    All offsets passed in are raw (possibly exceeding the period); they
    are reduced modulo the period internally, as the paper does.
    Execution demands are scaled by the rate of the platform of the task
    under analysis — only tasks on that platform interfere (Eq. 17). *)

val hp : Model.t -> i:int -> a:int -> b:int -> int list
(** {!Ir.hp}: the tasks of transaction [i] that can interfere with task
    [(a, b)] (Eq. 17). *)

val phase :
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  j:int ->
  Rational.t
(** ϕ{^k}{_i,j} (Eq. 10): first activation of τ{_i,j} after the start of
    a busy period initiated by τ{_i,k} released at its maximum jitter.
    The result lies in (0, T{_i}].  {!Rta.Rat.phase} at the period of
    transaction [i]. *)

val jobs :
  jitter:Rational.t ->
  phase:Rational.t ->
  period:Rational.t ->
  t:Rational.t ->
  int
(** Number of jobs contributing to a busy period of length [t]:
    ⌊(J + ϕ)/T⌋ delayed jobs released at the start plus ⌈(t − ϕ)/T⌉
    jobs activated inside (Eq. 8), clamped at 0 — {!Rta.Rat.jobs}. *)

type kernel
(** A compiled demand curve W{^k}{_i}(τ{_a,b}, ·): per interfering task,
    the phase ϕ{^k}{_i,j}, jitter, period and platform-scaled cost
    C/α are computed once, instead of on every evaluation inside a
    busy-period fixed point.  A kernel is valid exactly as long as the
    jitter and offset rows of transaction [i] it was compiled from are
    unchanged (the same condition under which {!Memo} entries are
    valid). *)

val compile :
  ?hp_list:int list ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  a:int ->
  b:int ->
  kernel
(** Hoist the per-task constants of {!contribution} for the busy-period
    scenario where τ{_i,k} initiates. *)

val eval : kernel -> t:Rational.t -> Rational.t
(** [eval kernel ~t] is exactly [contribution ~t] of the assignment the
    kernel was compiled from — canonical rationals make the hoisted and
    direct computations bit-identical.  It writes {!jobs} out by hand:
    this is the innermost loop of the rational path, and without flambda
    a call into the {!Rta.Make} instance is never inlined. *)

val contribution :
  ?hp_list:int list ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  a:int ->
  b:int ->
  t:Rational.t ->
  Rational.t
(** W{^k}{_i}(τ{_a,b}, t) (Eq. 11): worst-case demand, in time on the
    platform of τ{_a,b} (i.e. scaled by 1/α), of the interfering tasks of
    transaction [i] when τ{_i,k} initiates the busy period.  [hp_list]
    short-circuits the {!hp} computation when the caller already holds
    it (the fixed-point loops evaluate W at many points). *)

(** {1 Integer demand curves}

    The scaled-int form of {!compile} and {!eval} over a
    {!Timebase.t}, hand-specialised for the same reason as {!eval}: a
    compiled curve evaluates to exactly the scaled image of its rational
    counterpart (quotients only ever appear under floors and ceilings,
    which are scale-invariant job counts), or raises
    [Rational.Overflow] when an intermediate leaves native-int range —
    the engine's cue to fall back to the rational path. *)

type iskeleton = {
  sk_txn : int;  (** transaction index [i] *)
  sk_js : int array;  (** interfering task indices, {!hp} order *)
  sk_period : int;  (** scaled period of [i], shared by every term *)
  sk_costs : int array;  (** scaled platform-time cost per term *)
}
(** The value-independent half of an int demand curve: what survives
    every jitter/offset sweep, flattened to contiguous int arrays.
    Compiled once per engine session ({!Kernels}); per-sweep kernel
    compilation then only computes phases. *)

val iskeleton : int Timebase.t -> i:int -> hp_list:int list -> iskeleton
(** Flatten transaction [i]'s interfering set against the timebase. *)

type ikernel
(** A compiled int demand curve in structure-of-arrays layout: flat
    phase, delayed-jobs and cost arrays sharing one period — the
    busy-period hot path walks contiguous memory, and the t-independent
    ⌊(J + ϕ)/T⌋ term of Eq. 8 is precomputed per term. *)

val compile_skeleton :
  iskeleton -> sphi:int array array -> sjit:int array array -> k:int -> ikernel
(** Compile the scenario where τ{_i,k} initiates against the current
    scaled jitter/offset matrices: only the phases (and their hoisted
    delayed-jobs terms) are computed; indices, period and costs come
    from the skeleton. *)

val eval_int : ikernel -> t:int -> int
(** Scaled {!eval}: [eval_int (compile_skeleton …) ~t:(v·L)] is exactly
    [(eval (compile …) ~t:v) · L]. *)

val w_star :
  ?hp_list:int list ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  a:int ->
  b:int ->
  t:Rational.t ->
  Rational.t
(** W{^*}{_i}(τ{_a,b}, t) (Eq. 15): the scenario maximum of
    {!contribution} over the interfering tasks of transaction [i]; [0]
    when none interfere. *)
