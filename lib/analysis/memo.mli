(** Memoisation of the interference terms across the Jacobi sweeps of
    the holistic analysis.

    One outer iteration of {!Engine.analyze} evaluates the demand
    functions W{^k}{_i}(τ{_a,b}, t) (Eqs. 7–11, 15, 17) at every point
    the busy-period fixed points visit; the next sweep re-evaluates most
    of them with {e identical} arguments, because only some jitter rows
    changed — transactions whose jitters already converged contribute
    exactly the same demand curves.  For a fixed pair ((a,b), (i,k)) the
    value of W{^k}{_i}(τ{_a,b}, t) depends on the model constants and on
    the slices [jit.(i)] and [phi.(i)] only, so a cache entry keyed by
    [(i, k)] and signed with a copy of those two rows can replay every
    previously computed [(t, W)] pair for free and is invalidated the
    moment its row signature changes.  Memoised values are exact
    rationals that a recomputation would reproduce bit-for-bit, so the
    memo cannot change the least fixed point — see the memoisation
    section of docs/THEORY.md for the argument.

    There is one cache per task under analysis.  A sweep runs each site
    on exactly one domain and the pool's region join orders the sweeps,
    so each cache has a single owner at a time and needs no locking;
    entries stay warm across sweeps. *)

type t
(** Memo state for the analyses of one {!Engine} session. *)

type cache
(** The caches of one task under analysis. *)

val create : Model.t -> t
(** Fresh memo.  Per-task caches are allocated lazily on first {!cache}
    access: a delta-warm analysis ({!Engine.analyze_delta}) touches only
    the dirty frontier's cells, so creation stays O(tasks) pointers. *)

val cache : t -> a:int -> b:int -> cache
(** The cache of task [(a, b)]. *)

val evaluator :
  cache ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  hp_list:int list ->
  a:int ->
  b:int ->
  Rational.t ->
  Rational.t
(** Hoisted form of {!contribution}: the cache entry is resolved (and
    its row signature validated, recompiling the {!Interference.kernel}
    if a row changed) {e once}, and the returned closure only performs
    the per-[t] lookup.  Valid while the jitter and offset rows of
    transaction [i] are unchanged — i.e. within one response-time
    computation of a sweep. *)

val evaluator_int :
  cache ->
  Interference.iskeleton ->
  sphi:int array array ->
  sjit:int array array ->
  k:int ->
  int ->
  int
(** Integer-timeline twin of {!evaluator}, fed by a precompiled
    {!Interference.iskeleton} (the transaction index and interfering set
    come from the skeleton): entries are keyed by the same [(i, k)]
    pairs, signed with the scaled jitter/offset rows, and map scaled
    evaluation points to scaled demands.  Rational and int entries live
    side by side in one cache (the hit/miss/invalidation statistics are
    shared), so a session that alternates between the kernel and the
    rational path keeps both warm. *)

val min_terms : int
(** Smallest interfering-set size worth memoising.  Kernels with fewer
    terms are evaluated directly by the fixed-point drivers: a cache
    probe costs about as much as the evaluation itself, so memoising
    them is a net loss (the X9 bench measures the crossover). *)

val contribution :
  cache ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  hp_list:int list ->
  a:int ->
  b:int ->
  t:Rational.t ->
  Rational.t
(** Memoised {!Interference.contribution}: identical value, computed at
    most once per (jitter/offset row state of transaction [i], [t]). *)

val w_star :
  cache ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  hp_list:int list ->
  a:int ->
  b:int ->
  t:Rational.t ->
  Rational.t
(** Memoised {!Interference.w_star}, built from the same per-[(i, k)]
    entries as {!contribution} (the reduced analysis and the exact one
    share the cache). *)

type stats = { hits : int; misses : int; invalidations : int }

val stats : t -> stats
(** Aggregate lookup statistics over every cache, for benchmarks and
    tests.  Read only between parallel regions. *)
