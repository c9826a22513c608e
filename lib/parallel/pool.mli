(** A pool of OCaml 5 domains for the analysis engine, with a
    work-stealing range scheduler.

    Slot {e identity} is static: slot [s] of a region always executes in
    participant [s mod participants] (the caller plus the resident
    worker domains), which keeps per-slot caches (the interference memo
    of [Analysis.Memo]) single-owner across successive regions.  Index
    {e ranges}, however, migrate: {!run_ranges} seeds one atomic deque
    per slot with the contiguous chunk [\[s·n/slots, (s+1)·n/slots)],
    owners claim halving blocks off the front, and a slot that drains
    its own deque steals the back half of the largest remaining deque
    instead of idling — so a slot whose items ran cheap keeps
    contributing.  Determinism survives because the analysis writes
    every item's result at its index (a Jacobi sweep's sites, a batch's
    requests): the set of indices executed is always exactly
    [\[0, n)], so the results are a pure function of the inputs
    whatever the block geometry.  A computation run with any job
    count — stealing on or off — returns results bit-identical
    to the sequential run, the property the determinism tests assert
    (see docs/PERFORMANCE.md and the memoization section of
    docs/THEORY.md).

    A pool is {e reentrant}: calling {!run} (or anything built on it)
    from inside a worker of the same pool degrades to executing every
    slot sequentially in the calling domain instead of deadlocking, so
    nested parallel code (e.g. a design-space sweep whose probes run the
    analysis with the same pool) self-serialises at the inner level.

    A pool must only be driven from the domain that created it. *)

type t

val create : jobs:int -> t
(** A pool of [jobs] slots backed by at most
    [min jobs (Domain.recommended_domain_count ()) − 1] resident worker
    domains — extra domains beyond the hardware's cores cannot run in
    parallel yet tax every minor collection, so they are never spawned
    and their slots are strided over the live participants instead.
    [jobs = 0] means {!Domain.recommended_domain_count}; [jobs = 1] (or
    any job count on a single-core host) spawns no domains and runs
    everything in the caller.
    @raise Invalid_argument if [jobs < 0]. *)

val jobs : t -> int
(** Number of slots (≥ 1). *)

val sequential : t
(** The shared one-slot pool: no domains, every region runs inline.
    Passing it anywhere [?pool] is accepted reproduces the sequential
    engine exactly.  Never needs {!shutdown}. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; running a region on a pool
    that was shut down raises [Invalid_argument].  {!sequential} and
    single-job pools are unaffected. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], apply, then [shutdown] (also on exceptions). *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f 0], …, [f (jobs t − 1)] — [f slot] on slot
    [slot]'s domain — and returns when all have finished.  If several
    slots raise, the exception of the lowest slot is re-raised in the
    caller (deterministically), after every slot has completed. *)

val slots_for : t -> int -> int
(** [slots_for t n] is the number of slots a region of [n] items should
    be split over: at least 1, at most [n], at most [jobs t] and at most
    the host's recommended domain count — extra slots cannot run in
    parallel and only pay dispatch.  Results are written at their index,
    so the slot count never changes them (asserted by the identity
    tests and bench X9). *)

val run_ranges :
  ?steal:bool ->
  t ->
  slots:int ->
  n:int ->
  (slot:int -> lo:int -> hi:int -> unit) ->
  unit
(** [run_ranges t ~slots ~n f] covers the index range [\[0, n)] with
    calls [f ~slot ~lo ~hi], each a half-open sub-range executed on
    [slot]'s loop: every index is covered exactly once, and all calls
    with the same [slot] run sequentially in one domain (so per-slot
    caches need no locks).  Slot [s]'s deque is seeded with the
    contiguous chunk [\[s·n/slots, (s+1)·n/slots)]; with [steal] (the
    default) its owner claims halving blocks off the front, leaving the
    back stealable, and a slot whose deque drains steals the back half
    of the largest remaining deque, re-exposing the loot on its own
    deque for further splitting.  Which slot executes which index
    therefore depends on timing; results must be written at their
    index (see the determinism argument above).  With
    [steal = false] the geometry degenerates to exactly one static
    contiguous chunk per slot — the pre-stealing reference the
    determinism tests compare against.  The pool's {!stats} counters
    record the region's steals, splits and idle slots.
    [slots <= 1] (or [n] of 0) runs inline on slot 0 without touching
    the pool. *)

type stats = { steals : int; splits : int; idle_slots : int }
(** Cumulative scheduler accounting since pool creation: ranges stolen
    from another slot's deque, owner claims that split a range rather
    than exhausting it, and region loops that finished without
    executing a single block ([idle_slots] — on a host with fewer
    cores than slots the surplus loops usually find the deques already
    drained).  Diagnostics only — surfaced as the engine's [pool]
    event and the service's [stats.pool] object — never part of a
    result. *)

val stats : t -> stats
(** Read the counters; safe at any time, exact between regions. *)

val tabulate : t -> int -> (int -> 'a) -> 'a array
(** [tabulate t n f] is [Array.init n f] with the index range chunked
    over the slots; [f] must tolerate being called from worker domains.
    Order of the result is the index order, regardless of job count. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!tabulate} over the elements of an array. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!tabulate} over the elements of a list, preserving order. *)
