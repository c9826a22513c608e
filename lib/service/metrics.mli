(** Service counters.

    One record per shard, updated from that shard's driving domain
    only — worker domains report what happened and the batch finalizer
    (which runs requests' bookkeeping in arrival order) does the
    writes — so plain mutable fields suffice and a scripted session
    always reproduces the same counts.  The [stats] barrier reads the
    records while every shard is quiescent and merges them with
    {!merged}. *)

type t = {
  mutable admits : int;
  mutable revokes : int;
  mutable queries : int;
  mutable what_ifs : int;
  mutable regions : int;  (** [region] requests *)
  mutable stats_reqs : int;
  mutable errors : int;  (** unparseable request lines *)
  mutable committed : int;  (** admissions + revocations committed *)
  mutable rejected : int;
  mutable shed_deadline : int;
  mutable shed_overload : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sessions_created : int;  (** engine sessions built from scratch *)
  mutable sessions_rebound : int;  (** [Engine.with_model] reuses *)
  mutable ir_warm : int;
      (** rebinds whose compiled IR survived (only demands moved) *)
  mutable delta_warm : int;
      (** analyses served by a warm delta fixed point
          ({!Analysis.Engine.analyze_delta}: previous converged
          responses carried, only the dirty frontier iterated) *)
  mutable delta_cold : int;
      (** delta attempts that planned or fell back cold (model too
          different, all transactions dirty, warm run not converged) *)
  mutable delta_dirty_tasks : int;
      (** tasks iterated across all warm delta analyses *)
  mutable delta_carried_tasks : int;
      (** tasks carried without recomputation across all warm delta
          analyses — the O(affected) saving, observable on the wire *)
  mutable probe_probes : int;
      (** design-space probe analyses run through the region builds'
          {!Regions.Probe_ladder}, by any path *)
  mutable probe_seeded : int;
      (** ladder probes served by a warm seeded fixed point
          ({!Analysis.Engine.analyze_seeded}) *)
  mutable probe_cold : int;  (** ladder probes that ran cold *)
  mutable probe_certified : int;
      (** ladder probes answered by a dominance certificate — zero
          analyses *)
  mutable batches : int;
  mutable latency_total_ms : float;
  mutable latency_max_ms : float;
}

val create : unit -> t

val count_request : t -> Protocol.request -> unit

val record_latency : t -> float -> unit

val merged : t list -> t
(** A fresh record summing the given ones — the fleet's stats barrier
    folds the per-shard records through this.  Every counter is
    additive except [latency_max_ms], which takes the maximum. *)

val fields :
  t ->
  workers:int ->
  entries:int ->
  kernel_sessions:int ->
  fallback_count:int ->
  pool:Parallel.Pool.stats ->
  (string * Json.t) list
(** The [stats] response body after the head, in the stable wire order:
    a ["state"] object — ["workers"], request, commit, shed, cache,
    delta and probe-ladder counters, a pure function of the request
    stream — then a ["telemetry"] object — ["sessions"],
    ["kernel_sessions"], ["fallback_count"], ["pool"], ["batches"],
    ["latency_ms"] — whose values depend on timing and on the host.
    The caller prepends the response head and the [admitted]/[hash]
    fields of the tenant being reported.  [entries] is the result-cache
    size, [kernel_sessions] the live worker sessions currently running
    on the integer timeline kernel, [fallback_count] the total
    kernel-overflow fallbacks those sessions recorded, [pool] the pool's
    cumulative work-stealing counters (all snapshots taken at the stats
    barrier, not counters of this record).  Used both for the fleet
    aggregate and for each per-shard object under sharding. *)
