type t = {
  mutable admits : int;
  mutable revokes : int;
  mutable queries : int;
  mutable what_ifs : int;
  mutable regions : int;
  mutable stats_reqs : int;
  mutable errors : int;
  mutable committed : int;
  mutable rejected : int;
  mutable shed_deadline : int;
  mutable shed_overload : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sessions_created : int;
  mutable sessions_rebound : int;
  mutable ir_warm : int;
  mutable delta_warm : int;
  mutable delta_cold : int;
  mutable delta_dirty_tasks : int;
  mutable delta_carried_tasks : int;
  mutable probe_probes : int;
  mutable probe_seeded : int;
  mutable probe_cold : int;
  mutable probe_certified : int;
  mutable batches : int;
  mutable latency_total_ms : float;
  mutable latency_max_ms : float;
}

let create () =
  {
    admits = 0;
    revokes = 0;
    queries = 0;
    what_ifs = 0;
    regions = 0;
    stats_reqs = 0;
    errors = 0;
    committed = 0;
    rejected = 0;
    shed_deadline = 0;
    shed_overload = 0;
    cache_hits = 0;
    cache_misses = 0;
    sessions_created = 0;
    sessions_rebound = 0;
    ir_warm = 0;
    delta_warm = 0;
    delta_cold = 0;
    delta_dirty_tasks = 0;
    delta_carried_tasks = 0;
    probe_probes = 0;
    probe_seeded = 0;
    probe_cold = 0;
    probe_certified = 0;
    batches = 0;
    latency_total_ms = 0.;
    latency_max_ms = 0.;
  }

let count_request t = function
  | Protocol.Admit _ -> t.admits <- t.admits + 1
  | Protocol.Revoke _ -> t.revokes <- t.revokes + 1
  | Protocol.Query -> t.queries <- t.queries + 1
  | Protocol.What_if _ -> t.what_ifs <- t.what_ifs + 1
  | Protocol.Region _ -> t.regions <- t.regions + 1
  | Protocol.Stats -> t.stats_reqs <- t.stats_reqs + 1

let record_latency t ms =
  t.latency_total_ms <- t.latency_total_ms +. ms;
  if ms > t.latency_max_ms then t.latency_max_ms <- ms

(* Sum per-shard records into a fresh one at the stats barrier.  Every
   counter is additive except the latency maximum. *)
let merged ms =
  let a = create () in
  List.iter
    (fun m ->
      a.admits <- a.admits + m.admits;
      a.revokes <- a.revokes + m.revokes;
      a.queries <- a.queries + m.queries;
      a.what_ifs <- a.what_ifs + m.what_ifs;
      a.regions <- a.regions + m.regions;
      a.stats_reqs <- a.stats_reqs + m.stats_reqs;
      a.errors <- a.errors + m.errors;
      a.committed <- a.committed + m.committed;
      a.rejected <- a.rejected + m.rejected;
      a.shed_deadline <- a.shed_deadline + m.shed_deadline;
      a.shed_overload <- a.shed_overload + m.shed_overload;
      a.cache_hits <- a.cache_hits + m.cache_hits;
      a.cache_misses <- a.cache_misses + m.cache_misses;
      a.sessions_created <- a.sessions_created + m.sessions_created;
      a.sessions_rebound <- a.sessions_rebound + m.sessions_rebound;
      a.ir_warm <- a.ir_warm + m.ir_warm;
      a.delta_warm <- a.delta_warm + m.delta_warm;
      a.delta_cold <- a.delta_cold + m.delta_cold;
      a.delta_dirty_tasks <- a.delta_dirty_tasks + m.delta_dirty_tasks;
      a.delta_carried_tasks <- a.delta_carried_tasks + m.delta_carried_tasks;
      a.probe_probes <- a.probe_probes + m.probe_probes;
      a.probe_seeded <- a.probe_seeded + m.probe_seeded;
      a.probe_cold <- a.probe_cold + m.probe_cold;
      a.probe_certified <- a.probe_certified + m.probe_certified;
      a.batches <- a.batches + m.batches;
      a.latency_total_ms <- a.latency_total_ms +. m.latency_total_ms;
      if m.latency_max_ms > a.latency_max_ms then
        a.latency_max_ms <- m.latency_max_ms)
    ms;
  a

let fields t ~workers ~entries ~kernel_sessions ~fallback_count ~pool =
  let state =
    [
      ("workers", Json.Int workers);
      ( "requests",
        Json.Obj
          [
            ("admit", Json.Int t.admits);
            ("revoke", Json.Int t.revokes);
            ("query", Json.Int t.queries);
            ("what_if", Json.Int t.what_ifs);
            ("region", Json.Int t.regions);
            ("stats", Json.Int t.stats_reqs);
            ("errors", Json.Int t.errors);
          ] );
      ("committed", Json.Int t.committed);
      ("rejected", Json.Int t.rejected);
      ( "shed",
        Json.Obj
          [
            ("deadline", Json.Int t.shed_deadline);
            ("overload", Json.Int t.shed_overload);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int t.cache_hits);
            ("misses", Json.Int t.cache_misses);
            ("entries", Json.Int entries);
          ] );
      ( "delta",
        Json.Obj
          [
            ("warm", Json.Int t.delta_warm);
            ("cold", Json.Int t.delta_cold);
            ("dirty_tasks", Json.Int t.delta_dirty_tasks);
            ("carried_tasks", Json.Int t.delta_carried_tasks);
          ] );
      ( "probe_ladder",
        Json.Obj
          [
            ("probes", Json.Int t.probe_probes);
            ("seeded", Json.Int t.probe_seeded);
            ("cold", Json.Int t.probe_cold);
            ("certified", Json.Int t.probe_certified);
          ] );
    ]
  in
  (* Which worker slot served a request depends on timing (work
     stealing), and so do the per-slot sessions and everything counted
     on them. *)
  let telemetry =
    [
      ( "sessions",
        Json.Obj
          [
            ("created", Json.Int t.sessions_created);
            ("rebound", Json.Int t.sessions_rebound);
            ("ir_warm", Json.Int t.ir_warm);
          ] );
      ("kernel_sessions", Json.Int kernel_sessions);
      ("fallback_count", Json.Int fallback_count);
      ( "pool",
        Json.Obj
          [
            ("steals", Json.Int pool.Parallel.Pool.steals);
            ("splits", Json.Int pool.Parallel.Pool.splits);
            ("idle_slots", Json.Int pool.Parallel.Pool.idle_slots);
          ] );
      ("batches", Json.Int t.batches);
      ( "latency_ms",
        Json.Obj
          [
            ("total", Json.Float t.latency_total_ms);
            ("max", Json.Float t.latency_max_ms);
          ] );
    ]
  in
  [ ("state", Json.Obj state); ("telemetry", Json.Obj telemetry) ]
