module P = Protocol

type session_kind = Cold | Rebound | Warm

(* One engine session per pool slot.  A slot's session is only ever
   touched by the domain the pool statically assigns that slot to, so
   the field needs no lock.  Sessions are shard resources shared across
   the shard's tenants: rebinding between tenants' models is exactly
   the [with_model] path, and the report is bit-identical regardless of
   what the session analyzed before. *)
type slot = { mutable session : Analysis.Engine.t option }

(* Outcome of evaluating one read-only request on a worker, or of the
   inline analysis a barrier request runs on slot 0. *)
type eval =
  | Not_run
  | Invalid of string list
  | Evaluated of {
      candidate : Store.t option;  (* what_if candidate snapshot *)
      summary : P.summary;
      cache_hit : bool;
      kind : session_kind option;  (* None on a cache hit *)
      delta : Analysis.Engine.delta_outcome option;
          (* how the delta layer served the analysis (None: cache hit
             or no baseline yet) *)
      fresh : (Analysis.Model.t * Analysis.Report.t) option;
          (* the analysis actually run, for the baseline update the
             finalizer performs on the shard's driving domain *)
    }
  | Region_evaluated of {
      result : P.region_summary;
      cache_hit : bool;
      kind : session_kind option;  (* None on a cache hit *)
      ladder : Regions.Probe_ladder.stats option;
          (* the build's probe-ladder counters, for the metrics the
             finalizer records on the driving domain (None: cache hit) *)
    }

type t = {
  id : int;
  params : Analysis.Params.t;
  pool : Parallel.Pool.t;
  slots : slot array;
  boot : Store.t;  (* the snapshot a fresh tenant starts from *)
  tenants : (string, Tenant.t) Hashtbl.t;
      (* this shard's partition; written only by the driving domain *)
  metrics : Metrics.t;
  emit : (Events.event -> unit) option;
      (* fleet-serialized trace sink; safe from any domain *)
  max_batch : int;
  now : unit -> float;
  wal : Wal.t option;
  mutable stats_view : (seq:int -> tenant:string option -> Json.t) option;
      (* the fleet's stats renderer, installed after every shard
         exists; a [stats] barrier calls back into it *)
}

(* A snapshot of the shard for the fleet's stats barrier.  Only read
   while the shard is quiescent (the fleet awaited every outstanding
   batch), so plain field reads are ordered by the mailbox mutexes. *)
type view = {
  v_metrics : Metrics.t;
  v_workers : int;
  v_entries : int;  (* result-cache entries summed over tenants *)
  v_kernel_sessions : int;
  v_fallback_count : int;
  v_pool : Parallel.Pool.stats;
  v_tenants : (string * Store.t) list;  (* sorted by tenant id *)
}

let create ~id ~workers ~params ~max_batch ~emit ~now ?wal ~boot ~tenants () =
  let pool = Parallel.Pool.create ~jobs:workers in
  let jobs = Parallel.Pool.jobs pool in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (tid, store) -> Hashtbl.replace tbl tid (Tenant.create ~id:tid store))
    tenants;
  {
    id;
    params;
    pool;
    slots = Array.init jobs (fun _ -> { session = None });
    boot;
    tenants = tbl;
    metrics = Metrics.create ();
    emit;
    max_batch;
    now;
    wal;
    stats_view = None;
  }

let set_stats_view t f = t.stats_view <- Some f
let metrics t = t.metrics
let workers t = Array.length t.slots
let shutdown t = Parallel.Pool.shutdown t.pool

let tenant t tid =
  match Hashtbl.find_opt t.tenants tid with
  | Some ten -> ten
  | None ->
      let ten = Tenant.create ~id:tid t.boot in
      Hashtbl.replace t.tenants tid ten;
      ten

let tenant_find t tid = Hashtbl.find_opt t.tenants tid

let tenant_stores t =
  Hashtbl.fold (fun tid ten acc -> (tid, ten.Tenant.store) :: acc) t.tenants []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let cache_entries t =
  Hashtbl.fold (fun _ ten acc -> acc + Tenant.cache_entries ten) t.tenants 0

let view t =
  let kernel_sessions = ref 0 and fallback_count = ref 0 in
  Array.iter
    (fun s ->
      match s.session with
      | None -> ()
      | Some e ->
          if Analysis.Engine.kernel_scale e <> None then incr kernel_sessions;
          fallback_count :=
            !fallback_count
            + Analysis.Rta.kernel_fallbacks (Analysis.Engine.counters e))
    t.slots;
  {
    v_metrics = t.metrics;
    v_workers = Array.length t.slots;
    v_entries = cache_entries t;
    v_kernel_sessions = !kernel_sessions;
    v_fallback_count = !fallback_count;
    v_pool = Parallel.Pool.stats t.pool;
    v_tenants = tenant_stores t;
  }

let emit t e = match t.emit with None -> () | Some f -> f e

let engine_sink t =
  match t.emit with
  | None -> None
  | Some _ -> Some (fun e -> emit t (Events.Engine_event e))

(* Analyze a snapshot on [slot]'s session for [ten]: the tenant's
   result cache first, then the slot's engine session, created cold or
   rebound via [with_model] (the IR stays warm when only demands moved
   — [Ir.compatible]).  When the tenant has a baseline, the analysis
   runs through [Engine.analyze_delta]: the previous converged
   responses are carried across the snapshot change and only the
   affected tasks iterate, with a transparent cold fallback.  Cache,
   baseline and therefore every wire-visible field depend only on the
   tenant's own request history, which is what keeps per-tenant
   responses bit-identical across worker counts AND shard counts. *)
let analyze_snapshot t slot (ten : Tenant.t) (snap : Store.t) =
  match Tenant.cache_find ten snap.Store.hash with
  | Some s -> (s, true, None, None, None)
  | None ->
      let model = Analysis.Model.of_system snap.Store.sys in
      let session, kind =
        match slot.session with
        | None ->
            ( Analysis.Engine.create ~params:t.params ?sink:(engine_sink t)
                model,
              Cold )
        | Some s ->
            let warm = Analysis.Ir.compatible (Analysis.Engine.ir s) model in
            ( Analysis.Engine.with_model s model,
              if warm then Warm else Rebound )
      in
      slot.session <- Some session;
      let report, delta =
        match ten.Tenant.baseline with
        | Some (prev_model, prev_report) ->
            let report, outcome =
              Analysis.Engine.analyze_delta session ~prev_model ~prev_report
            in
            (report, Some outcome)
        | None -> (Analysis.Engine.analyze session, None)
      in
      ( P.summarize ~store:snap ~model report,
        false,
        Some kind,
        delta,
        Some (model, report) )

(* One region computation on [slot]'s session: the tenant's region
   cache first (keyed by snapshot hash, platform and grid — several
   regions can coexist per snapshot), then a [Design.Param_search]
   region build whose probe analyses all run through the slot session
   exactly like the multisection searches.  The region's wire summary
   reports membership of the platform's current (α, Δ) point, the cell
   statistics and the Pareto frontier. *)
let region_snapshot t slot (ten : Tenant.t) (snap : Store.t) ~resource
    ~precision =
  match
    Tenant.region_find ten ~hash:snap.Store.hash ~resource ~precision
  with
  | Some r ->
      Region_evaluated
        { result = r; cache_hit = true; kind = None; ladder = None }
  | None -> (
      let sys = snap.Store.sys in
      let resources = sys.Transaction.System.resources in
      let idx = ref (-1) in
      Array.iteri
        (fun i (r : Platform.Resource.t) ->
          if r.Platform.Resource.name = resource then idx := i)
        resources;
      match !idx with
      | -1 -> Invalid [ Printf.sprintf "no platform named %s" resource ]
      | idx ->
          (* Rebind the slot session to this snapshot's model first —
             [D.region] probes through the engine's current model, and
             the slot may have last served another tenant. *)
          let model = Analysis.Model.of_system sys in
          let session, kind =
            match slot.session with
            | None ->
                ( Analysis.Engine.create ~params:t.params
                    ?sink:(engine_sink t) model,
                  Cold )
            | Some s ->
                let warm =
                  Analysis.Ir.compatible (Analysis.Engine.ir s) model
                in
                ( Analysis.Engine.with_model s model,
                  if warm then Warm else Rebound )
          in
          slot.session <- Some session;
          let module D = Design.Param_search in
          let rm = D.region ~engine:session ~precision sys ~resource:idx in
          let b = resources.(idx).Platform.Resource.bound in
          let member =
            D.region_member rm ~alpha:b.Platform.Linear_bound.alpha
              ~delta:b.Platform.Linear_bound.delta
          in
          let st = Regions.Cell.stats rm.D.cells in
          let result =
            {
              P.r_hash = snap.Store.hash;
              r_platform = resource;
              r_precision = precision;
              r_schedulable = member;
              r_cells = st.Regions.Cell.cells;
              r_feasible = st.Regions.Cell.feasible;
              r_infeasible = st.Regions.Cell.infeasible;
              r_boundary = st.Regions.Cell.boundary;
              r_refined = st.Regions.Cell.refined;
              r_probes = st.Regions.Cell.probes;
              r_frontier =
                List.map
                  (fun (p : Regions.Frontier.point) ->
                    (p.Regions.Frontier.f_alpha, p.Regions.Frontier.f_delta))
                  (Regions.Frontier.points rm.D.frontier);
            }
          in
          Region_evaluated
            {
              result;
              cache_hit = false;
              kind = Some kind;
              ladder = Some (Regions.Probe_ladder.stats rm.D.ladder);
            })

(* Evaluate one read-only request against the frozen [snap]; runs on a
   worker domain. *)
let evaluate t slot ten snap req =
  match req with
  | P.Query ->
      let summary, cache_hit, kind, delta, fresh =
        analyze_snapshot t slot ten snap
      in
      Evaluated { candidate = None; summary; cache_hit; kind; delta; fresh }
  | P.What_if { uid; spec } -> (
      match Store.admit snap ~uid ~spec with
      | Error es -> Invalid es
      | Ok cand ->
          let summary, cache_hit, kind, delta, fresh =
            analyze_snapshot t slot ten cand
          in
          Evaluated
            { candidate = Some cand; summary; cache_hit; kind; delta; fresh })
  | P.Region { resource; precision } ->
      region_snapshot t slot ten snap ~resource ~precision
  | P.Admit _ | P.Revoke _ | P.Stats -> assert false

let session_label = function
  | Cold -> "cold"
  | Rebound -> "rebound"
  | Warm -> "warm-ir"

let record_kind t = function
  | None -> ()
  | Some Cold ->
      t.metrics.Metrics.sessions_created <-
        t.metrics.Metrics.sessions_created + 1
  | Some Rebound ->
      t.metrics.Metrics.sessions_rebound <-
        t.metrics.Metrics.sessions_rebound + 1
  | Some Warm ->
      t.metrics.Metrics.sessions_rebound <-
        t.metrics.Metrics.sessions_rebound + 1;
      t.metrics.Metrics.ir_warm <- t.metrics.Metrics.ir_warm + 1

let record_cache t hit =
  if hit then t.metrics.Metrics.cache_hits <- t.metrics.Metrics.cache_hits + 1
  else t.metrics.Metrics.cache_misses <- t.metrics.Metrics.cache_misses + 1

let record_ladder t = function
  | None -> ()
  | Some (s : Regions.Probe_ladder.stats) ->
      t.metrics.Metrics.probe_probes <-
        t.metrics.Metrics.probe_probes + s.Regions.Probe_ladder.probes;
      t.metrics.Metrics.probe_seeded <-
        t.metrics.Metrics.probe_seeded + s.Regions.Probe_ladder.seeded;
      t.metrics.Metrics.probe_cold <-
        t.metrics.Metrics.probe_cold + s.Regions.Probe_ladder.cold;
      t.metrics.Metrics.probe_certified <-
        t.metrics.Metrics.probe_certified
        + s.Regions.Probe_ladder.cert_feasible
        + s.Regions.Probe_ladder.cert_infeasible

let record_delta t = function
  | None -> ()
  | Some (Analysis.Engine.Delta_warm { dirty; total = _; carried }) ->
      t.metrics.Metrics.delta_warm <- t.metrics.Metrics.delta_warm + 1;
      t.metrics.Metrics.delta_dirty_tasks <-
        t.metrics.Metrics.delta_dirty_tasks + dirty;
      t.metrics.Metrics.delta_carried_tasks <-
        t.metrics.Metrics.delta_carried_tasks + carried
  | Some (Analysis.Engine.Delta_cold _) ->
      t.metrics.Metrics.delta_cold <- t.metrics.Metrics.delta_cold + 1

(* The WAL record for a commit, written inside the commit itself so a
   crash at any later point replays to this exact store. *)
let wal_append t (ten : Tenant.t) uid ~op (cand : Store.t) =
  match t.wal with
  | None -> ()
  | Some w ->
      let record =
        match op with
        | `Admit ->
            let spec =
              match
                List.find_opt (fun u -> u.Store.uid = uid) cand.Store.units
              with
              | Some u -> u.Store.spec
              | None -> assert false (* the admit just appended it *)
            in
            Wal.Admit
              { tenant = ten.Tenant.id; uid; spec; hash = cand.Store.hash }
        | `Revoke ->
            Wal.Revoke { tenant = ten.Tenant.id; uid; hash = cand.Store.hash }
      in
      Wal.append w record

let process_batch t envs =
  let arr = Array.of_list envs in
  let n = Array.length arr in
  (* Counted up front so a [stats] request in this very batch sees it. *)
  t.metrics.Metrics.batches <- t.metrics.Metrics.batches + 1;
  (* Tenants are resolved (and created) on the driving domain before
     any parallel work; workers only ever receive resolved records. *)
  let tens =
    Array.map
      (fun env -> tenant t (Option.value env.P.tenant ~default:Tenant.default_id))
      arr
  in
  let responses = Array.make n Json.Null in
  let shed_reason = Array.make n None in
  (* Overload policy: beyond [max_batch], shed the newest what_if probes
     first, then queries, then admissions/revocations; stats never. *)
  let over = ref (n - t.max_batch) in
  let shed_class is_class =
    for i = n - 1 downto 0 do
      if !over > 0 && shed_reason.(i) = None && is_class arr.(i).P.req then (
        shed_reason.(i) <- Some "overload";
        decr over)
    done
  in
  if !over > 0 then (
    shed_class (function P.What_if _ | P.Region _ -> true | _ -> false);
    shed_class (function P.Query -> true | _ -> false);
    shed_class (function P.Admit _ | P.Revoke _ -> true | _ -> false));
  let results = Array.make n Not_run in
  let parallel_count = ref 0 in
  (* Requests are finalized (responses, cache inserts, metrics, trace)
     on this domain in arrival order — that is what makes a scripted
     session deterministic regardless of the worker count. *)
  let finish i ~status ~cache_hit ~session response =
    let env = arr.(i) in
    responses.(i) <- response;
    let ms = (t.now () -. env.P.arrival) *. 1000. in
    Metrics.record_latency t.metrics ms;
    emit t
      (Events.Request
         {
           seq = env.P.seq;
           op = P.op_name env.P.req;
           status;
           latency_ms = ms;
           cache_hit;
           session;
           tenant = env.P.tenant;
         })
  in
  let finalize i =
    let env = arr.(i) in
    let seq = env.P.seq in
    let tenant = env.P.tenant in
    let ten = tens.(i) in
    Metrics.count_request t.metrics env.P.req;
    match shed_reason.(i) with
    | Some reason ->
        (if reason = "deadline" then
           t.metrics.Metrics.shed_deadline <-
             t.metrics.Metrics.shed_deadline + 1
         else
           t.metrics.Metrics.shed_overload <-
             t.metrics.Metrics.shed_overload + 1);
        finish i ~status:"shed" ~cache_hit:false ~session:None
          (P.shed ?tenant ~seq ~op:(P.op_name env.P.req) ~reason ())
    | None -> (
        match results.(i) with
        | Not_run -> assert false
        | Invalid errors ->
            t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
            let uid =
              match env.P.req with
              | P.What_if { uid; _ } -> uid
              | P.Region { resource; _ } -> resource
              | _ -> "?"
            in
            finish i ~status:"rejected" ~cache_hit:false ~session:None
              (P.rejected ?tenant ~seq ~op:(P.op_name env.P.req) ~uid
                 ~reason:"invalid" ~errors ~hash:ten.Tenant.store.Store.hash ())
        | Evaluated { candidate; summary; cache_hit; kind; delta; fresh } -> (
            record_kind t kind;
            record_cache t cache_hit;
            record_delta t delta;
            Tenant.update_baseline ten fresh;
            Tenant.cache_add ten summary;
            let session = Option.map session_label kind in
            match env.P.req with
            | P.Query ->
                finish i ~status:"ok" ~cache_hit ~session
                  (P.query_ok ?tenant ~seq ~cached:cache_hit summary)
            | P.What_if { uid; _ } ->
                let candidate_instances =
                  match candidate with
                  | Some c -> Store.unit_instances c uid
                  | None -> []
                in
                finish i ~status:"ok" ~cache_hit ~session
                  (P.what_if_ok ?tenant ~seq ~uid ~cached:cache_hit
                     ~candidate_instances summary)
            | P.Region _ | P.Admit _ | P.Revoke _ | P.Stats -> assert false)
        | Region_evaluated { result; cache_hit; kind; ladder } ->
            record_kind t kind;
            record_cache t cache_hit;
            record_ladder t ladder;
            Tenant.region_add ten result;
            finish i ~status:"ok" ~cache_hit
              ~session:(Option.map session_label kind)
              (P.region_ok ?tenant ~seq ~cached:cache_hit result))
  in
  (* Pending read-only group: [to_run] are the indices to execute on the
     workers, [pending] additionally carries the shed ones so they are
     finalized in order with their neighbours.  Each item analyzes its
     own tenant's store as of the group start — items from different
     tenants share the parallel round. *)
  let pending = ref [] and to_run = ref [] in
  let flush () =
    (match List.rev !to_run with
    | [] -> ()
    | [ i ] ->
        (* A singleton is not worth a pool dispatch. *)
        results.(i) <-
          evaluate t t.slots.(0) tens.(i) tens.(i).Tenant.store arr.(i).P.req
    | idxs ->
        let idxs = Array.of_list idxs in
        let m = Array.length idxs in
        parallel_count := !parallel_count + m;
        let snaps = Array.map (fun i -> tens.(i).Tenant.store) idxs in
        (* One item is a whole analysis — orders of magnitude above the
           pool's wake-up cost, so any group of two or more
           parallelises.  Stealing rebalances the group when
           snapshots differ wildly in analysis cost; slot identity still
           routes each item to the session owned by its executor. *)
        let slots = Parallel.Pool.slots_for t.pool m in
        Parallel.Pool.run_ranges t.pool ~steal:t.params.Analysis.Params.steal
          ~slots ~n:m (fun ~slot ~lo ~hi ->
            for k = lo to hi - 1 do
              let i = idxs.(k) in
              results.(i) <-
                evaluate t t.slots.(slot) tens.(i) snaps.(k) arr.(i).P.req
            done));
    List.iter finalize (List.rev !pending);
    pending := [];
    to_run := []
  in
  let commit_with i uid ~op cand (summary, cache_hit, kind, delta, fresh) =
    let seq = arr.(i).P.seq in
    let tenant = arr.(i).P.tenant in
    let ten = tens.(i) in
    record_kind t kind;
    record_cache t cache_hit;
    record_delta t delta;
    Tenant.update_baseline ten fresh;
    Tenant.cache_add ten summary;
    let session = Option.map session_label kind in
    let commit status response =
      ten.Tenant.store <- cand;
      wal_append t ten uid ~op cand;
      t.metrics.Metrics.committed <- t.metrics.Metrics.committed + 1;
      finish i ~status ~cache_hit ~session response
    in
    match op with
    | `Admit ->
        if summary.P.s_schedulable then
          commit "admitted"
            (P.admitted ?tenant ~seq ~uid ~txns:(Store.n_transactions cand)
               ~cached:cache_hit summary)
        else (
          (* Rollback: the candidate is dropped, the tenant's store was
             never touched. *)
          t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
          finish i ~status:"rejected" ~cache_hit ~session
            (P.rejected ?tenant ~seq ~op:"admit" ~uid ~reason:"unschedulable"
               ~violations:summary.P.s_violations
               ~candidate_instances:(Store.unit_instances cand uid)
               ~hash:ten.Tenant.store.Store.hash ()))
    | `Revoke ->
        (* Revocation commits whenever the remaining assembly is valid:
           shrinking the admitted set must not be refusable on analysis
           grounds, but the response still reports the verdict. *)
        commit "revoked"
          (P.revoked ?tenant ~seq ~uid ~txns:(Store.n_transactions cand)
             ~cached:cache_hit summary)
  in
  let commit_barrier i uid ~op cand =
    commit_with i uid ~op cand (analyze_snapshot t t.slots.(0) tens.(i) cand)
  in
  let barrier i =
    let env = arr.(i) in
    let seq = env.P.seq in
    let tenant = env.P.tenant in
    let ten = tens.(i) in
    Metrics.count_request t.metrics env.P.req;
    let invalid ~op ~uid errors =
      t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
      finish i ~status:"rejected" ~cache_hit:false ~session:None
        (P.rejected ?tenant ~seq ~op ~uid ~reason:"invalid" ~errors
           ~hash:ten.Tenant.store.Store.hash ())
    in
    match env.P.req with
    | P.Stats ->
        (* The fleet renders stats: every shard is quiescent at this
           barrier, so the renderer may read all of them and merge. *)
        let render =
          match t.stats_view with Some f -> f | None -> assert false
        in
        finish i ~status:"ok" ~cache_hit:false ~session:None
          (render ~seq ~tenant)
    | P.Admit { uid; spec } -> (
        match Store.admit ten.Tenant.store ~uid ~spec with
        | Error errors -> invalid ~op:"admit" ~uid errors
        | Ok cand -> commit_barrier i uid ~op:`Admit cand)
    | P.Revoke { uid } -> (
        match Store.revoke ten.Tenant.store ~uid with
        | Error errors -> invalid ~op:"revoke" ~uid errors
        | Ok cand -> commit_barrier i uid ~op:`Revoke cand)
    | P.Query | P.What_if _ | P.Region _ -> assert false
  in
  (* Pending admission/revocation group: consecutive commit requests are
     speculatively analyzed in parallel against each tenant's store as
     of the group start, then finalized in arrival order.  A finalized
     commit changes only its own tenant's store, so it invalidates the
     remaining speculations of that tenant — those rerun inline against
     the current store, exactly as the sequential barrier would — while
     other tenants' speculations stay valid: interleaved multi-tenant
     admissions commute, which is where sharded fleets earn their
     throughput.  Responses are bit-identical to fully sequential
     processing for any worker count or steal schedule. *)
  let admits = ref [] in
  let flush_admits () =
    (match List.rev !admits with
    | [] -> ()
    | [ i ] -> barrier i
    | idxs ->
        let idxs = Array.of_list idxs in
        let m = Array.length idxs in
        let snaps = Array.map (fun i -> tens.(i).Tenant.store) idxs in
        let cands =
          Array.mapi
            (fun j i ->
              match arr.(i).P.req with
              | P.Admit { uid; spec } -> (
                  match Store.admit snaps.(j) ~uid ~spec with
                  | Error es -> `Invalid (uid, "admit", es)
                  | Ok c -> `Cand (uid, `Admit, c))
              | P.Revoke { uid } -> (
                  match Store.revoke snaps.(j) ~uid with
                  | Error es -> `Invalid (uid, "revoke", es)
                  | Ok c -> `Cand (uid, `Revoke, c))
              | P.Query | P.What_if _ | P.Region _ | P.Stats -> assert false)
            idxs
        in
        let spec_results = Array.make m None in
        let work =
          Array.of_list
            (List.filter
               (fun j -> match cands.(j) with `Cand _ -> true | _ -> false)
               (List.init m Fun.id))
        in
        let w = Array.length work in
        if w > 1 then begin
          parallel_count := !parallel_count + w;
          let slots = Parallel.Pool.slots_for t.pool w in
          Parallel.Pool.run_ranges t.pool
            ~steal:t.params.Analysis.Params.steal ~slots ~n:w
            (fun ~slot ~lo ~hi ->
              for k = lo to hi - 1 do
                let j = work.(k) in
                match cands.(j) with
                | `Cand (_, _, c) ->
                    spec_results.(j) <-
                      Some (analyze_snapshot t t.slots.(slot) tens.(idxs.(j)) c)
                | `Invalid _ -> ()
              done)
        end;
        Array.iteri
          (fun j i ->
            if tens.(i).Tenant.store != snaps.(j) then
              (* An earlier member committed to this tenant: the
                 speculation no longer describes the store this request
                 applies to. *)
              barrier i
            else begin
              Metrics.count_request t.metrics arr.(i).P.req;
              match cands.(j) with
              | `Invalid (uid, op, errors) ->
                  t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
                  finish i ~status:"rejected" ~cache_hit:false ~session:None
                    (P.rejected ?tenant:arr.(i).P.tenant ~seq:arr.(i).P.seq
                       ~op ~uid ~reason:"invalid" ~errors
                       ~hash:tens.(i).Tenant.store.Store.hash ())
              | `Cand (uid, op, cand) ->
                  let pre =
                    match spec_results.(j) with
                    | Some pre -> pre
                    | None -> analyze_snapshot t t.slots.(0) tens.(i) cand
                  in
                  commit_with i uid ~op cand pre
            end)
          idxs);
    admits := []
  in
  for i = 0 to n - 1 do
    let env = arr.(i) in
    if shed_reason.(i) <> None then (
      flush_admits ();
      pending := i :: !pending)
    else
      let expired =
        match env.P.deadline_ms with
        | None -> false
        | Some d -> (t.now () -. env.P.arrival) *. 1000. >= d
      in
      if expired then (
        shed_reason.(i) <- Some "deadline";
        flush_admits ();
        pending := i :: !pending)
      else
        match env.P.req with
        | P.Query | P.What_if _ | P.Region _ ->
            flush_admits ();
            pending := i :: !pending;
            to_run := i :: !to_run
        | P.Admit _ | P.Revoke _ ->
            flush ();
            admits := i :: !admits
        | P.Stats ->
            flush ();
            flush_admits ();
            barrier i
  done;
  flush ();
  flush_admits ();
  let shed =
    Array.fold_left
      (fun acc r -> if r = None then acc else acc + 1)
      0 shed_reason
  in
  emit t (Events.Batch { size = n; parallel = !parallel_count; shed });
  Array.to_list responses
