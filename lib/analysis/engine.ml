module Q = Rational

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event =
  | Compiled of { txns : int; tasks : int; exact_scenarios : int }
  | Kernel_compiled of { scale : int }
  | Kernel_fallback of { reason : string }
  | Analysis_started of { variant : Params.variant }
  | Delta of { dirty : int; total : int; carried : int }
  | Seeded of { distance : Q.t; iterations : int; saved : int }
  | Sweep of { iteration : int; recomputed : int; carried : int }
  | Finished of { iterations : int; converged : bool; schedulable : bool }
  | Pool_stats of { steals : int; splits : int; idle : int }

type sink = event -> unit

let variant_name = function
  | Params.Exact -> "exact"
  | Params.Reduced -> "reduced"

let event_to_json = function
  | Compiled { txns; tasks; exact_scenarios } ->
      Printf.sprintf
        {|{"event":"compiled","txns":%d,"tasks":%d,"exact_scenarios":%d}|} txns
        tasks exact_scenarios
  | Kernel_compiled { scale } ->
      Printf.sprintf {|{"event":"kernel_compiled","scale":%d}|} scale
  | Kernel_fallback { reason } ->
      Printf.sprintf {|{"event":"kernel_fallback","reason":"%s"}|} reason
  | Analysis_started { variant } ->
      Printf.sprintf {|{"event":"analysis_started","variant":"%s"}|}
        (variant_name variant)
  | Delta { dirty; total; carried } ->
      Printf.sprintf {|{"event":"delta","dirty":%d,"total":%d,"carried":%d}|}
        dirty total carried
  | Seeded { distance; iterations; saved } ->
      Printf.sprintf
        {|{"event":"seeded","distance":"%s","iterations":%d,"saved":%d}|}
        (Q.to_string distance) iterations saved
  | Sweep { iteration; recomputed; carried } ->
      Printf.sprintf
        {|{"event":"sweep","iteration":%d,"recomputed":%d,"carried":%d}|}
        iteration recomputed carried
  | Finished { iterations; converged; schedulable } ->
      Printf.sprintf
        {|{"event":"finished","iterations":%d,"converged":%b,"schedulable":%b}|}
        iterations converged schedulable
  | Pool_stats { steals; splits; idle } ->
      Printf.sprintf {|{"event":"pool","steals":%d,"splits":%d,"idle":%d}|}
        steals splits idle

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  ir : Ir.t;
  model : Model.t;
  params : Params.t;
  pool : Parallel.Pool.t;
  counters : Rta.counters;
  memo : Memo.t option;
  sink : sink option;
  timebase : Timebase.t option;
      (* the integer timeline, when [params.int_kernel] and the model
         admits one — the value-dependent half of compilation, rebuilt
         whenever the model or the horizon factor changes *)
  kernels : Kernels.t option;
      (* the structure-of-arrays skeleton tables of the int kernels;
         always present exactly when [timebase] is, and rebuilt with
         it — skeletons embed the timebase's scaled constants *)
  kernel_poisoned : bool ref;
      (* set after a mid-analysis overflow: this model will overflow
         again, so later analyze calls skip straight to the rational
         path instead of paying a doomed kernel attempt *)
}

let emit t e = match t.sink with None -> () | Some f -> f e

let memo_for model params pool =
  if params.Params.memoize then
    Some (Memo.create model ~slots:(Parallel.Pool.jobs pool))
  else None

let timebase_for model params =
  if params.Params.int_kernel then
    Ir.timebase model ~horizon_factor:params.Params.horizon_factor
  else None

let kernels_for model ir timebase =
  Option.map (fun tb -> Kernels.compile model ir tb) timebase

let emit_kernel_verdict t =
  if t.params.Params.int_kernel then
    match t.timebase with
    | Some tb -> emit t (Kernel_compiled { scale = Timebase.scale tb })
    | None -> emit t (Kernel_fallback { reason = "unrepresentable" })

let create ?(params = Params.default) ?pool ?counters ?sink m =
  let pool = Option.value pool ~default:Parallel.Pool.sequential in
  let counters = match counters with Some c -> c | None -> Rta.counters () in
  let ir = Ir.compile m in
  let timebase = timebase_for m params in
  let t =
    {
      ir;
      model = m;
      params;
      pool;
      counters;
      memo = memo_for m params pool;
      sink;
      timebase;
      kernels = kernels_for m ir timebase;
      kernel_poisoned = ref false;
    }
  in
  emit t
    (Compiled
       {
         txns = Ir.n_txns ir;
         tasks = Ir.n_tasks ir;
         exact_scenarios = Ir.exact_scenarios ir;
       });
  emit_kernel_verdict t;
  t

let create_system ?params ?pool ?counters ?sink sys =
  create ?params ?pool ?counters ?sink (Model.of_system sys)

let model t = t.model

let ir t = t.ir

let params t = t.params

let pool t = t.pool

let counters t = t.counters

let memo_stats t = Option.map Memo.stats t.memo

let with_overrides ?params ?keep_history ?pool ?counters ?sink t =
  let params = Option.value params ~default:t.params in
  let params =
    match keep_history with
    | None -> params
    | Some keep_history -> { params with Params.keep_history }
  in
  let pool = Option.value pool ~default:t.pool in
  let counters = Option.value counters ~default:t.counters in
  let sink = match sink with Some _ as s -> s | None -> t.sink in
  (* The memo partitions one cache per pool slot; reuse it only while
     that partitioning is still the pool's.  Cached values depend on
     the model alone (identical here), never on params, so carrying
     them across an override is transparent. *)
  let memo =
    if not params.Params.memoize then None
    else
      match t.memo with
      | Some memo when Memo.slots memo = Parallel.Pool.jobs pool -> Some memo
      | Some _ | None -> memo_for t.model params pool
  in
  (* The timebase depends on the model and on the scaled horizon only;
     keep it — and the poison verdict, which is a property of the same
     pair — unless the kernel switch or the horizon factor changed. *)
  let timebase, kernels, kernel_poisoned =
    if
      params.Params.int_kernel = t.params.Params.int_kernel
      && params.Params.horizon_factor = t.params.Params.horizon_factor
    then (t.timebase, t.kernels, t.kernel_poisoned)
    else
      let timebase = timebase_for t.model params in
      (timebase, kernels_for t.model t.ir timebase, ref false)
  in
  { t with params; pool; counters; sink; memo; timebase; kernels; kernel_poisoned }

let with_model t m =
  let ir = if Ir.compatible t.ir m then t.ir else Ir.compile m in
  (* Memoised interference values embed the model's demands and platform
     rates; a rebound model always starts from a fresh memo.  Likewise
     the timebase embeds every numeric constant, so it is recompiled and
     the overflow verdict reset.  The rebind therefore only ever saves
     the IR compilation: profiled on the X11 probe workload the timebase
     scan is the dominant term and both a rebind and a fresh [create]
     pay it, so on small stores the two cost about the same — X11 bounds
     the gap instead of asserting a win. *)
  let timebase = timebase_for m t.params in
  {
    t with
    ir;
    model = m;
    memo = memo_for m t.params t.pool;
    timebase;
    kernels = kernels_for m ir timebase;
    kernel_poisoned = ref false;
  }

let kernel_scale t =
  if !(t.kernel_poisoned) then None else Option.map Timebase.scale t.timebase

(* ------------------------------------------------------------------ *)
(* Sub-analyses over a session                                         *)
(* ------------------------------------------------------------------ *)

let best_case t ~jit =
  match t.params.Params.best_case with
  | Params.Simple -> Best_case.simple t.model
  | Params.Refined -> Best_case.refined t.model ~jit

let response_time t ~phi ~jit ~a ~b =
  Rta.response_time_site ?memo:t.memo ~counters:t.counters
    (Ir.site t.ir ~a ~b) t.model t.params ~phi ~jit

(* ------------------------------------------------------------------ *)
(* The holistic outer fixed point (Section 3.2)                        *)
(* ------------------------------------------------------------------ *)

let copy_matrix m = Array.map Array.copy m

let offsets_of m rbest =
  Array.mapi
    (fun a (tx : Model.txn) ->
      Array.mapi
        (fun b (_ : Model.task) -> if b = 0 then Q.zero else rbest.(a).(b - 1))
        tx.Model.tasks)
    m.Model.txns

let rows_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (Q.equal x b.(i)) then ok := false) a;
  !ok

(* A warm start, planned by [Delta] from a previous converged report:
   the sweep begins from the seeded jitter matrix instead of the bottom,
   with the clean transactions' rows pinned at their converged values
   and their responses carried from [w_resp].  [w_dirty] must be closed
   under the IR's dependency rows (Ir.dirty_closure) — that is what
   makes the pinning exact, see docs/INCREMENTAL.md. *)
type warm = {
  w_dirty : bool array;  (* per transaction, transitively closed *)
  w_jit : Q.t array array;  (* seed jitters: previous values on clean
                               rows, the cold bottom on dirty ones *)
  w_resp : Report.bound array array;
      (* previous responses; only clean rows are ever read *)
}

(* The scaled-integer image of a warm start, for [analyze_int]. *)
type iwarm = {
  iw_dirty : bool array;
  iw_jit : int array array;
  iw_resp : Rta.iresponse array array;
}

(* One Jacobi sweep.  With [incremental], a site none of whose
   dependency rows — precompiled in the IR — is [changed] since the
   previous sweep carries its response from [prev]: the response is a
   pure function of those rows, so the carried value is bit-identical
   to a recomputation (the qcheck identity properties assert this).
   The other sites run as one pool region, [compute ~slot site] writing
   each response at its own index.  A sweep reads only the previous
   sweep's rows, so the result does not depend on which slot runs which
   site; [slot] only routes a site to that slot's memo cache, which
   keeps every cache single-owner.  Site costs vary by orders of
   magnitude (1 to hundreds of scenarios), hence stealing.  Returns the
   responses and the recomputed count. *)
let sweep t ~prev ~changed ~bottom ~compute =
  let sites = Ir.sites t.ir in
  let resp, carries =
    match prev with
    | Some pr when t.params.Params.incremental ->
        ( copy_matrix pr,
          fun (site : Ir.site) ->
            let d = site.Ir.deps in
            let hit = ref false in
            for i = 0 to Array.length d - 1 do
              if d.(i) && changed i then hit := true
            done;
            not !hit )
    | _ ->
        ( Array.map
            (fun (tx : Model.txn) -> Array.map (fun _ -> bottom) tx.Model.tasks)
            t.model.Model.txns,
          fun _ -> false )
  in
  let todo = Array.make (Array.length sites) 0 in
  let n = ref 0 in
  Array.iteri
    (fun k site ->
      if not (carries site) then begin
        todo.(!n) <- k;
        incr n
      end)
    sites;
  let n = !n in
  Parallel.Pool.run_ranges t.pool ~steal:t.params.Params.steal
    ~slots:(Parallel.Pool.slots_for t.pool n)
    ~n
    (fun ~slot ~lo ~hi ->
      for k = lo to hi - 1 do
        let site = sites.(todo.(k)) in
        resp.(site.Ir.a).(site.Ir.b) <- compute ~slot site
      done);
  (resp, n)

let analyze_rational t ~warm =
  let m = t.model and params = t.params in
  emit t (Analysis_started { variant = params.Params.variant });
  let n = Model.n_txns m in
  let zero_matrix () =
    Array.init n (fun a -> Array.make (Model.n_tasks m a) Q.zero)
  in
  let jit =
    match warm with
    | Some w -> copy_matrix w.w_jit
    | None ->
        let jit = zero_matrix () in
        for a = 0 to n - 1 do
          jit.(a).(0) <- m.Model.release_jitter.(a)
        done;
        jit
  in
  let rbest = ref (best_case t ~jit) in
  let phi = ref (offsets_of m !rbest) in
  (* Rows whose values changed in the latest jitter/offset update; all
     dirty before the first sweep so every task is computed once.  A
     warm start instead seeds exactly its dirty frontier: clean rows
     hold the converged values their carried responses were computed
     under, so carrying them is the same bit-identical shortcut the
     within-run incremental sweep takes.  (Warm starts imply the Simple
     best case — see [Delta.plan] — so the offsets are constant and
     [phi_dirty] stays false.) *)
  let jit_dirty =
    match warm with Some w -> Array.copy w.w_dirty | None -> Array.make n true
  in
  let phi_dirty = Array.make n (Option.is_none warm) in
  let prev = ref (Option.map (fun w -> copy_matrix w.w_resp) warm) in
  let history = ref [] in
  let responses = ref (Array.map (Array.map (fun _ -> Report.Divergent)) jit) in
  let diverged = ref false in
  let converged = ref false in
  let iterations = ref 0 in
  while
    (not !converged) && (not !diverged)
    && !iterations < params.Params.max_outer_iterations
  do
    incr iterations;
    let changed i = jit_dirty.(i) || phi_dirty.(i) in
    let resp, recomputed =
      sweep t ~prev:!prev ~changed ~bottom:Report.Divergent
        ~compute:(fun ~slot site ->
          Rta.response_time_site ~slot ?memo:t.memo ~counters:t.counters
            site m params ~phi:!phi ~jit)
    in
    let carried = Ir.n_tasks t.ir - recomputed in
    emit t (Sweep { iteration = !iterations; recomputed; carried });
    prev := Some resp;
    responses := resp;
    if params.Params.keep_history then
      history :=
        { Report.jitters = copy_matrix jit; responses = resp } :: !history;
    (* With the Simple best case the offsets are constant and the
       responses are monotone across iterations, so a transaction already
       past its deadline settles the verdict: stop early unless asked for
       the full fixed point.  (Refined recomputes offsets, which breaks
       the monotonicity argument, so it always iterates fully.) *)
    if params.Params.early_exit && params.Params.best_case = Params.Simple
    then begin
      let hopeless = ref false in
      for a = 0 to n - 1 do
        let last = Model.n_tasks m a - 1 in
        if not (Report.bound_le resp.(a).(last) m.Model.txns.(a).Model.deadline)
        then hopeless := true
      done;
      if !hopeless then diverged := true
    end;
    (* Next jitters, Jacobi-style from this iteration's responses. *)
    let next = zero_matrix () in
    (try
       for a = 0 to n - 1 do
         next.(a).(0) <- m.Model.release_jitter.(a);
         for b = 1 to Model.n_tasks m a - 1 do
           match resp.(a).(b - 1) with
           | Report.Divergent -> raise Exit
           | Report.Finite r ->
               let rb = !rbest.(a).(b - 1) in
               next.(a).(b) <- Q.max Q.zero Q.(r - rb)
         done
       done
     with Exit -> diverged := true);
    if not !diverged then begin
      Array.fill jit_dirty 0 n false;
      Array.fill phi_dirty 0 n false;
      let same = ref true in
      for a = 0 to n - 1 do
        for b = 0 to Model.n_tasks m a - 1 do
          if not (Q.equal next.(a).(b) jit.(a).(b)) then begin
            same := false;
            jit_dirty.(a) <- true
          end
        done
      done;
      if !same then converged := true
      else begin
        Array.iteri
          (fun a row -> Array.blit row 0 jit.(a) 0 (Array.length row))
          next;
        (* The refined best case depends on the jitters; refresh it and
           the offsets it seeds. *)
        if params.Params.best_case = Params.Refined then begin
          let old_phi = !phi in
          rbest := best_case t ~jit;
          phi := offsets_of m !rbest;
          for i = 0 to n - 1 do
            if not (rows_equal old_phi.(i) !phi.(i)) then phi_dirty.(i) <- true
          done
        end
      end
    end
  done;
  let results =
    Array.init n (fun a ->
        Array.init (Model.n_tasks m a) (fun b ->
            {
              Report.offset = !phi.(a).(b);
              jitter = jit.(a).(b);
              rbest = !rbest.(a).(b);
              response = !responses.(a).(b);
            }))
  in
  let schedulable =
    !converged
    && Array.to_list m.Model.txns
       |> List.mapi (fun a tx -> (a, tx))
       |> List.for_all (fun (a, (tx : Model.txn)) ->
              Report.bound_le
                !responses.(a).(Array.length tx.Model.tasks - 1)
                tx.Model.deadline)
  in
  emit t
    (Finished { iterations = !iterations; converged = !converged; schedulable });
  {
    Report.results;
    history = List.rev !history;
    outer_iterations = !iterations;
    converged = !converged;
    schedulable;
  }

(* The same outer fixed point on the scaled integer timeline.  Every
   step is the exact image of the rational step under v ↦ v·scale (see
   Timebase), so sweep counts, convergence, early exits and the final
   report are bit-identical; rationals appear only at the report and
   history boundaries.  Value arithmetic goes through [Q.Checked], so an
   overflow anywhere — including inside a worker domain, which the pool
   re-raises in the caller — surfaces as [Q.Overflow] for [analyze] to
   catch. *)
let analyze_int t tb ~warm =
  let m = t.model and params = t.params in
  emit t (Analysis_started { variant = params.Params.variant });
  let n = Model.n_txns m in
  let zero_matrix () =
    Array.init n (fun a -> Array.make (Model.n_tasks m a) 0)
  in
  let best_case_int ~sjit =
    match params.Params.best_case with
    | Params.Simple -> Best_case.simple_int tb
    | Params.Refined -> Best_case.refined_int m tb ~sjit
  in
  let offsets_of_int rbest =
    Array.mapi
      (fun a (tx : Model.txn) ->
        Array.mapi
          (fun b (_ : Model.task) -> if b = 0 then 0 else rbest.(a).(b - 1))
          tx.Model.tasks)
      m.Model.txns
  in
  let jit =
    match warm with
    | Some w -> copy_matrix w.iw_jit
    | None ->
        let jit = zero_matrix () in
        for a = 0 to n - 1 do
          jit.(a).(0) <- tb.Timebase.srelease_jitter.(a)
        done;
        jit
  in
  let rbest = ref (best_case_int ~sjit:jit) in
  let phi = ref (offsets_of_int !rbest) in
  let jit_dirty =
    match warm with Some w -> Array.copy w.iw_dirty | None -> Array.make n true
  in
  let phi_dirty = Array.make n (Option.is_none warm) in
  let prev = ref (Option.map (fun w -> copy_matrix w.iw_resp) warm) in
  let history = ref [] in
  let responses =
    ref (Array.map (Array.map (fun _ -> Rta.IDivergent)) jit)
  in
  let diverged = ref false in
  let converged = ref false in
  let iterations = ref 0 in
  while
    (not !converged) && (not !diverged)
    && !iterations < params.Params.max_outer_iterations
  do
    incr iterations;
    let changed i = jit_dirty.(i) || phi_dirty.(i) in
    let resp, recomputed =
      sweep t ~prev:!prev ~changed ~bottom:Rta.IDivergent
        ~compute:(fun ~slot (site : Ir.site) ->
          Rta.response_time_site_int tb ~slot ?memo:t.memo
            ~counters:t.counters
            ?kernels:
              (Option.map
                 (fun kt -> Kernels.site kt ~a:site.Ir.a ~b:site.Ir.b)
                 t.kernels)
            site params ~sphi:!phi ~sjit:jit)
    in
    let carried = Ir.n_tasks t.ir - recomputed in
    emit t (Sweep { iteration = !iterations; recomputed; carried });
    prev := Some resp;
    responses := resp;
    if params.Params.keep_history then
      history :=
        {
          Report.jitters = Array.map (Array.map (Timebase.to_q tb)) jit;
          responses = Array.map (Array.map (Rta.iresponse_to_bound tb)) resp;
        }
        :: !history;
    if params.Params.early_exit && params.Params.best_case = Params.Simple
    then begin
      let hopeless = ref false in
      for a = 0 to n - 1 do
        let last = Model.n_tasks m a - 1 in
        (match resp.(a).(last) with
        | Rta.IDivergent -> hopeless := true
        | Rta.IFinite v -> if v > tb.Timebase.sdeadline.(a) then hopeless := true)
      done;
      if !hopeless then diverged := true
    end;
    let next = zero_matrix () in
    (try
       for a = 0 to n - 1 do
         next.(a).(0) <- tb.Timebase.srelease_jitter.(a);
         for b = 1 to Model.n_tasks m a - 1 do
           match resp.(a).(b - 1) with
           | Rta.IDivergent -> raise Exit
           | Rta.IFinite r ->
               let rb = !rbest.(a).(b - 1) in
               next.(a).(b) <- Stdlib.max 0 (Q.Checked.( - ) r rb)
         done
       done
     with Exit -> diverged := true);
    if not !diverged then begin
      Array.fill jit_dirty 0 n false;
      Array.fill phi_dirty 0 n false;
      let same = ref true in
      for a = 0 to n - 1 do
        for b = 0 to Model.n_tasks m a - 1 do
          if next.(a).(b) <> jit.(a).(b) then begin
            same := false;
            jit_dirty.(a) <- true
          end
        done
      done;
      if !same then converged := true
      else begin
        Array.iteri
          (fun a row -> Array.blit row 0 jit.(a) 0 (Array.length row))
          next;
        if params.Params.best_case = Params.Refined then begin
          let old_phi = !phi in
          rbest := best_case_int ~sjit:jit;
          phi := offsets_of_int !rbest;
          for i = 0 to n - 1 do
            if old_phi.(i) <> !phi.(i) then phi_dirty.(i) <- true
          done
        end
      end
    end
  done;
  let results =
    Array.init n (fun a ->
        Array.init (Model.n_tasks m a) (fun b ->
            {
              Report.offset = Timebase.to_q tb !phi.(a).(b);
              jitter = Timebase.to_q tb jit.(a).(b);
              rbest = Timebase.to_q tb !rbest.(a).(b);
              response = Rta.iresponse_to_bound tb !responses.(a).(b);
            }))
  in
  let schedulable =
    !converged
    && Array.to_list m.Model.txns
       |> List.mapi (fun a (_ : Model.txn) -> a)
       |> List.for_all (fun a ->
              match !responses.(a).(Model.n_tasks m a - 1) with
              | Rta.IDivergent -> false
              | Rta.IFinite v -> v <= tb.Timebase.sdeadline.(a))
  in
  emit t
    (Finished { iterations = !iterations; converged = !converged; schedulable });
  {
    Report.results;
    history = List.rev !history;
    outer_iterations = !iterations;
    converged = !converged;
    schedulable;
  }

(* The warm matrices were produced by a previous analysis — possibly on
   a different timebase, or on the rational path — so they need not lie
   on this session's scaled-integer lattice.  Off-lattice values raise
   [Q.Overflow] in [to_scaled]; the warm start then runs on the
   rational path (the report is bit-identical either way) without
   poisoning the kernel for later cold calls. *)
let iwarm_of tb w =
  let scale = Timebase.scale tb in
  try
    Some
      {
        iw_dirty = w.w_dirty;
        iw_jit = Array.map (Array.map (Q.to_scaled ~scale)) w.w_jit;
        iw_resp =
          Array.map
            (Array.map (function
              | Report.Finite r -> Rta.IFinite (Q.to_scaled ~scale r)
              | Report.Divergent -> Rta.IDivergent))
            w.w_resp;
      }
  with Q.Overflow -> None

let analyze_dispatch t warm =
  match t.timebase with
  | Some tb when not !(t.kernel_poisoned) -> (
      let iwarm = match warm with None -> Some None | Some w -> (
          match iwarm_of tb w with Some iw -> Some (Some iw) | None -> None)
      in
      match iwarm with
      | None -> analyze_rational t ~warm
      | Some iwarm -> (
          Rta.record_kernel_run t.counters;
          try analyze_int t tb ~warm:iwarm
          with Q.Overflow ->
            (* Scaled arithmetic left the native range mid-analysis; the
               rational path cannot (its local denominators stay small),
               so rerun there from scratch and stop trying the kernel on
               this session — it would overflow on every call. *)
            Rta.record_kernel_fallback t.counters;
            t.kernel_poisoned := true;
            emit t (Kernel_fallback { reason = "overflow" });
            analyze_rational t ~warm))
  | _ -> analyze_rational t ~warm

(* Wrap every full analysis with the pool's scheduler accounting: the
   counter deltas over the run are emitted as one [Pool_stats] event
   when the work-stealing machinery engaged at all. *)
let with_pool_stats t run =
  let before = Parallel.Pool.stats t.pool in
  let report = run () in
  let after = Parallel.Pool.stats t.pool in
  let steals = after.Parallel.Pool.steals - before.Parallel.Pool.steals
  and splits = after.Parallel.Pool.splits - before.Parallel.Pool.splits
  and idle = after.Parallel.Pool.idle_slots - before.Parallel.Pool.idle_slots in
  if steals > 0 || splits > 0 || idle > 0 then
    emit t (Pool_stats { steals; splits; idle });
  report

let analyze_with t warm = with_pool_stats t (fun () -> analyze_dispatch t warm)

let analyze t = analyze_with t None

(* ------------------------------------------------------------------ *)
(* Delta re-analysis: warm fixed points across model changes           *)
(* ------------------------------------------------------------------ *)

type delta_outcome =
  | Delta_warm of { dirty : int; total : int; carried : int }
  | Delta_cold of { reason : string }

module Delta = struct
  type plan = { warm : warm; dirty_tasks : int; total_tasks : int }

  (* The transactions of two models are aligned by name — admission
     changes the transaction count, so positional indices never
     transfer.  A transaction is clean when everything its own response
     equations read is unchanged: period, deadline, release jitter,
     blocking, the task chain (demands, placement, priorities) and the
     linear bounds of every platform its tasks run on.  Interference
     *from other* transactions is not part of this check — changes
     there are other transactions' dirtiness, propagated through the
     dependency rows by the closure. *)
  let txn_clean ~prev_model ~model ~prev_a ~a =
    let om = prev_model and nm = model in
    let ot = om.Model.txns.(prev_a) and nt = nm.Model.txns.(a) in
    Q.equal ot.Model.period nt.Model.period
    && Q.equal ot.Model.deadline nt.Model.deadline
    && Q.equal om.Model.release_jitter.(prev_a) nm.Model.release_jitter.(a)
    && ot.Model.tasks = nt.Model.tasks
    && om.Model.blocking.(prev_a) = nm.Model.blocking.(a)
    && Array.for_all
         (fun (tk : Model.task) ->
           tk.Model.res < Array.length om.Model.bounds
           && Platform.Linear_bound.equal
                om.Model.bounds.(tk.Model.res)
                nm.Model.bounds.(tk.Model.res))
         nt.Model.tasks

  let plan t ~prev_model ~prev_report =
    let params = t.params in
    if not prev_report.Report.converged then Error "previous-not-converged"
    else if not params.Params.incremental then Error "incremental-disabled"
    else if params.Params.best_case <> Params.Simple then
      Error "refined-best-case"
    else if params.Params.keep_history then Error "history-requested"
    else begin
      let m = t.model in
      let n = Model.n_txns m in
      let seed = Array.make n false in
      let old_of = Array.make n (-1) in
      let matched = ref 0 in
      for a = 0 to n - 1 do
        match Model.find_txn prev_model m.Model.txns.(a).Model.tname with
        | Some oa ->
            incr matched;
            if txn_clean ~prev_model ~model:m ~prev_a:oa ~a then
              old_of.(a) <- oa
            else seed.(a) <- true
        | None -> seed.(a) <- true
      done;
      (* dirty = total already: every row restarts from bottom and the
         remaining diff bookkeeping has nothing left to mark, so skip
         straight to the cold path — this is where the planning overhead
         used to exceed the work it saved on small stores (bench X13) *)
      if Array.for_all Fun.id seed then Error "all-dirty"
      else begin
        (* A removed transaction's interference is gone from equations
           the new dependency rows cannot see any more; conservatively
           seed every survivor that shares a platform with it.  Clean
           survivors keep their resource indices (the task chains
           compared equal), so the overlap test in the old model's
           indexing is exact.  Transaction names are unique, so every
           previous transaction survived iff each one matched some new
           transaction above — the admission-heavy common case, which
           skips this quadratic scan entirely. *)
        if !matched < Array.length prev_model.Model.txns then
          Array.iter
            (fun (ot : Model.txn) ->
              if
                not
                  (Array.exists
                     (fun (tx : Model.txn) -> tx.Model.tname = ot.Model.tname)
                     m.Model.txns)
              then
                Array.iter
                  (fun (otk : Model.task) ->
                    Array.iteri
                      (fun a (tx : Model.txn) ->
                        if
                          (not seed.(a))
                          && Array.exists
                               (fun (tk : Model.task) ->
                                 tk.Model.res = otk.Model.res)
                               tx.Model.tasks
                        then seed.(a) <- true)
                      m.Model.txns)
                  ot.Model.tasks)
            prev_model.Model.txns;
        let dirty = Ir.dirty_closure t.ir ~seed in
      if Array.for_all Fun.id dirty then Error "all-dirty"
      else begin
        let w_jit =
          Array.init n (fun a ->
              let nt = Model.n_tasks m a in
              if dirty.(a) then begin
                let row = Array.make nt Q.zero in
                row.(0) <- m.Model.release_jitter.(a);
                row
              end
              else
                Array.init nt (fun b ->
                    prev_report.Report.results.(old_of.(a)).(b).Report.jitter))
        in
        let w_resp =
          Array.init n (fun a ->
              let nt = Model.n_tasks m a in
              if dirty.(a) then Array.make nt Report.Divergent
              else
                Array.init nt (fun b ->
                    prev_report.Report.results.(old_of.(a)).(b).Report.response))
        in
        let dirty_tasks = ref 0 in
        Array.iteri
          (fun a d -> if d then dirty_tasks := !dirty_tasks + Model.n_tasks m a)
          dirty;
        Ok
          {
            warm = { w_dirty = dirty; w_jit; w_resp };
            dirty_tasks = !dirty_tasks;
            total_tasks = Ir.n_tasks t.ir;
          }
      end
      end
    end

  let dirty_tasks p = p.dirty_tasks

  let total_tasks p = p.total_tasks
end

let analyze_delta t ~prev_model ~prev_report =
  match Delta.plan t ~prev_model ~prev_report with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok p ->
      let dirty = p.Delta.dirty_tasks and total = p.Delta.total_tasks in
      let carried = total - dirty in
      Rta.record_delta_run t.counters;
      emit t (Delta { dirty; total; carried });
      let report = analyze_with t (Some p.Delta.warm) in
      (* A warm run that converged reached the system's least fixed
         point (the seed is below it coordinatewise and the clean block
         is pinned at it — docs/INCREMENTAL.md), and under early exit a
         converged run is schedulable by construction, so the report is
         the cold report bit for bit.  Anything else — early exit on
         the dirty frontier, iteration cap — is rerun cold so the
         non-converged report matches the cold iterates exactly. *)
      if report.Report.converged then
        (report, Delta_warm { dirty; total; carried })
      else begin
        Rta.record_delta_fallback t.counters;
        (analyze t, Delta_cold { reason = "warm-not-converged" })
      end

(* ------------------------------------------------------------------ *)
(* Seeded analysis: warm fixed points across parameter points          *)
(* ------------------------------------------------------------------ *)

(* A seed report comes from a *different* parameter point, so its
   jitters rarely lie on this session's scaled-integer lattice.  Unlike
   the delta warm start nothing is pinned — every transaction is dirty,
   the seeded responses are never read — so rounding each jitter *down*
   onto the lattice keeps the start below the least fixed point and the
   run stays sound.  Row 0 (the release jitter) is a model constant and
   already exact on the lattice. *)
let iwarm_floor_of tb w =
  let scale = Timebase.scale tb in
  try
    Some
      {
        iw_dirty = w.w_dirty;
        iw_jit =
          Array.map (Array.map (fun j -> Q.floor Q.(j * of_int scale))) w.w_jit;
        iw_resp = Array.map (Array.map (fun _ -> Rta.IDivergent)) w.w_resp;
      }
  with Q.Overflow -> None

let seeded_dispatch t warm =
  match t.timebase with
  | Some tb when not !(t.kernel_poisoned) -> (
      match iwarm_floor_of tb warm with
      | None -> analyze_rational t ~warm:(Some warm)
      | Some iw -> (
          Rta.record_kernel_run t.counters;
          try analyze_int t tb ~warm:(Some iw)
          with Q.Overflow ->
            Rta.record_kernel_fallback t.counters;
            t.kernel_poisoned := true;
            emit t (Kernel_fallback { reason = "overflow" });
            analyze_rational t ~warm:(Some warm)))
  | _ -> analyze_rational t ~warm:(Some warm)

module Seeded = struct
  (* Seeding across parameter points keeps the structure fixed — same
     transactions in the same order, same chains on the same platforms
     — and only the knobs the design-space searches turn may differ:
     the linear supply bounds and the task demands.  Alignment is
     positional (probe models are [{m with bounds}] rebinds or demand
     rescalings of one base model), with physical-equality fast paths
     for the arrays such rebinds share. *)
  let task_structure_eq (o : Model.task) (n : Model.task) =
    o == n
    || String.equal o.Model.name n.Model.name
       && o.Model.res = n.Model.res && o.Model.prio = n.Model.prio

  let txn_structure_eq (ot : Model.txn) (nt : Model.txn) =
    ot == nt
    || String.equal ot.Model.tname nt.Model.tname
       && Q.equal ot.Model.period nt.Model.period
       && Q.equal ot.Model.deadline nt.Model.deadline
       && Array.length ot.Model.tasks = Array.length nt.Model.tasks
       && Array.for_all2 task_structure_eq ot.Model.tasks nt.Model.tasks

  let same_structure (sm : Model.t) (tm : Model.t) =
    sm == tm
    || Array.length sm.Model.txns = Array.length tm.Model.txns
       && Array.length sm.Model.bounds = Array.length tm.Model.bounds
       && sm.Model.release_jitter = tm.Model.release_jitter
       && sm.Model.blocking = tm.Model.blocking
       && (sm.Model.txns == tm.Model.txns
          || Array.for_all2 txn_structure_eq sm.Model.txns tm.Model.txns)

  (* The seed platform must be easier coordinatewise: more rate, less
     delay.  Burstiness must be *equal* — a larger β shrinks the
     best-case responses, which *grows* the jitters J = R − Rbest, so
     the verdict is not monotone in β and a β-easier point is not a
     sound seed (the frontier machinery in {!Regions} fixes β for the
     same reason). *)
  let bound_dominates (s : Platform.Linear_bound.t) (t : Platform.Linear_bound.t)
      =
    s == t
    || Q.(s.Platform.Linear_bound.alpha >= t.Platform.Linear_bound.alpha)
       && Q.(s.Platform.Linear_bound.delta <= t.Platform.Linear_bound.delta)
       && Q.equal s.Platform.Linear_bound.beta t.Platform.Linear_bound.beta

  (* Demands: the jitter map J = R − Rbest grows with C (through R, at
     platform rate 1/α per unit) and *shrinks* with Cb (through Rbest,
     at the same rate at most).  A seed task is therefore easier only
     when both shrink together and the worst case shrinks at least as
     much as the best case: Cb_s ≤ Cb and C − C_s ≥ Cb − Cb_s (demand
     *scalings* f·(C, Cb) with f ≤ 1 satisfy this automatically since
     Cb ≤ C). *)
  let task_dominates (o : Model.task) (n : Model.task) =
    o == n
    || Q.(o.Model.cb <= n.Model.cb)
       && Q.(n.Model.c - o.Model.c >= n.Model.cb - o.Model.cb)

  let txn_dominates (ot : Model.txn) (nt : Model.txn) =
    ot == nt || Array.for_all2 task_dominates ot.Model.tasks nt.Model.tasks

  let dominates ~seed target =
    same_structure seed target
    && Array.for_all2 bound_dominates seed.Model.bounds target.Model.bounds
    && (seed.Model.txns == target.Model.txns
       || Array.for_all2 txn_dominates seed.Model.txns target.Model.txns)

  (* L1 gap between the two parameter points, used to pick the nearest
     dominating seed (fewest warm iterations to close) and reported in
     the [Seeded] event.  [gap] assumes [dominates ~seed target] (every
     summand is then non-negative) — callers that already tested
     dominance, like the [Regions.Probe_ladder] frontier scan, skip the
     re-test. *)
  let gap ~seed target =
    begin
      let d = ref Q.zero in
      Array.iteri
        (fun r (sb : Platform.Linear_bound.t) ->
          let tb = target.Model.bounds.(r) in
          if sb != tb then
            d :=
              Q.(
                !d
                + (sb.Platform.Linear_bound.alpha
                  - tb.Platform.Linear_bound.alpha)
                + (tb.Platform.Linear_bound.delta
                  - sb.Platform.Linear_bound.delta)))
        seed.Model.bounds;
      if seed.Model.txns != target.Model.txns then
        Array.iteri
          (fun a (st : Model.txn) ->
            let tt = target.Model.txns.(a) in
            if st != tt then
              Array.iteri
                (fun b (stk : Model.task) ->
                  let ttk = tt.Model.tasks.(b) in
                  if stk != ttk then
                    d :=
                      Q.(
                        !d + (ttk.Model.c - stk.Model.c)
                        + (ttk.Model.cb - stk.Model.cb)))
                st.Model.tasks)
          seed.Model.txns;
      !d
    end

  let distance ~seed target =
    if dominates ~seed target then Some (gap ~seed target) else None

  let plan t ~seed_model ~seed_report =
    let params = t.params in
    if not seed_report.Report.converged then Error "seed-not-converged"
    else if params.Params.best_case <> Params.Simple then
      Error "refined-best-case"
    else if params.Params.keep_history then Error "history-requested"
    else if not (same_structure seed_model t.model) then
      Error "seed-structure-mismatch"
    else if not (dominates ~seed:seed_model t.model) then
      Error "seed-not-dominating"
    else begin
      let m = t.model in
      let n = Model.n_txns m in
      (* Everything is dirty — the parameter point changed under every
         transaction — so only the jitters seed the sweep; the seeded
         responses are never read and stay at bottom. *)
      let w_jit =
        Array.init n (fun a ->
            Array.init (Model.n_tasks m a) (fun b ->
                seed_report.Report.results.(a).(b).Report.jitter))
      in
      let w_resp =
        Array.init n (fun a -> Array.make (Model.n_tasks m a) Report.Divergent)
      in
      let distance =
        Option.value ~default:Q.zero (distance ~seed:seed_model m)
      in
      Ok ({ w_dirty = Array.make n true; w_jit; w_resp }, distance)
    end
end

let analyze_seeded ?(verdict_only = false) t ~seed_model ~seed_report =
  match Seeded.plan t ~seed_model ~seed_report with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok (warm, distance) ->
      Rta.record_delta_run t.counters;
      let report = with_pool_stats t (fun () -> seeded_dispatch t warm) in
      let iterations = report.Report.outer_iterations in
      emit t
        (Seeded
           {
             distance;
             iterations;
             saved = max 0 (seed_report.Report.outer_iterations - iterations);
           });
      let total = Ir.n_tasks t.ir in
      (* The seed jitters sit between bottom and the least fixed point,
         so the warm iterates are squeezed between the cold iterates
         and the fixed point (docs/THEORY.md): a converged warm run
         *is* the cold report bit for bit, and even a non-converged
         warm iterate decides the verdict exactly as cold would —
         early exit fires only on responses the fixed point also
         exceeds, and a capped warm run caps cold too.  Under
         [verdict_only] callers accept the warm numbers as-is (they
         only read [schedulable]); otherwise a non-converged run is
         rerun cold so the reported iterates match cold exactly. *)
      if report.Report.converged || verdict_only then
        (report, Delta_warm { dirty = total; total; carried = 0 })
      else begin
        Rta.record_delta_fallback t.counters;
        (analyze t, Delta_cold { reason = "warm-not-converged" })
      end

let response_times t =
  (analyze t).Report.results
  |> Array.map (Array.map (fun r -> r.Report.response))

(* ------------------------------------------------------------------ *)
(* Classical baselines over a session                                  *)
(* ------------------------------------------------------------------ *)

(* The classical and EDF analyses model independent tasks on one
   platform: the degenerate systems where every transaction is a single
   task.  Multi-task transactions have precedence structure the
   baselines cannot express, so they are excluded from the view. *)
let single_tasks t ~resource =
  let out = ref [] in
  Array.iteri
    (fun a (tx : Model.txn) ->
      if Array.length tx.Model.tasks = 1 && tx.Model.tasks.(0).Model.res = resource
      then out := (a, tx, tx.Model.tasks.(0)) :: !out)
    t.model.Model.txns;
  List.rev !out

let classical_tasks t ~resource =
  List.map
    (fun (a, (tx : Model.txn), (tk : Model.task)) ->
      {
        Classical.name = tk.Model.name;
        c = tk.Model.c;
        period = tx.Model.period;
        deadline = tx.Model.deadline;
        jitter = t.model.Model.release_jitter.(a);
        prio = tk.Model.prio;
      })
    (single_tasks t ~resource)

let classical t ~resource =
  Classical.response_times
    ~bound:t.model.Model.bounds.(resource)
    ~horizon_factor:t.params.Params.horizon_factor
    (classical_tasks t ~resource)

let classical_schedulable t ~resource =
  Classical.schedulable
    ~bound:t.model.Model.bounds.(resource)
    ~horizon_factor:t.params.Params.horizon_factor
    (classical_tasks t ~resource)

let edf_tasks t ~resource =
  List.map
    (fun (_, (tx : Model.txn), (tk : Model.task)) ->
      {
        Edf.name = tk.Model.name;
        c = tk.Model.c;
        period = tx.Model.period;
        deadline = tx.Model.deadline;
      })
    (single_tasks t ~resource)

let edf_schedulable t ~resource =
  Edf.schedulable ~bound:t.model.Model.bounds.(resource) (edf_tasks t ~resource)

let edf_margin t ~resource =
  Edf.margin ~bound:t.model.Model.bounds.(resource) (edf_tasks t ~resource)
