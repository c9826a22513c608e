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
  kernels : Kernels.t option;
      (* the integer timeline — timebase and skeleton tables — when
         [params.int_kernel] and the model admits one: the
         value-dependent half of compilation, rebuilt whenever the model
         or the horizon factor changes *)
  kernel_poisoned : bool ref;
      (* set after a mid-analysis overflow: this model will overflow
         again, so later analyze calls skip straight to the rational
         path instead of paying a doomed kernel attempt *)
}

let emit t e = match t.sink with None -> () | Some f -> f e

let memo_for model params =
  if params.Params.memoize then Some (Memo.create model) else None

let kernels_for model ir params =
  if params.Params.int_kernel then
    Timebase.of_model model ~horizon_factor:params.Params.horizon_factor
    |> Option.map (Kernels.compile model ir)
  else None

let emit_kernel_verdict t =
  if t.params.Params.int_kernel then
    match t.kernels with
    | Some k ->
        emit t (Kernel_compiled { scale = (Kernels.timebase k).Timebase.scale })
    | None -> emit t (Kernel_fallback { reason = "unrepresentable" })

let create ?(params = Params.default) ?pool ?counters ?sink m =
  let pool = Option.value pool ~default:Parallel.Pool.sequential in
  let counters = match counters with Some c -> c | None -> Rta.counters () in
  let ir = Ir.compile m in
  let t =
    {
      ir;
      model = m;
      params;
      pool;
      counters;
      memo = memo_for m params;
      sink;
      kernels = kernels_for m ir params;
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
  (* Cached values depend on the model alone (identical here), never on
     params or the pool, so carrying the memo across an override is
     transparent. *)
  let memo =
    if not params.Params.memoize then None
    else match t.memo with Some _ as m -> m | None -> memo_for t.model params
  in
  (* The timebase depends on the model and on the scaled horizon only;
     keep it — and the poison verdict, which is a property of the same
     pair — unless the kernel switch or the horizon factor changed. *)
  let kernels, kernel_poisoned =
    if
      params.Params.int_kernel = t.params.Params.int_kernel
      && params.Params.horizon_factor = t.params.Params.horizon_factor
    then (t.kernels, t.kernel_poisoned)
    else (kernels_for t.model t.ir params, ref false)
  in
  { t with params; pool; counters; sink; memo; kernels; kernel_poisoned }

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
  {
    t with
    ir;
    model = m;
    memo = memo_for m t.params;
    kernels = kernels_for m ir t.params;
    kernel_poisoned = ref false;
  }

let kernel_scale t =
  if !(t.kernel_poisoned) then None
  else Option.map (fun k -> (Kernels.timebase k).Timebase.scale) t.kernels

(* ------------------------------------------------------------------ *)
(* The holistic outer fixed point (Section 3.2)                        *)
(* ------------------------------------------------------------------ *)

let copy_matrix m = Array.map Array.copy m

let offsets_of m zero rbest =
  Array.mapi
    (fun a (tx : Model.txn) ->
      Array.mapi
        (fun b (_ : Model.task) -> if b = 0 then zero else rbest.(a).(b - 1))
        tx.Model.tasks)
    m.Model.txns

let rows_equal equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (equal x b.(i)) then ok := false) a;
  !ok

(* A timeline of the outer fixed point: the per-site analysis on its
   number type, the model's constants on it, and the response of a site
   under given offsets and jitters.  The instance on the session's
   scaled-integer lattice is the exact image of the rational one under
   v ↦ v·scale, so [fixed_point] takes the same sweeps, convergence
   decisions and early exits on either timeline and reports the same
   rationals.  Scaled arithmetic is overflow-checked, so an overflow
   anywhere — including inside a worker domain, which the pool re-raises
   in the caller — surfaces as [Q.Overflow] for [dispatch] to catch. *)
type 'v timeline = {
  core : (module Rta.S with type t = 'v);
  tb : 'v Timebase.t;
  compute :
    Ir.site -> phi:'v array array -> jit:'v array array -> 'v Report.outcome;
}

(* The demand curves are the one part compiled and evaluated per
   timeline: from the memo when it is on and the curve has enough terms
   to beat a lookup, compiled directly otherwise.  Tiny kernels are
   cheaper to evaluate than to look up (a hashtable probe costs about as
   much as folding a couple of hoisted terms); memoised values are
   bit-identical to recomputation, so mixing the two cannot change a
   response. *)
let rational t =
  let m = t.model in
  let tb =
    Timebase.rational m ~horizon_factor:t.params.Params.horizon_factor
  in
  let compute (site : Ir.site) ~phi ~jit =
    let a = site.Ir.a and b = site.Ir.b in
    let cache = Option.map (fun memo -> Memo.cache memo ~a ~b) t.memo in
    let curve ~i ~hp_list k =
      match cache with
      | Some c when List.compare_length_with hp_list Memo.min_terms >= 0 ->
          Memo.evaluator c m ~phi ~jit ~i ~k ~hp_list ~a ~b
      | _ ->
          let kernel = Interference.compile ~hp_list m ~phi ~jit ~i ~k ~a ~b in
          fun t -> Interference.eval kernel ~t
    in
    Rta.Rat.response ~counters:t.counters tb site t.params ~phi ~jit
      ~own:(curve ~i:a ~hp_list:site.Ir.own_hp)
      ~remote:(fun ri ->
        let r = site.Ir.remotes.(ri) in
        curve ~i:r.Ir.txn ~hp_list:r.Ir.hp_list)
  in
  { core = (module Rta.Rat); tb; compute }

let scaled t kernels =
  let tb = Kernels.timebase kernels in
  let compute (site : Ir.site) ~phi ~jit =
    let kern = Kernels.site kernels ~a:site.Ir.a ~b:site.Ir.b in
    let cache =
      Option.map (fun memo -> Memo.cache memo ~a:site.Ir.a ~b:site.Ir.b) t.memo
    in
    let curve (sk : Interference.iskeleton) k =
      match cache with
      | Some c when Array.length sk.Interference.sk_js >= Memo.min_terms ->
          Memo.evaluator_int c sk ~sphi:phi ~sjit:jit ~k
      | _ ->
          let kernel =
            Interference.compile_skeleton sk ~sphi:phi ~sjit:jit ~k
          in
          fun t -> Interference.eval_int kernel ~t
    in
    Rta.Scaled.response ~counters:t.counters tb site t.params ~phi ~jit
      ~own:(curve kern.Kernels.own)
      ~remote:(fun ri -> curve kern.Kernels.remotes.(ri))
  in
  { core = (module Rta.Scaled); tb; compute }

(* A warm start, planned by [Delta] or [Seeded] from a previous
   converged report: the sweep begins from the seeded jitter matrix
   instead of the bottom.  Reset rows ([w_reset]) start at the cold
   bottom, or at a seed below the least fixed point, and are computed in
   the first sweep.  Every other row starts at its previous converged
   jitters with the responses computed under them in [w_resp], at or
   below the new least fixed point; it is not pinned: the sweep's
   per-task [changed] test carries it exactly while none of the tasks it
   reads moved (docs/INCREMENTAL.md).  Plans build it on rationals;
   [start] moves it onto a timeline. *)
type 'v warm = {
  w_reset : bool array;  (* per transaction *)
  w_jit : 'v array array;
  w_resp : 'v Report.outcome array array;  (* only kept rows are ever read *)
}

(* The one lattice rule for warm starts.  A warm report may come from
   another timebase, another parameter point or the rational path, so
   its values need not lie on this timeline's lattice.  Kept rows are
   read as they are — their responses are carried against their
   jitters: they must convert exactly, and an off-lattice value raises
   [Q.Overflow] so the start runs on rationals instead (bit-identical,
   and the kernel stays unpoisoned for later calls).  Reset rows are
   only a Kleene seed below the least fixed point: rounding their
   jitters *down* keeps them below it, and their responses, never read,
   start divergent.  A delta plan's reset rows sit at the cold bottom,
   which is on the lattice; a seeded plan's rows are all reset. *)
let start (type v) (tl : v timeline) w =
  let module C = (val tl.core) in
  let of_q = C.of_q ~scale:tl.tb.Timebase.scale in
  {
    w_reset = w.w_reset;
    w_jit =
      Array.mapi
        (fun a row -> Array.map (of_q ~floor:w.w_reset.(a)) row)
        w.w_jit;
    w_resp =
      Array.mapi
        (fun a row ->
          Array.map
            (function
              | Report.Finite r when not w.w_reset.(a) ->
                  Report.Finite (of_q ~floor:false r)
              | _ -> Report.Divergent)
            row)
        w.w_resp;
  }

(* One Jacobi sweep.  With [incremental], a site none of whose read
   tasks ({!Ir.reads_any}) is [changed] since the previous sweep carries
   its response from [prev]: the response is a pure function of those
   tasks' offsets and jitters, so the carried value is bit-identical to
   a recomputation (the qcheck identity properties assert this).
   The other sites run as one pool region, [compute site] writing each
   response at its own index.  A sweep reads only the previous sweep's
   rows, so the result does not depend on which slot runs which site,
   and each site runs on one domain, so its memo cache stays
   single-owner.  Site costs vary by orders of magnitude (1 to hundreds
   of scenarios), hence stealing.  Returns the responses and the
   recomputed count. *)
let sweep t ~prev ~changed ~compute =
  let sites = Ir.sites t.ir in
  let resp, carries =
    match prev with
    | Some pr when t.params.Params.incremental ->
        (copy_matrix pr, fun site -> not (Ir.reads_any site changed))
    | _ ->
        ( Array.map
            (fun (tx : Model.txn) ->
              Array.map (fun _ -> Report.Divergent) tx.Model.tasks)
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
    (fun ~slot:_ ~lo ~hi ->
      for k = lo to hi - 1 do
        let site = sites.(todo.(k)) in
        resp.(site.Ir.a).(site.Ir.b) <- compute site
      done);
  (resp, n)

let fixed_point (type v) t (tl : v timeline) ~warm =
  let module C = (val tl.core) in
  let m = t.model and params = t.params and tb = tl.tb in
  let to_q = C.to_q ~scale:tb.Timebase.scale in
  let to_bound = function
    | Report.Finite v -> Report.Finite (to_q v)
    | Report.Divergent -> Report.Divergent
  in
  let meets a = function
    | Report.Finite v -> C.compare v tb.Timebase.deadline.(a) <= 0
    | Report.Divergent -> false
  in
  let best ~jit =
    match params.Params.best_case with
    | Params.Simple -> C.simple tb
    | Params.Refined -> C.refined m tb ~jit
  in
  emit t (Analysis_started { variant = params.Params.variant });
  let n = Model.n_txns m in
  let bottom_jitters () =
    Array.init n (fun a ->
        let row = Array.make (Model.n_tasks m a) C.zero in
        row.(0) <- tb.Timebase.release_jitter.(a);
        row)
  in
  let jit = match warm with Some w -> w.w_jit | None -> bottom_jitters () in
  let rbest = ref (best ~jit) in
  let phi = ref (offsets_of m C.zero !rbest) in
  (* Tasks whose jitters changed, and transactions whose offsets
     changed, in the latest update; all dirty before the first sweep so
     every task is computed once.  A warm start instead marks exactly
     its reset rows: every other row holds the values its carried
     responses were computed under, so carrying them is the same
     bit-identical shortcut the within-run incremental sweep takes.
     Offsets stay per transaction, since the refined best case moves
     whole rows.  (Warm starts imply the Simple best case — see
     [Delta.plan] — so the offsets are constant and [phi_dirty] stays
     false.) *)
  let jit_dirty =
    Array.mapi
      (fun a row ->
        Array.make (Array.length row)
          (match warm with Some w -> w.w_reset.(a) | None -> true))
      jit
  in
  let phi_dirty = Array.make n (Option.is_none warm) in
  let prev = ref (Option.map (fun w -> w.w_resp) warm) in
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
    let changed i j = jit_dirty.(i).(j) || phi_dirty.(i) in
    let resp, recomputed =
      sweep t ~prev:!prev ~changed ~compute:(fun site ->
          tl.compute site ~phi:!phi ~jit)
    in
    let carried = Ir.n_tasks t.ir - recomputed in
    emit t (Sweep { iteration = !iterations; recomputed; carried });
    prev := Some resp;
    responses := resp;
    if params.Params.keep_history then
      history :=
        {
          Report.jitters = Array.map (Array.map to_q) jit;
          responses = Array.map (Array.map to_bound) resp;
        }
        :: !history;
    (* With the Simple best case the offsets are constant and the
       responses are monotone across iterations, so a transaction already
       past its deadline settles the verdict: stop early unless asked for
       the full fixed point.  (Refined recomputes offsets, which breaks
       the monotonicity argument, so it always iterates fully.) *)
    if params.Params.early_exit && params.Params.best_case = Params.Simple
    then begin
      let hopeless = ref false in
      for a = 0 to n - 1 do
        if not (meets a resp.(a).(Model.n_tasks m a - 1)) then
          hopeless := true
      done;
      if !hopeless then diverged := true
    end;
    (* Next jitters, Jacobi-style from this iteration's responses. *)
    let next = bottom_jitters () in
    (try
       for a = 0 to n - 1 do
         for b = 1 to Model.n_tasks m a - 1 do
           match resp.(a).(b - 1) with
           | Report.Divergent -> raise Exit
           | Report.Finite r ->
               let rb = !rbest.(a).(b - 1) in
               let j = C.(r - rb) in
               next.(a).(b) <- (if C.compare j C.zero > 0 then j else C.zero)
         done
       done
     with Exit -> diverged := true);
    if not !diverged then begin
      Array.fill phi_dirty 0 n false;
      let same = ref true in
      for a = 0 to n - 1 do
        for b = 0 to Model.n_tasks m a - 1 do
          let moved = not (C.equal next.(a).(b) jit.(a).(b)) in
          jit_dirty.(a).(b) <- moved;
          if moved then same := false
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
          rbest := best ~jit;
          phi := offsets_of m C.zero !rbest;
          for i = 0 to n - 1 do
            if not (rows_equal C.equal old_phi.(i) !phi.(i)) then
              phi_dirty.(i) <- true
          done
        end
      end
    end
  done;
  let results =
    Array.init n (fun a ->
        Array.init (Model.n_tasks m a) (fun b ->
            {
              Report.offset = to_q !phi.(a).(b);
              jitter = to_q jit.(a).(b);
              rbest = to_q !rbest.(a).(b);
              response = to_bound !responses.(a).(b);
            }))
  in
  let schedulable =
    !converged
    &&
    let ok = ref true in
    for a = 0 to n - 1 do
      if not (meets a !responses.(a).(Model.n_tasks m a - 1)) then
        ok := false
    done;
    !ok
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

(* Run the fixed point on the session's integer timeline when it has
   one and no earlier run poisoned it, on rationals otherwise. *)
let dispatch t warm =
  let on_rationals () =
    let tl = rational t in
    fixed_point t tl ~warm:(Option.map (start tl) warm)
  in
  match t.kernels with
  | Some kernels when not !(t.kernel_poisoned) -> (
      let tl = scaled t kernels in
      match Option.map (start tl) warm with
      | exception Q.Overflow -> on_rationals ()
      | warm -> (
          Rta.record_kernel_run t.counters;
          try fixed_point t tl ~warm
          with Q.Overflow ->
            (* Scaled arithmetic left the native range mid-analysis; the
               rational path cannot (its local denominators stay small),
               so rerun there from scratch and stop trying the kernel on
               this session — it would overflow on every call. *)
            Rta.record_kernel_fallback t.counters;
            t.kernel_poisoned := true;
            emit t (Kernel_fallback { reason = "overflow" });
            on_rationals ()))
  | _ -> on_rationals ()

(* Wrap every full analysis with the pool's scheduler accounting: the
   counter deltas over the run are emitted as one [Pool_stats] event
   when the work-stealing machinery engaged at all. *)
let analyze_with t warm =
  let before = Parallel.Pool.stats t.pool in
  let report = dispatch t warm in
  let after = Parallel.Pool.stats t.pool in
  let steals = after.Parallel.Pool.steals - before.Parallel.Pool.steals
  and splits = after.Parallel.Pool.splits - before.Parallel.Pool.splits
  and idle = after.Parallel.Pool.idle_slots - before.Parallel.Pool.idle_slots in
  if steals > 0 || splits > 0 || idle > 0 then
    emit t (Pool_stats { steals; splits; idle });
  report

let analyze t = analyze_with t None

(* ------------------------------------------------------------------ *)
(* Delta re-analysis: warm fixed points across model changes           *)
(* ------------------------------------------------------------------ *)

type delta_outcome =
  | Delta_warm of { dirty : int; total : int; carried : int }
  | Delta_cold of { reason : string }

module Delta = struct
  type plan = {
    warm : Q.t warm;
    dirty_tasks : int;
    total_tasks : int;
  }

  (* The transactions of two models are aligned by name — admission
     changes the transaction count, so positional indices never
     transfer.  A transaction is kept when everything its own response
     equations read is unchanged: period, deadline, release jitter,
     blocking, the task chain (demands, placement, priorities) and the
     linear bounds of every platform its tasks run on.  Interference
     *from other* transactions is not part of this check — an added or
     dropped interferer is decided by [plan] through the hp rule. *)
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

  (* The reset set — rows that restart from the bottom — is every new or
     changed transaction, every kept one whose previous equations read a
     dropped (removed or changed) transaction, and the closure of the
     latter over the IR: a drop can lower values, so neither those rows
     nor rows computed from them may start at their old values.  Every
     other row starts at its previous converged values.  Those lie at or
     below the new least fixed point: the rows not reset form a closed
     subsystem of the previous model, and the new model only adds
     non-negative interference to it (docs/THEORY.md, "Warm starts"). *)
  let plan t ~prev_model ~prev_report =
    let params = t.params in
    if not prev_report.Report.converged then Error "previous-not-converged"
    else if not params.Params.incremental then Error "incremental-disabled"
    else if params.Params.best_case <> Params.Simple then
      Error "refined-best-case"
    else if params.Params.keep_history then Error "history-requested"
    else begin
      let m = t.model and om = prev_model in
      let n = Model.n_txns m in
      let prev_index = Hashtbl.create (Model.n_txns om) in
      Array.iteri
        (fun oa (ot : Model.txn) ->
          Hashtbl.replace prev_index ot.Model.tname oa)
        om.Model.txns;
      (* [old_of.(a)]: the previous index of a kept transaction, or -1;
         [kept.(oa)]: whether previous transaction [oa] is kept *)
      let old_of = Array.make n (-1) in
      let kept = Array.make (Model.n_txns om) false in
      for a = 0 to n - 1 do
        match Hashtbl.find_opt prev_index m.Model.txns.(a).Model.tname with
        | Some oa when txn_clean ~prev_model:om ~model:m ~prev_a:oa ~a ->
            old_of.(a) <- oa;
            kept.(oa) <- true
        | _ -> ()
      done;
      if Array.for_all (fun oa -> oa < 0) old_of then Error "all-dirty"
      else begin
        (* Kept tasks keep their resource indices (their chains compared
           equal), so the hp rule applies in the previous indexing: a
           kept task read a dropped one iff some dropped task on its
           platform has at least its priority. *)
        let top = Array.make (Array.length om.Model.bounds) min_int in
        Array.iteri
          (fun oa (ot : Model.txn) ->
            if not kept.(oa) then
              Array.iter
                (fun (tk : Model.task) ->
                  top.(tk.Model.res) <- max top.(tk.Model.res) tk.Model.prio)
                ot.Model.tasks)
          om.Model.txns;
        let readers =
          Array.init n (fun a ->
              old_of.(a) >= 0
              && Array.exists
                   (fun (tk : Model.task) ->
                     top.(tk.Model.res) >= tk.Model.prio)
                   m.Model.txns.(a).Model.tasks)
        in
        let reset = Ir.dirty_closure t.ir ~seed:readers in
        Array.iteri (fun a oa -> if oa < 0 then reset.(a) <- true) old_of;
        if Array.for_all Fun.id reset then Error "all-dirty"
        else begin
          let prev_results = prev_report.Report.results in
          let row a ~bottom field =
            if reset.(a) then Array.make (Model.n_tasks m a) bottom
            else Array.map field prev_results.(old_of.(a))
          in
          let w_jit =
            Array.init n (fun a ->
                let row = row a ~bottom:Q.zero (fun r -> r.Report.jitter) in
                if reset.(a) then row.(0) <- m.Model.release_jitter.(a);
                row)
          in
          let w_resp =
            Array.init n (fun a ->
                row a ~bottom:Report.Divergent (fun r -> r.Report.response))
          in
          let dirty_tasks = ref 0 in
          Array.iteri
            (fun a d ->
              if d then dirty_tasks := !dirty_tasks + Model.n_tasks m a)
            reset;
          Ok
            {
              warm = { w_reset = reset; w_jit; w_resp };
              dirty_tasks = !dirty_tasks;
              total_tasks = Ir.n_tasks t.ir;
            }
        end
      end
    end

  let dirty_tasks p = p.dirty_tasks

  let total_tasks p = p.total_tasks
end

(* The tail both warm entry points share: run the warm start, let
   [ran] see its report, keep it when [keep] accepts it, and otherwise
   count the fallback and rerun cold. *)
let run_warm t warm ~ran ~keep ~outcome =
  Rta.record_delta_run t.counters;
  let report = analyze_with t (Some warm) in
  ran report;
  if keep report then (report, outcome)
  else begin
    Rta.record_delta_fallback t.counters;
    (analyze t, Delta_cold { reason = "warm-not-converged" })
  end

let analyze_delta t ~prev_model ~prev_report =
  match Delta.plan t ~prev_model ~prev_report with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok p ->
      let dirty = p.Delta.dirty_tasks and total = p.Delta.total_tasks in
      let carried = total - dirty in
      emit t (Delta { dirty; total; carried });
      (* A warm run that converged reached the system's least fixed
         point (the seed is below it coordinatewise, so every iterate
         is, and a fixed point below the least one is the least one —
         docs/THEORY.md), and under early exit a converged run is
         schedulable by construction, so the report is the cold report
         bit for bit.  Anything else — early exit, iteration cap — is
         rerun cold so the non-converged report matches the cold
         iterates exactly. *)
      run_warm t p.Delta.warm ~ran:ignore
        ~keep:(fun r -> r.Report.converged)
        ~outcome:(Delta_warm { dirty; total; carried })

(* ------------------------------------------------------------------ *)
(* Seeded analysis: warm fixed points across parameter points          *)
(* ------------------------------------------------------------------ *)

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
      Ok ({ w_reset = Array.make n true; w_jit; w_resp }, distance)
    end
end

let analyze_seeded ?(verdict_only = false) t ~seed_model ~seed_report =
  match Seeded.plan t ~seed_model ~seed_report with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok (warm, distance) ->
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
      run_warm t warm
        ~ran:(fun report ->
          let iterations = report.Report.outer_iterations in
          emit t
            (Seeded
               {
                 distance;
                 iterations;
                 saved =
                   max 0 (seed_report.Report.outer_iterations - iterations);
               }))
        ~keep:(fun r -> r.Report.converged || verdict_only)
        ~outcome:(Delta_warm { dirty = total; total; carried = 0 })

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
