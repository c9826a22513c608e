module Q = Rational

(* A scenario fixes, for each participating transaction, the interfering
   task whose maximally-delayed release starts the busy period (Theorem 1).
   The task's own transaction always participates; under [Reduced] it is
   the only one, the rest being upper-bounded by W*.  The participant
   sets and the mixed-radix layout of the exact scenario space are
   static; they live in the compiled {!Ir} and are computed here only
   for the legacy sessionless entry point. *)

let horizon_of m params ~a =
  let tx = m.Model.txns.(a) in
  Q.(of_int params.Params.horizon_factor * max tx.Model.period tx.Model.deadline)

let scenario_count m params ~a ~b =
  let site = Ir.site_of m ~a ~b in
  let own = List.length site.Ir.own in
  match params.Params.variant with
  | Params.Reduced -> own
  | Params.Exact -> own * Ir.exact_total site

(* Scenario accounting for benchmarks: one unit is one remote scenario
   vector ν of the mixed-radix product (all own-transaction choices are
   always evaluated per unit).  Atomics because the sites of a sweep run
   on the pool's slots concurrently; each site is enumerated
   sequentially, so the counts do not depend on scheduling.  They are
   diagnostics, not part of any report. *)
type counters = {
  total : int Atomic.t;
  visited : int Atomic.t;
  pruned : int Atomic.t;
  bounds : int Atomic.t;
  kernel_runs : int Atomic.t;
  kernel_fallbacks : int Atomic.t;
  delta_runs : int Atomic.t;
  delta_fallbacks : int Atomic.t;
}

let counters () =
  {
    total = Atomic.make 0;
    visited = Atomic.make 0;
    pruned = Atomic.make 0;
    bounds = Atomic.make 0;
    kernel_runs = Atomic.make 0;
    kernel_fallbacks = Atomic.make 0;
    delta_runs = Atomic.make 0;
    delta_fallbacks = Atomic.make 0;
  }

let total_scenarios c = Atomic.get c.total

let visited_scenarios c = Atomic.get c.visited

let pruned_scenarios c = Atomic.get c.pruned

let bound_evaluations c = Atomic.get c.bounds

let kernel_runs c = Atomic.get c.kernel_runs

let kernel_fallbacks c = Atomic.get c.kernel_fallbacks

let record_kernel_run c = Atomic.incr c.kernel_runs

let record_kernel_fallback c = Atomic.incr c.kernel_fallbacks

let delta_runs c = Atomic.get c.delta_runs

let delta_fallbacks c = Atomic.get c.delta_fallbacks

let record_delta_run c = Atomic.incr c.delta_runs

let record_delta_fallback c = Atomic.incr c.delta_fallbacks

(* Response of task (a,b) within busy periods started by scenario where
   τ_{a,c} initiates the own transaction, [own_interference t] is the
   demand of the own transaction's other tasks, and [remote_interference
   t] sums the other transactions' demand (already scaled to platform
   time). *)
let scenario_response m params ~phi ~jit ~a ~b ~c ~own_interference
    ~remote_interference =
  let tk = Model.task m a b in
  let tx = m.Model.txns.(a) in
  let ta = tx.Model.period in
  let alpha = Model.alpha m tk and delta = Model.delta m tk in
  let blocking = m.Model.blocking.(a).(b) in
  let scaled_c = Q.(tk.Model.c / alpha) in
  let horizon = horizon_of m params ~a in
  let ph = Interference.phase m ~phi ~jit ~i:a ~k:c ~j:b in
  let p0 = 1 - Q.floor Q.((jit.(a).(b) + ph) / ta) in
  let base = Q.(delta + blocking) in
  (* Nominal self activations inside (0, l); clamped at 0 so evaluating
     at l = 0 matches the l -> 0+ limit (see Interference.jobs). *)
  let inside l = Stdlib.max 0 (Q.ceil Q.((l - ph) / ta)) in
  let busy_length l =
    let self_jobs = Stdlib.max 0 (inside l - p0 + 1) in
    Q.(
      base
      + (of_int self_jobs * scaled_c)
      + own_interference l + remote_interference l)
  in
  match Busy.fixpoint ~horizon busy_length Q.zero with
  | None -> Report.Divergent
  | Some l ->
      let p_last = inside l in
      let best = ref (Report.Finite Q.zero) in
      for p = p0 to p_last do
        let self_jobs = p - p0 + 1 in
        let completion w =
          Q.(
            base
            + (of_int self_jobs * scaled_c)
            + own_interference w + remote_interference w)
        in
        match Busy.fixpoint ~horizon completion Q.zero with
        | None -> best := Report.Divergent
        | Some w ->
            let periods_before = p - 1 in
            let activation =
              Q.(ph + (of_int periods_before * ta) - phi.(a).(b))
            in
            best := Report.bound_max !best (Report.Finite Q.(w - activation))
      done;
      !best

(* ------------------------------------------------------------------ *)
(* Scenario search, shared by both timelines                           *)
(* ------------------------------------------------------------------ *)

let bump counters field n =
  match counters with
  | Some c -> ignore (Atomic.fetch_and_add (field c) n)
  | None -> ()

(* Digit-tree blocks below this many scenarios are enumerated without a
   bound test.  A block bound folds W{^*} over every free choice and runs
   the same busy-period fixed points as a leaf, so it costs at least one
   leaf; on blocks of a few leaves it cannot save what it costs.
   Skipping a test only enumerates more, so the maximum is unchanged. *)
let block_cutoff = 8

(* The seed of the branch and bound: the scenario picking, per remote
   transaction, the initiator of maximal demand over the horizon — the
   argmax realising the Reduced variant's W* at the horizon.  It is an
   ordinary scenario (its response is achieved, so a sound incumbent)
   and usually a near-maximal one, which is what makes the root and
   top-level bounds fire.  [demand f] is curve [f] at the horizon. *)
let seed_index ~stride ~contrib ~demand ~gt =
  let idx = ref 0 in
  Array.iteri
    (fun ri fs ->
      let ws = Array.map demand fs in
      let best = ref 0 in
      Array.iteri (fun ci w -> if gt w ws.(!best) then best := ci) ws;
      idx := !idx + (!best * stride.(ri)))
    contrib;
  !idx

(* The response of one site, for either timeline.  [contrib.(ri).(ci)]
   is the demand curve of remote [ri] initiated by its [ci]-th choice,
   [wstar.(ri)] their pointwise maximum W{^*}, [sum] adds curves and
   [respond w] maximises the own-transaction scenarios under remote
   demand [w].  The fixed points call the curves in their innermost
   loops, so [sum] and [wstar] build closures of one argument: a
   partial application of a two-argument function would add an
   indirection to every call.

   The exact variant walks the mixed-radix digit tree of the scenario
   vectors ν (Eq. 12), remote 0 the least significant digit.  With
   pruning the incumbent — the best response of any fully evaluated
   scenario, starting from the seed — discards every block of at least
   [block_cutoff] scenarios whose optimistic bound (fixed digits at
   their actual demand, free digits at W{^*}) cannot beat it.  Pruning
   only drops scenarios provably ≤ the running maximum, and the argmax
   scenario is never dropped, so the result is the exhaustive maximum
   (see docs/THEORY.md).  Each site is enumerated sequentially; the
   parallelism is across the sites of a sweep ({!Engine}). *)
let site_response ?counters (site : Ir.site) params ~contrib ~wstar ~sum
    ~respond ~join ~covers ~zero ~demand ~gt =
  match params.Params.variant with
  | Params.Reduced ->
      bump counters (fun c -> c.total) 1;
      bump counters (fun c -> c.visited) 1;
      respond (sum (Array.to_list wstar))
  | Params.Exact ->
      let total = Ir.exact_total site in
      let stride = site.Ir.stride in
      bump counters (fun c -> c.total) total;
      let leaf fixed = respond (sum fixed) in
      let visited = ref 0 and pruned = ref 0 and bounds = ref 0 in
      let seed =
        if params.Params.prune then
          Some (seed_index ~stride ~contrib ~demand ~gt)
        else None
      in
      let pruning = Option.is_some seed in
      let skip = Option.value seed ~default:(-1) in
      let best =
        ref
          (match seed with
          | None -> zero
          | Some v ->
              incr visited;
              leaf
                (List.init (Array.length contrib) (fun ri ->
                     let fs = contrib.(ri) in
                     fs.(v / stride.(ri) mod Array.length fs))))
      in
      (* [visit level v_base fixed]: the block [v_base, v_base +
         stride.(level)) whose remotes [level, n) are fixed at the
         curves [fixed] and [0, level) are free. *)
      let rec visit level v_base fixed =
        if level = 0 then begin
          if v_base <> skip then begin
            incr visited;
            best := join !best (leaf fixed)
          end
        end
        else
          let inside = stride.(level) in
          if
            pruning && inside >= block_cutoff
            && begin
                 incr bounds;
                 let free = List.init level (fun ri -> wstar.(ri)) in
                 covers (respond (sum (free @ fixed))) !best
               end
          then pruned := !pruned + inside
          else
            let sub = stride.(level - 1) in
            Array.iteri
              (fun ci f -> visit (level - 1) (v_base + (ci * sub)) (f :: fixed))
              contrib.(level - 1)
      in
      visit (Array.length contrib) 0 [];
      bump counters (fun c -> c.visited) !visited;
      bump counters (fun c -> c.pruned) !pruned;
      bump counters (fun c -> c.bounds) !bounds;
      !best

let response_time_site ?memo ?counters (site : Ir.site) m params
    ~phi ~jit =
  let a = site.Ir.a and b = site.Ir.b in
  let cache = Option.map (fun t -> Memo.cache t ~a ~b) memo in
  (* Hoisted demand curve of transaction [i] initiated by τ_{i,k}: the
     kernel (phases, scaled costs) is compiled — or the memo entry
     resolved — once per response-time computation instead of inside
     every busy-period evaluation.  Tiny kernels are cheaper to evaluate
     than to look up (a hashtable probe on a boxed rational costs about
     as much as folding a couple of hoisted terms), so the memo is
     bypassed below [Memo.min_terms]; memoised values are bit-identical
     to recomputation, so mixing the two paths cannot change the
     response. *)
  let eval_of ~i ~k ~hp_list =
    match cache with
    | Some c when List.compare_length_with hp_list Memo.min_terms >= 0 ->
        Memo.evaluator c m ~phi ~jit ~i ~k ~hp_list ~a ~b
    | _ ->
        let kernel = Interference.compile ~hp_list m ~phi ~jit ~i ~k ~a ~b in
        fun t -> Interference.eval kernel ~t
  in
  let own_evals =
    List.map
      (fun c -> (c, eval_of ~i:a ~k:c ~hp_list:site.Ir.own_hp))
      site.Ir.own
  in
  let respond remote_interference =
    List.fold_left
      (fun acc (c, own_interference) ->
        Report.bound_max acc
          (scenario_response m params ~phi ~jit ~a ~b ~c ~own_interference
             ~remote_interference))
      (Report.Finite Q.zero) own_evals
  in
  let contrib =
    Array.map
      (fun (r : Ir.remote) ->
        Array.map
          (fun k -> eval_of ~i:r.Ir.txn ~k ~hp_list:r.Ir.hp_list)
          r.Ir.choices)
      site.Ir.remotes
  in
  let wstar =
    Array.map
      (fun fs ->
        let w t = Array.fold_left (fun acc f -> Q.max acc (f t)) Q.zero fs in
        w)
      contrib
  in
  site_response ?counters site params ~contrib ~wstar
    ~sum:(fun fs ->
      let w t = List.fold_left (fun acc f -> Q.(acc + f t)) Q.zero fs in
      w)
    ~respond ~join:Report.bound_max
    ~covers:(fun ub inc ->
      match (ub, inc) with
      | _, Report.Divergent -> true
      | Report.Divergent, Report.Finite _ -> false
      | Report.Finite u, Report.Finite i -> Q.(u <= i))
    ~zero:(Report.Finite Q.zero)
    ~demand:(fun f -> f (horizon_of m params ~a))
    ~gt:Q.( > )

(* ------------------------------------------------------------------ *)
(* Integer timeline twin (see Timebase)                                *)
(* ------------------------------------------------------------------ *)

(* The same scenario machinery on scaled numerators: every arithmetic
   step is the scaled image of the rational step (overflow-checked), so
   the returned response is exactly the scaled rational response —
   including the branch-and-bound pruning decisions, which compare
   scaled values iff the rational path compares their originals. *)

type iresponse = IFinite of int | IDivergent

let iresponse_max x y =
  match (x, y) with
  | IDivergent, _ | _, IDivergent -> IDivergent
  | IFinite u, IFinite v -> IFinite (Stdlib.max u v)

let iresponse_to_bound tb = function
  | IDivergent -> Report.Divergent
  | IFinite v -> Report.Finite (Timebase.to_q tb v)

let scenario_response_int (tb : Timebase.t) ~sphi ~sjit ~a ~b ~c
    ~own_interference ~remote_interference =
  let open Q.Checked in
  let ta = tb.Timebase.speriod.(a) in
  let scaled_c = tb.Timebase.sc.(a).(b) in
  let horizon = tb.Timebase.shorizon.(a) in
  let base = tb.Timebase.sbase.(a).(b) in
  let ph = Interference.phase_int tb ~sphi ~sjit ~i:a ~k:c ~j:b in
  let p0 = 1 - ((sjit.(a).(b) + ph) / ta) in
  let inside l = Stdlib.max 0 (Interference.iceil_div (l - ph) ta) in
  let busy_length l =
    let self_jobs = Stdlib.max 0 (inside l - p0 + 1) in
    base + (self_jobs * scaled_c) + own_interference l + remote_interference l
  in
  match Busy.fixpoint_int ~horizon busy_length 0 with
  | None -> IDivergent
  | Some l ->
      let p_last = inside l in
      let best = ref (IFinite 0) in
      for p = p0 to p_last do
        let self_jobs = p - p0 + 1 in
        let completion w =
          base
          + (self_jobs * scaled_c)
          + own_interference w + remote_interference w
        in
        match Busy.fixpoint_int ~horizon completion 0 with
        | None -> best := IDivergent
        | Some w ->
            let activation = ph + ((p - 1) * ta) - sphi.(a).(b) in
            best := iresponse_max !best (IFinite (w - activation))
      done;
      !best

let response_time_site_int (tb : Timebase.t) ?memo ?counters ?kernels
    (site : Ir.site) params ~sphi ~sjit =
  let a = site.Ir.a and b = site.Ir.b in
  let kern =
    match kernels with Some k -> k | None -> Kernels.of_site tb site
  in
  let cache = Option.map (fun t -> Memo.cache t ~a ~b) memo in
  (* Same memo cutoff as the rational path: kernels with fewer than
     [Memo.min_terms] hoisted terms are evaluated directly. *)
  let eval_of (sk : Interference.iskeleton) ~k =
    match cache with
    | Some c when Array.length sk.Interference.sk_js >= Memo.min_terms ->
        Memo.evaluator_int c sk ~sphi ~sjit ~k
    | _ ->
        let kernel = Interference.compile_skeleton sk ~sphi ~sjit ~k in
        fun t -> Interference.eval_int kernel ~t
  in
  let own_evals =
    List.map (fun c -> (c, eval_of kern.Kernels.own ~k:c)) site.Ir.own
  in
  let respond remote_interference =
    List.fold_left
      (fun acc (c, own_interference) ->
        iresponse_max acc
          (scenario_response_int tb ~sphi ~sjit ~a ~b ~c ~own_interference
             ~remote_interference))
      (IFinite 0) own_evals
  in
  let contrib =
    Array.mapi
      (fun ri (r : Ir.remote) ->
        let sk = kern.Kernels.remotes.(ri) in
        Array.map (fun k -> eval_of sk ~k) r.Ir.choices)
      site.Ir.remotes
  in
  let wstar =
    Array.map
      (fun fs ->
        let w t = Array.fold_left (fun acc f -> Stdlib.max acc (f t)) 0 fs in
        w)
      contrib
  in
  let horizon = tb.Timebase.shorizon.(a) in
  site_response ?counters site params ~contrib ~wstar
    ~sum:(fun fs ->
      let w t = List.fold_left (fun acc f -> Q.Checked.(acc + f t)) 0 fs in
      w)
    ~respond ~join:iresponse_max
    ~covers:(fun ub inc ->
      match (ub, inc) with
      | _, IDivergent -> true
      | IDivergent, IFinite _ -> false
      | IFinite u, IFinite i -> u <= i)
    ~zero:(IFinite 0)
    ~demand:(fun f -> f horizon)
    ~gt:( > )
