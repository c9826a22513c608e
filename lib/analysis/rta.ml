module Q = Rational

(* A scenario fixes, for each participating transaction, the interfering
   task whose maximally-delayed release starts the busy period (Theorem 1).
   The task's own transaction always participates; under [Reduced] it is
   the only one, the rest being upper-bounded by W*.  The participant
   sets and the mixed-radix layout of the exact scenario space are
   static; they live in the compiled {!Ir} and are computed here only
   for the legacy sessionless entry point. *)

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

module type S = sig
  include Timebase.TIME

  val fixpoint : horizon:t -> (t -> t) -> t -> t option

  val phase :
    period:t ->
    phi:t array array ->
    jit:t array array ->
    i:int ->
    k:int ->
    j:int ->
    t

  val jobs : jitter:t -> phase:t -> period:t -> t:t -> int
  val simple : t Timebase.t -> t array array
  val refined : Model.t -> t Timebase.t -> jit:t array array -> t array array

  val response :
    ?counters:counters ->
    t Timebase.t ->
    Ir.site ->
    Params.t ->
    phi:t array array ->
    jit:t array array ->
    own:(int -> t -> t) ->
    remote:(int -> int -> t -> t) ->
    t Report.outcome
end

(* The per-site analysis, written once over the number type of a
   timeline.  On the scaled-int instance every step is the exact image
   of the rational step under v ↦ v·scale (or raises [Q.Overflow]), so
   both instances take the same branches, visit the same scenarios and
   prune the same blocks. *)
module Make (T : Timebase.TIME) : S with type t = T.t = struct
  let max x y = if T.compare x y >= 0 then x else y

  let join x y =
    match (x, y) with
    | Report.Divergent, _ | _, Report.Divergent -> Report.Divergent
    | Report.Finite u, Report.Finite v -> Report.Finite (max u v)

  let fixpoint ~horizon f w0 =
    let rec go w =
      if T.compare w horizon > 0 then None
      else
        let w' = f w in
        let c = T.compare w' w in
        if c < 0 then invalid_arg "Busy.fixpoint: non-monotone recurrence"
        else if c = 0 then Some w
        else go w'
    in
    go w0

  let rem x y = T.(x - mul (floor_div x y) y)

  (* ϕ{^k}{_i,j} (Eq. 10), offsets reduced modulo the period. *)
  let phase ~period ~phi ~jit ~i ~k ~j =
    let pk = rem phi.(i).(k) period and pj = rem phi.(i).(j) period in
    T.(period - rem (pk + jit.(i).(k) - pj) period)

  let jobs ~jitter ~phase ~period ~t =
    let delayed = T.(floor_div (jitter + phase) period) in
    (* For t > 0 the ceiling is >= 0 since phase <= period; clamping
       makes the evaluation at t = 0 equal to the t -> 0+ limit, so
       fixed-point iterations seeded at 0 count the jobs released at the
       critical instant instead of stalling. *)
    let inside = Stdlib.max 0 T.(ceil_div (t - phase) period) in
    Stdlib.max 0 (delayed + inside)

  (* A demand of [cb] cycles on platform (α, Δ, β) can complete in as
     little as [max 0 (cb/α − β)]; the tables hold cb/α. *)
  let best_time (tb : T.t Timebase.t) ~a ~b demand =
    max T.zero T.(demand - tb.Timebase.beta.(a).(b))

  let simple (tb : T.t Timebase.t) =
    Array.mapi
      (fun a row ->
        let acc = ref T.zero in
        Array.mapi
          (fun b cb ->
            acc := T.(!acc + best_time tb ~a ~b cb);
            !acc)
          row)
      tb.Timebase.cb

  let refined m (tb : T.t Timebase.t) ~jit =
    let n = Model.n_txns m in
    let out = Array.init n (fun a -> Array.make (Model.n_tasks m a) T.zero) in
    for a = 0 to n - 1 do
      let start = ref T.zero in
      for b = 0 to Model.n_tasks m a - 1 do
        let cb = tb.Timebase.cb.(a).(b) in
        (* Guaranteed demand of interferers within a window of length r:
           at least ceil((r - J)/T) - 1 full arrivals, each of at least
           the best-case demand — interferers share the platform, so
           their cb/α is on the same scale.  Least fixed point from
           below. *)
        let hp = Array.init n (fun i -> Ir.hp m ~i ~a ~b) in
        let guaranteed r =
          let demand = ref cb in
          Array.iteri
            (fun i js ->
              List.iter
                (fun j ->
                  let window = T.(r - jit.(i).(j)) in
                  let arrivals =
                    Stdlib.max 0
                      (T.ceil_div window tb.Timebase.period.(i) - 1)
                  in
                  demand := T.(!demand + mul arrivals tb.Timebase.cb.(i).(j)))
                js)
            hp;
          best_time tb ~a ~b !demand
        in
        let horizon = T.mul 1024 tb.Timebase.period.(a) in
        let own =
          match fixpoint ~horizon guaranteed T.zero with
          | Some r -> r
          | None ->
              (* Overloaded platform: fall back to the simple term; the
                 refinement is only a tightening, never a requirement. *)
              best_time tb ~a ~b cb
        in
        start := T.(!start + max own (best_time tb ~a ~b cb));
        out.(a).(b) <- !start
      done
    done;
    out

  (* Response of task (a,b) within busy periods started by the scenario
     where τ_{a,c} initiates the own transaction: [own t] is the demand
     of the own transaction's other tasks and [remote t] sums the other
     transactions' demand, both already in platform time. *)
  let scenario_response (tb : T.t Timebase.t) ~phi ~jit ~a ~b ~c ~own ~remote
      =
    let ta = tb.Timebase.period.(a) and cost = tb.Timebase.c.(a).(b) in
    let base = tb.Timebase.base.(a).(b) and horizon = tb.Timebase.horizon.(a) in
    let ph = phase ~period:ta ~phi ~jit ~i:a ~k:c ~j:b in
    let p0 = 1 - T.(floor_div (jit.(a).(b) + ph) ta) in
    (* Nominal self activations inside (0, l); clamped at 0 as in
       [jobs]. *)
    let inside l = Stdlib.max 0 T.(ceil_div (l - ph) ta) in
    let demand self_jobs w = T.(base + mul self_jobs cost + own w + remote w) in
    match
      fixpoint ~horizon
        (fun l -> demand (Stdlib.max 0 (inside l - p0 + 1)) l)
        T.zero
    with
    | None -> Report.Divergent
    | Some l ->
        let best = ref (Report.Finite T.zero) in
        for p = p0 to inside l do
          let self_jobs = p - p0 + 1 in
          match fixpoint ~horizon (fun w -> demand self_jobs w) T.zero with
          | None -> best := Report.Divergent
          | Some w ->
              let periods_before = p - 1 in
              let activation = T.(ph + mul periods_before ta - phi.(a).(b)) in
              best := join !best (Report.Finite T.(w - activation))
        done;
        !best

  (* The seed of the branch and bound: the scenario picking, per remote
     transaction, the initiator of maximal demand over the horizon — the
     argmax realising the Reduced variant's W* at the horizon.  It is an
     ordinary scenario (its response is achieved, so a sound incumbent)
     and usually a near-maximal one, which is what makes the root and
     top-level bounds fire. *)
  let seed_index ~stride ~contrib ~horizon =
    let idx = ref 0 in
    Array.iteri
      (fun ri fs ->
        let ws = Array.map (fun f -> f horizon) fs in
        let best = ref 0 in
        Array.iteri
          (fun ci w -> if T.compare w ws.(!best) > 0 then best := ci)
          ws;
        idx := !idx + (!best * stride.(ri)))
      contrib;
    !idx

  (* An optimistic bound [ub] cannot beat the incumbent [inc]. *)
  let covers ub inc =
    match (ub, inc) with
    | _, Report.Divergent -> true
    | Report.Divergent, Report.Finite _ -> false
    | Report.Finite u, Report.Finite i -> T.compare u i <= 0

  (* The response of one site.  [own c] is the own transaction's demand
     curve initiated by τ_{a,c}, [remote ri k] remote [ri]'s initiated by
     its task [k]; [contrib.(ri).(ci)] holds the latter per digit choice
     and [wstar.(ri)] their pointwise maximum W{^*}.  The fixed points
     call the curves in their innermost loops, so [sum] and [wstar]
     build closures of one argument: a partial application of a
     two-argument function would add an indirection to every call.

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
  let response ?counters tb (site : Ir.site) params ~phi ~jit ~own ~remote =
    let a = site.Ir.a and b = site.Ir.b in
    let own = List.map (fun c -> (c, own c)) site.Ir.own in
    let respond remote =
      List.fold_left
        (fun acc (c, own) ->
          join acc (scenario_response tb ~phi ~jit ~a ~b ~c ~own ~remote))
        (Report.Finite T.zero) own
    in
    let contrib =
      Array.mapi
        (fun ri (r : Ir.remote) -> Array.map (remote ri) r.Ir.choices)
        site.Ir.remotes
    in
    let wstar =
      Array.map
        (fun fs ->
          let w t = Array.fold_left (fun acc f -> max acc (f t)) T.zero fs in
          w)
        contrib
    in
    let sum fs =
      let w t = List.fold_left (fun acc f -> T.(acc + f t)) T.zero fs in
      w
    in
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
            Some
              (seed_index ~stride ~contrib
                 ~horizon:tb.Timebase.horizon.(a))
          else None
        in
        let pruning = Option.is_some seed in
        let skip = Option.value seed ~default:(-1) in
        let best =
          ref
            (match seed with
            | None -> Report.Finite T.zero
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
                (fun ci f ->
                  visit (level - 1) (v_base + (ci * sub)) (f :: fixed))
                contrib.(level - 1)
        in
        visit (Array.length contrib) 0 [];
        bump counters (fun c -> c.visited) !visited;
        bump counters (fun c -> c.pruned) !pruned;
        bump counters (fun c -> c.bounds) !bounds;
        !best

  include T
end

module Rat = Make (Timebase.Rat)
module Scaled = Make (Timebase.Scaled)
