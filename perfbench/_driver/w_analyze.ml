(* analyze_exact: one op is one cold [hsched analyze --exact] of one
   system — Engine.create_system (Model.of_system, IR, timebase,
   kernels), Engine.analyze under Params.exact on a two-domain pool, and
   the report rendered as the CLI prints it. *)

open Analysis
module H = Harness

let corpus_size = 24
let jobs = 2

(* The fixed corpus: Workload.Gen.system draws with 4 platforms and 16 to
   32 transactions, spread evenly over the corpus. *)
let system i =
  let n_txns = 16 + (i * 16 / (corpus_size - 1)) in
  Workload.Gen.system ~seed:(101 + i)
    { Workload.Gen.default_spec with n_resources = 4; n_txns }

let key i = Printf.sprintf "analyze_exact/%02d" i

let render model report =
  let names a b = (Model.task model a b).Model.name in
  Format.asprintf "%a" (Report.pp ~names) report

let digest text = Digest.to_hex (Digest.string text)

let analyze ~params ~pool sys =
  let e = Engine.create_system ~params ~pool sys in
  let report = Engine.analyze e in
  (report, render (Engine.model e) report)

let write_reference path =
  Reference.write path
    (List.init corpus_size (fun i ->
         ( key i,
           Reference.answer_of (fun () ->
               let _, text =
                 analyze
                   ~params:(Reference.params Params.exact)
                   ~pool:Parallel.Pool.sequential (system i)
               in
               digest text) )))

(* Per-layer accounting of the traced ops. *)
type layers = {
  counters : Rta.counters;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable steals : int;
  mutable idle_slots : int;
  mutable iterations : int;
  mutable traced_ops : int;
}

let traced_analyze tr ly ~pool sys =
  let params = Params.exact in
  let m = H.span tr "model.of_system" (fun () -> Model.of_system sys) in
  let e =
    H.span tr "engine.create" (fun () ->
        Engine.create ~params ~pool ~counters:ly.counters m)
  in
  let before = Parallel.Pool.stats pool in
  let report = H.span tr "engine.analyze" (fun () -> Engine.analyze e) in
  let after = Parallel.Pool.stats pool in
  let text = H.span tr "report.render" (fun () -> render m report) in
  (match Engine.memo_stats e with
  | Some s ->
      ly.memo_hits <- ly.memo_hits + s.Memo.hits;
      ly.memo_misses <- ly.memo_misses + s.Memo.misses
  | None -> ());
  ly.steals <- ly.steals + after.Parallel.Pool.steals - before.Parallel.Pool.steals;
  ly.idle_slots <-
    ly.idle_slots + after.Parallel.Pool.idle_slots - before.Parallel.Pool.idle_slots;
  ly.iterations <- ly.iterations + report.Report.outer_iterations;
  ly.traced_ops <- ly.traced_ops + 1;
  (report, text)

(* The soundness oracle: a different model of the same system — the
   discrete-event simulator — must never observe a response above the
   analysed bound of a converged report. *)
let simulate_check sys (report : Report.t) =
  if not report.Report.converged then `Skipped
  else
    let res = Simulator.Engine.run sys in
    let bad = ref 0 and checked = ref 0 in
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (tr : Report.task_result) ->
            match Simulator.Stats.sample res.Simulator.Engine.stats ~txn:a ~task:b with
            | None -> ()
            | Some s ->
                incr checked;
                let within =
                  match tr.Report.response with
                  | Report.Divergent -> true
                  | Report.Finite r -> Rational.(s.Simulator.Stats.max_response <= r)
                in
                if not within then incr bad)
          row)
      report.Report.results;
    `Checked (!checked, !bad)

let setup () =
  let systems = Array.init corpus_size system in
  let pool = Parallel.Pool.create ~jobs in
  (systems, pool)

let run (ctx : Ctx.t) =
  let reference = Reference.load (Ctx.reference_file ctx "analyze_exact") in
  let teardown (_, pool) = Parallel.Pool.shutdown pool in
  let setups = ref (H.time_setups 11 ~setup ~teardown) in
  let systems, pool = setup () in
  let order = Array.init corpus_size Fun.id in
  H.shuffle (H.rng ctx.Ctx.seed) order;
  let check i (_, text) = Reference.check reference (key i) (digest text) in
  let last = Array.make corpus_size None in
  let keep i (report, text) =
    last.(i) <- Some report;
    (report, text)
  in
  let plain = H.loop () and traced = H.loop () in
  let tr = H.tracer () in
  let ly =
    {
      counters = Rta.counters ();
      memo_hits = 0;
      memo_misses = 0;
      steals = 0;
      idle_slots = 0;
      iterations = 0;
      traced_ops = 0;
    }
  in
  let deadline = H.now () +. ctx.Ctx.seconds in
  let k = ref 0 in
  let start = H.now () in
  while H.now () < deadline do
    if !k mod corpus_size = 0 then H.begin_pass plain;
    let i = order.(!k mod corpus_size) in
    let sys = systems.(i) in
    let untraced () =
      H.run_op plain
        ~op:(fun () -> keep i (analyze ~params:Params.exact ~pool sys))
        ~check:(check i)
    in
    if not ctx.Ctx.trace then untraced ()
    else begin
      (* Traced and untraced runs of the same op, alternating which
         goes first, give the tracing overhead on equal terms. *)
      let traced () =
        tr.H.enabled <- true;
        tr.H.op <- !k;
        H.run_op traced
          ~op:(fun () -> keep i (traced_analyze tr ly ~pool sys))
          ~check:(check i);
        tr.H.enabled <- false
      in
      if !k mod 2 = 0 then (untraced (); traced ())
      else (traced (); untraced ())
    end;
    incr k;
    if !k mod corpus_size = 0 then begin
      H.end_pass plain;
      setups := H.time_setups 3 ~setup ~teardown @ !setups
    end
  done;
  let wall_s = H.now () -. start in
  Parallel.Pool.shutdown pool;
  (* Untimed: the independent soundness oracle. *)
  let sim_checked = ref 0 and sim_bad = ref 0 and sim_skipped = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some report -> (
          match simulate_check systems.(i) report with
          | `Skipped -> incr sim_skipped
          | `Checked (c, b) ->
              sim_checked := !sim_checked + c;
              sim_bad := !sim_bad + b))
    last;
  let oracle_note =
    Printf.sprintf
      "soundness oracle: %d task responses simulated, %d above the analysed \
       bound, %d non-converged reports skipped"
      !sim_checked !sim_bad !sim_skipped
  in
  let notes =
    if ctx.Ctx.trace then
      [
        oracle_note;
        Printf.sprintf "memo lookups: %d" (ly.memo_hits + ly.memo_misses);
      ]
    else [ oracle_note ]
  in
  if not ctx.Ctx.trace then
    Ctx.finish_plain ctx plain ~wall_s ~setups:!setups ~notes ~unsound:!sim_bad
  else begin
    let c = ly.counters in
    let per_op n = H.ratio n ly.traced_ops in
    let ms = H.mean_ms tr in
    let layers =
      [
        H.metric "model.of_system_ms" "ms" (ms "model.of_system");
        H.metric "engine.create_ms" "ms" (ms "engine.create");
        H.metric "engine.analyze_ms" "ms" (ms "engine.analyze");
        H.metric "rta.scenarios_total" "count" (per_op (Rta.total_scenarios c));
        H.metric "rta.scenarios_visited" "count" (per_op (Rta.visited_scenarios c));
        H.metric "rta.visited_ratio" "ratio"
          (H.ratio (Rta.visited_scenarios c) (Rta.total_scenarios c));
        H.metric "rta.bound_evals" "count" (per_op (Rta.bound_evaluations c));
        H.metric "rta.kernel_fallbacks" "count" (float_of_int (Rta.kernel_fallbacks c));
        H.metric "memo.hit_ratio" "ratio"
          (H.ratio ly.memo_hits (ly.memo_hits + ly.memo_misses));
        H.metric "pool.steals" "count" (per_op ly.steals);
        H.metric "pool.idle_slots" "count" (per_op ly.idle_slots);
        H.metric "engine.outer_iterations" "count" (per_op ly.iterations);
      ]
    in
    Ctx.finish_traced ctx ~plain ~traced ~tracer:tr ~layers ~notes
      ~unsound:!sim_bad
  end
