(* The holistic analysis machinery: interference terms against hand
   computations, fixed points, degeneration to classical response-time
   analysis, divergence detection, blocking and release jitter. *)

module Q = Rational
module LB = Platform.Linear_bound
module P = Analysis.Params
module Model = Analysis.Model
module Report = Analysis.Report
module Interference = Analysis.Interference
module Busy = Analysis.Busy
module Rta = Analysis.Rta
module Best_case = Analysis.Best_case
module Holistic = Analysis.Holistic
module Classical = Analysis.Classical
module Engine = Analysis.Engine

let q = Q.of_decimal_string

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let check_bound msg expected actual =
  Alcotest.(check string)
    msg
    (Format.asprintf "%a" Report.pp_bound expected)
    (Format.asprintf "%a" Report.pp_bound actual)

let task name c cb res prio = { Model.name; c = q c; cb = q cb; res; prio }

let txn name period tasks =
  { Model.tname = name; period = q period; deadline = q period; tasks = Array.of_list tasks }

(* --- busy fixpoint --- *)

let test_fixpoint () =
  (* w = 1 + floor(w/2): fixed point 1... iterate: 0→1→1 *)
  let f w = Q.(one + of_int (Q.floor (w / of_int 2))) in
  (match Busy.fixpoint ~horizon:(q "100") f Q.zero with
  | Some w -> check_q "least fixpoint" Q.one w
  | None -> Alcotest.fail "diverged");
  (* diverging recurrence *)
  (match Busy.fixpoint ~horizon:(q "100") (fun w -> Q.(w + one)) Q.zero with
  | None -> ()
  | Some _ -> Alcotest.fail "expected divergence")

(* --- interference terms on the paper's Γ1/Γ2 (hand-checked) --- *)

let paper_model () = Hsched.Paper_example.model ()

let zeros m = Array.map (fun (tx : Model.txn) -> Array.make (Array.length tx.Model.tasks) Q.zero) m.Model.txns

let test_hp_sets () =
  let m = paper_model () in
  (* for τ1,1 (prio 2, P3): hp in Γ1 is compute (prio 3, P3), index 3 *)
  Alcotest.(check (list int)) "hp own txn of init" [ 3 ]
    (Interference.hp m ~i:0 ~a:0 ~b:0);
  (* for τ1,4 (prio 3, P3): nothing in Γ1 (init has prio 2) *)
  Alcotest.(check (list int)) "hp own txn of compute" []
    (Interference.hp m ~i:0 ~a:0 ~b:3);
  (* Γ4 = Integrator.Thread1 (prio 1, P3) does not interfere with compute *)
  let g4 = match Analysis.Model.find_task m "Integrator.Thread1.serve" with
    | Some (a, _) -> a
    | None -> Alcotest.fail "missing" in
  Alcotest.(check (list int)) "low prio excluded" []
    (Interference.hp m ~i:g4 ~a:0 ~b:3);
  (* conversely both P3 tasks of Γ1 interfere with Γ4's serve *)
  Alcotest.(check (list int)) "hp of serve in Γ1" [ 0; 3 ]
    (Interference.hp m ~i:0 ~a:g4 ~b:0)

let test_phase_and_jobs () =
  let m = paper_model () in
  let phi = zeros m and jit = zeros m in
  (* τ2,1 with zero offsets/jitters: phase is the full period *)
  let g2 = match Model.find_task m "Sensor1.Thread1.poll" with
    | Some (a, _) -> a | None -> Alcotest.fail "missing" in
  let ph = Interference.phase m ~phi ~jit ~i:g2 ~k:0 ~j:0 in
  check_q "phase = T" (q "15") ph;
  (* one delayed job at the busy-period start, next at T *)
  Alcotest.(check int) "jobs just after 0" 1
    (Interference.jobs ~jitter:Q.zero ~phase:ph ~period:(q "15") ~t:(q "1"));
  Alcotest.(check int) "jobs beyond T" 2
    (Interference.jobs ~jitter:Q.zero ~phase:ph ~period:(q "15") ~t:(q "16"));
  (* jitter adds delayed jobs *)
  Alcotest.(check int) "jitter adds a job" 2
    (Interference.jobs ~jitter:(q "15") ~phase:ph ~period:(q "15") ~t:(q "1"))

let test_contribution_table3 () =
  (* W of Γ2 on τ1,2 at iteration 0 is one poll job: C/α = 1/0.4 = 2.5 *)
  let m = paper_model () in
  let phi = zeros m and jit = zeros m in
  let g2 = match Model.find_task m "Sensor1.Thread1.poll" with
    | Some (a, _) -> a | None -> Alcotest.fail "missing" in
  let w = Interference.contribution m ~phi ~jit ~i:g2 ~k:0 ~a:0 ~b:1 ~t:(q "6") in
  check_q "one poll job scaled" (q "2.5") w;
  let w2 = Interference.w_star m ~phi ~jit ~i:g2 ~a:0 ~b:1 ~t:(q "16") in
  check_q "two poll jobs at t=16" (q "5") w2

(* --- single-platform degeneration: holistic == classical --- *)

let classical_tasks =
  [
    { Classical.name = "hi"; c = q "1"; period = q "4"; deadline = q "4"; jitter = Q.zero; prio = 3 };
    { Classical.name = "mid"; c = q "1"; period = q "5"; deadline = q "5"; jitter = Q.zero; prio = 2 };
    { Classical.name = "lo"; c = q "2"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 1 };
  ]

let degenerate_model () =
  Model.make ~bounds:[ LB.full ]
    (List.map
       (fun (t : Classical.task) ->
         txn t.Classical.name (Q.to_string t.Classical.period)
           [ task (t.Classical.name ^ ".t") (Q.to_string t.Classical.c)
               (Q.to_string t.Classical.c) 0 t.Classical.prio ])
       classical_tasks)

let test_classical_equivalence () =
  let holistic = Holistic.analyze (degenerate_model ()) in
  let classical = Classical.response_times classical_tasks in
  List.iteri
    (fun i (ct, cr) ->
      check_bound ct.Classical.name cr
        holistic.Report.results.(i).(0).Report.response)
    classical

let test_classical_textbook () =
  (* classical example: R(hi)=1, R(mid)=2, R(lo)=4 *)
  match Classical.response_times classical_tasks with
  | [ (_, r1); (_, r2); (_, r3) ] ->
      check_bound "hi" (Report.Finite Q.one) r1;
      check_bound "mid" (Report.Finite (q "2")) r2;
      check_bound "lo" (Report.Finite (q "4")) r3
  | _ -> Alcotest.fail "arity"

let test_classical_with_jitter () =
  (* jitter of a high-priority task can double its interference *)
  let tasks =
    [
      { Classical.name = "hi"; c = q "2"; period = q "10"; deadline = q "10"; jitter = q "9"; prio = 2 };
      { Classical.name = "lo"; c = q "3"; period = q "20"; deadline = q "20"; jitter = Q.zero; prio = 1 };
    ]
  in
  match Classical.response_times tasks with
  | [ _; (_, rlo) ] ->
      (* w = 3 + ceil((w+9)/10)*2: w=3→ 3+2*2=7 → ceil(16/10)=2 → 7 ✓ *)
      check_bound "lo sees two hi jobs" (Report.Finite (q "7")) rlo
  | _ -> Alcotest.fail "arity"

let test_classical_on_abstract_platform () =
  (* scaling by 1/α and the Δ term *)
  let bound = LB.make ~alpha:(q "0.5") ~delta:(q "2") ~beta:Q.zero in
  let tasks =
    [ { Classical.name = "only"; c = q "1"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 1 } ]
  in
  match Classical.response_times ~bound tasks with
  | [ (_, r) ] -> check_bound "Δ + C/α" (Report.Finite (q "4")) r
  | _ -> Alcotest.fail "arity"

let test_utilization_tests () =
  Alcotest.(check bool) "LL accepts light set" true
    (Classical.liu_layland_test classical_tasks);
  Alcotest.(check bool) "hyperbolic accepts light set" true
    (Classical.hyperbolic_test classical_tasks);
  let heavy =
    [
      { Classical.name = "a"; c = q "5"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 2 };
      { Classical.name = "b"; c = q "5"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 1 };
    ]
  in
  Alcotest.(check bool) "LL rejects U=1" false (Classical.liu_layland_test heavy);
  check_q "utilization" Q.one (Classical.utilization heavy)

(* --- divergence --- *)

let test_divergence () =
  (* demand 2 every 10 on a platform of rate 0.1: utilization 2 > α *)
  let m =
    Model.make
      ~bounds:[ LB.make ~alpha:(q "0.1") ~delta:Q.zero ~beta:Q.zero ]
      [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ]
  in
  let r = Holistic.analyze m in
  check_bound "divergent" Report.Divergent r.Report.results.(0).(0).Report.response;
  Alcotest.(check bool) "unschedulable" false r.Report.schedulable

let test_deadline_miss_detected () =
  (* schedulable recurrence but response exceeds the deadline *)
  let m =
    Model.make ~bounds:[ LB.full ]
      [
        { Model.tname = "g"; period = q "10"; deadline = q "1";
          tasks = [| task "t" "2" "1" 0 1 |] };
      ]
  in
  let r = Holistic.analyze m in
  check_bound "finite" (Report.Finite (q "2")) r.Report.results.(0).(0).Report.response;
  Alcotest.(check bool) "missed" false r.Report.schedulable

(* --- blocking and release jitter extensions --- *)

let test_blocking_term () =
  let base = [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ] in
  let m0 = Model.make ~bounds:[ LB.full ] base in
  let m1 = Model.make ~bounds:[ LB.full ] ~blocking:[ ("t", q "3") ] base in
  let r0 = Holistic.analyze m0 and r1 = Holistic.analyze m1 in
  check_bound "without blocking" (Report.Finite (q "2"))
    r0.Report.results.(0).(0).Report.response;
  check_bound "with blocking" (Report.Finite (q "5"))
    r1.Report.results.(0).(0).Report.response

let test_release_jitter () =
  let base = [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ] in
  let m = Model.make ~bounds:[ LB.full ] ~release_jitter:[ ("g", q "4") ] base in
  let r = Holistic.analyze m in
  (* the response is measured from the nominal activation: J + C *)
  check_bound "jittered" (Report.Finite (q "6"))
    r.Report.results.(0).(0).Report.response

let test_multi_job_busy_window () =
  (* J = 15 > T = 10: two delayed jobs share the critical instant; the
     delayed one released 15 late answers in J + C = 19, hand-derived:
     p0 = -1, w(-1) = 4, R(-1) = 4 + 15 = 19 *)
  let m =
    Model.make ~bounds:[ LB.full ]
      ~release_jitter:[ ("g", q "15") ]
      [ txn "g" "10" [ task "t" "4" "4" 0 1 ] ]
  in
  let r = Holistic.analyze m in
  check_bound "jitter-delayed job dominates" (Report.Finite (q "19"))
    r.Report.results.(0).(0).Report.response;
  (* the simulator's `Max jitter policy reproduces it: every instance
     shifted by 15, executing alone: R = 15 + 4 *)
  let sys =
    Transaction.System.make
      ~resources:[ Platform.Resource.full ~name:"cpu" () ]
      [
        Transaction.Txn.make ~release_jitter:(q "15") ~name:"g" ~period:(q "10")
          ~deadline:(q "20")
          [
            Transaction.Task.make ~name:"t" ~wcet:(q "4") ~bcet:(q "4")
              ~resource:0 ~priority:1 ();
          ];
      ]
  in
  let res =
    Simulator.Engine.run
      ~config:{ Simulator.Engine.default_config with horizon = q "500" }
      sys
  in
  match Simulator.Stats.sample res.Simulator.Engine.stats ~txn:0 ~task:0 with
  | None -> Alcotest.fail "no samples"
  | Some s ->
      check_q "simulated max" (q "19") s.Simulator.Stats.max_response

let test_model_name_errors () =
  let base = [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ] in
  (match Model.make ~bounds:[ LB.full ] ~blocking:[ ("ghost", Q.one) ] base with
  | _ -> Alcotest.fail "expected error"
  | exception Invalid_argument _ -> ());
  match Model.make ~bounds:[ LB.full ] ~release_jitter:[ ("ghost", Q.one) ] base with
  | _ -> Alcotest.fail "expected error"
  | exception Invalid_argument _ -> ()

(* --- best case --- *)

let test_best_case_simple () =
  let m = paper_model () in
  let rbest = Best_case.simple m in
  (* Table 1's φmin column is Rbest of the predecessor *)
  check_q "after init" (q "3") rbest.(0).(0);
  check_q "after serve1" (q "4") rbest.(0).(1);
  check_q "after serve2" (q "5") rbest.(0).(2);
  check_q "after compute" (q "8") rbest.(0).(3)

let test_best_case_refined_dominates () =
  let m = paper_model () in
  let jit = zeros m in
  let simple = Best_case.simple m and refined = Best_case.refined m ~jit in
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b s ->
          if not Q.(refined.(a).(b) >= s) then
            Alcotest.failf "refined < simple at %d,%d" a b)
        row)
    simple

(* --- report rendering --- *)

let test_report_pp_smoke () =
  let m = paper_model () in
  let r = Holistic.analyze m in
  let names a b = (Model.task m a b).Model.name in
  let table = Format.asprintf "%a" (Report.pp ~names) r in
  Alcotest.(check bool) "mentions schedulable" true
    (String.length table > 0
    && List.exists
         (fun line -> String.length line >= 11 && String.sub line 0 11 = "schedulable")
         (String.split_on_char '\n' table));
  let history = Format.asprintf "%a" (Report.pp_history ~names ~txn:0) r in
  Alcotest.(check bool) "history has J(0)" true
    (let contains hay needle =
       let ln = String.length needle and lh = String.length hay in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains history "J(0)")

let test_bound_helpers () =
  let open Report in
  Alcotest.(check bool) "le finite" true (bound_le (Finite (q "3")) (q "3"));
  Alcotest.(check bool) "le divergent" false (bound_le Divergent (q "1000"));
  Alcotest.(check bool) "max" true
    (equal_bound (bound_max (Finite (q "2")) (Finite (q "5"))) (Finite (q "5")));
  Alcotest.(check bool) "max divergent" true
    (equal_bound (bound_max (Finite (q "2")) Divergent) Divergent);
  Alcotest.(check bool) "add" true
    (equal_bound (bound_add (Finite (q "2")) (q "3")) (Finite (q "5")));
  Alcotest.(check bool) "add divergent" true
    (equal_bound (bound_add Divergent (q "3")) Divergent)

let test_classical_divergent () =
  (* the higher-priority demand alone exceeds the processor: the lowest
     task's busy recurrence grows without bound *)
  let tasks =
    [
      { Classical.name = "a"; c = q "6"; period = q "10"; deadline = q "10";
        jitter = Q.zero; prio = 3 };
      { Classical.name = "b"; c = q "5"; period = q "10"; deadline = q "10";
        jitter = Q.zero; prio = 2 };
      { Classical.name = "c"; c = q "1"; period = q "10"; deadline = q "10";
        jitter = Q.zero; prio = 1 };
    ]
  in
  match Classical.response_times tasks with
  | [ (_, Report.Finite _); (_, Report.Finite _); (_, Report.Divergent) ] -> ()
  | _ -> Alcotest.fail "expected the lowest task to diverge"

let test_early_exit_flag () =
  (* a hopeless system: with early exit the loop stops quickly; without
     it, the same verdict is reached but with full iteration counts *)
  let m =
    Model.make
      ~bounds:[ LB.make ~alpha:(q "0.5") ~delta:Q.zero ~beta:Q.zero ]
      [
        { Model.tname = "g"; period = q "10"; deadline = q "4";
          tasks = [| task "t" "3" "1" 0 1 |] };
      ]
  in
  let fast = Holistic.analyze m in
  Alcotest.(check bool) "unschedulable" false fast.Report.schedulable;
  Alcotest.(check bool) "not converged (early exit)" false fast.Report.converged;
  Alcotest.(check int) "one iteration" 1 fast.Report.outer_iterations;
  let full =
    Holistic.analyze
      ~params:{ Analysis.Params.default with Analysis.Params.early_exit = false }
      m
  in
  Alcotest.(check bool) "same verdict" false full.Report.schedulable;
  (* single-task transaction: jitters never change, so the full run
     converges in 2 iterations with a genuine fixed point *)
  Alcotest.(check bool) "full run converges" true full.Report.converged;
  match full.Report.results.(0).(0).Report.response with
  | Report.Divergent -> Alcotest.fail "divergent"
  | Report.Finite r -> check_q "R = C/alpha" (q "6") r

(* --- exact vs reduced --- *)

let test_exact_never_exceeds_reduced () =
  for seed = 1 to 12 do
    let spec = { Workload.Gen.default_spec with n_txns = 3; max_tasks_per_txn = 2 } in
    let sys = Workload.Gen.system ~seed spec in
    let m = Model.of_system sys in
    let re = Holistic.analyze ~params:P.exact m in
    let rr = Holistic.analyze ~params:P.default m in
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (res : Report.task_result) ->
            match (res.Report.response, rr.Report.results.(a).(b).Report.response) with
            | Report.Finite e, Report.Finite r ->
                if not Q.(e <= r) then
                  Alcotest.failf "seed %d: exact %s > reduced %s at %d,%d" seed
                    (Q.to_string e) (Q.to_string r) a b
            | Report.Divergent, Report.Finite _ ->
                Alcotest.failf "seed %d: exact diverged but reduced did not" seed
            | _, Report.Divergent -> ())
          row)
      re.Report.results
  done

(* --- pruning and incrementality are invisible in reports --- *)

let scenario_total (m : Model.t) =
  let total = ref 0 in
  Array.iteri
    (fun a (tx : Model.txn) ->
      Array.iteri
        (fun b _ -> total := !total + Rta.scenario_count m P.exact ~a ~b)
        tx.Model.tasks)
    m.Model.txns;
  !total

(* The tentpole identity: branch-and-bound pruning plus the incremental
   outer fixed point produce, report-for-report (history included), the
   same exact rationals as the naive enumerate-everything path — under
   both variants and for both a sequential and a 4-domain pool. *)
let ablation_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"prune+incremental = naive, exact and reduced, jobs 1 and 4"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let m = Model.of_system sys in
         QCheck.assume (scenario_total m < 20_000);
         let agrees base =
           let reference =
             Holistic.analyze
               ~params:{ base with P.prune = false; incremental = false }
               m
           in
           List.for_all
             (fun jobs ->
               Parallel.Pool.with_pool ~jobs (fun pool ->
                   Holistic.analyze ~params:base ~pool m)
               = reference)
             [ 1; 4 ]
         in
         agrees P.exact && agrees P.default))

let test_keep_history () =
  let m = paper_model () in
  let with_h = Holistic.analyze ~params:P.exact m in
  let without_h =
    Holistic.analyze ~params:{ P.exact with P.keep_history = false } m
  in
  Alcotest.(check bool) "history dropped" true (without_h.Report.history = []);
  Alcotest.(check bool)
    "rest of the report identical" true
    ({ with_h with Report.history = [] } = without_h)

let test_scenario_counters () =
  let m = paper_model () in
  let exercise params =
    let counters = Rta.counters () in
    ignore (Holistic.analyze ~params ~counters m);
    (Rta.total_scenarios counters, Rta.visited_scenarios counters)
  in
  let t0, v0 =
    exercise { P.exact with P.prune = false; incremental = false }
  in
  Alcotest.(check int) "naive visits everything" t0 v0;
  let t1, v1 = exercise P.exact in
  Alcotest.(check bool) "visited within total" true (v1 <= t1);
  Alcotest.(check bool) "incremental examines no more spaces" true (t1 <= t0)

(* --- engine sessions --- *)

(* Engine sessions must be observationally identical to the sessionless
   shim: the compiled IR only reorganises static structure, the memo
   replays exact values, and reusing one session (second run reads a
   warm memo) must replay the identical report. *)
let engine_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"engine session = sessionless shim, exact and reduced, jobs 1 and 4"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let m = Model.of_system sys in
         QCheck.assume (scenario_total m < 20_000);
         let agrees params =
           let reference = Holistic.analyze ~params m in
           List.for_all
             (fun jobs ->
               Parallel.Pool.with_pool ~jobs (fun pool ->
                   let e = Engine.create ~params ~pool m in
                   Engine.analyze e = reference && Engine.analyze e = reference))
             [ 1; 4 ]
         in
         agrees P.exact && agrees P.default))

let test_session_reuse () =
  let m = paper_model () in
  let e = Engine.create ~params:P.exact m in
  let r1 = Engine.analyze e in
  let r2 = Engine.analyze e in
  Alcotest.(check bool) "second run replays the identical report" true (r1 = r2)

let test_engine_overrides () =
  let m = paper_model () in
  let e = Engine.create ~params:P.exact m in
  let full = Engine.analyze e in
  let probe = Engine.analyze (Engine.with_overrides e ~keep_history:false) in
  Alcotest.(check bool) "history dropped" true (probe.Report.history = []);
  Alcotest.(check bool)
    "rest of the report identical" true
    ({ full with Report.history = [] } = probe);
  (* a pool override re-partitions the memo and changes nothing else *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check bool)
        "jobs 4 identical" true
        (Engine.analyze (Engine.with_overrides e ~pool) = full))

let test_engine_with_model () =
  let m = paper_model () in
  let e = Engine.create ~params:P.exact m in
  ignore (Engine.analyze e);
  (* halve every demand: placement and priorities unchanged, so the
     session keeps its IR — the report must still match a fresh
     analysis of the scaled model *)
  let scaled =
    {
      m with
      Model.txns =
        Array.map
          (fun (tx : Model.txn) ->
            {
              tx with
              Model.tasks =
                Array.map
                  (fun (tk : Model.task) ->
                    {
                      tk with
                      Model.c = Q.(tk.Model.c / of_int 2);
                      cb = Q.(tk.Model.cb / of_int 2);
                    })
                  tx.Model.tasks;
            })
          m.Model.txns;
    }
  in
  Alcotest.(check bool)
    "rebound model = fresh session" true
    (Engine.analyze (Engine.with_model e scaled)
    = Holistic.analyze ~params:P.exact scaled)

let test_engine_events () =
  let m = paper_model () in
  let events = ref [] in
  let e = Engine.create ~sink:(fun ev -> events := ev :: !events) m in
  let report = Engine.analyze e in
  let evs = List.rev !events in
  (match evs with
  | Engine.Compiled { txns; tasks; _ }
    :: Engine.Kernel_compiled { scale }
    :: Engine.Analysis_started _
    :: rest ->
      Alcotest.(check int) "txns" 4 txns;
      Alcotest.(check int) "tasks" 7 tasks;
      Alcotest.(check bool) "positive scale" true (scale > 0);
      let sweeps =
        List.filter (function Engine.Sweep _ -> true | _ -> false) rest
      in
      Alcotest.(check int)
        "one sweep per outer iteration" report.Report.outer_iterations
        (List.length sweeps);
      (match List.rev rest with
      | Engine.Finished { iterations; converged; schedulable } :: _ ->
          Alcotest.(check bool) "converged" true converged;
          Alcotest.(check bool)
            "schedulable" report.Report.schedulable schedulable;
          Alcotest.(check int)
            "iterations" report.Report.outer_iterations iterations
      | _ -> Alcotest.fail "missing Finished event")
  | _ ->
      Alcotest.fail "expected Compiled, Kernel_compiled then Analysis_started");
  List.iter
    (fun ev ->
      let s = Engine.event_to_json ev in
      Alcotest.(check bool)
        "one JSON object per line" true
        (String.length s > 2
        && s.[0] = '{'
        && s.[String.length s - 1] = '}'
        && not (String.contains s '\n')))
    evs

let test_engine_classical_view () =
  let e = Engine.create (degenerate_model ()) in
  let holistic = Engine.analyze e in
  let view = Engine.classical e ~resource:0 in
  Alcotest.(check int) "view covers every transaction" 3 (List.length view);
  List.iteri
    (fun i (ct, cr) ->
      check_bound ct.Classical.name cr
        holistic.Report.results.(i).(0).Report.response)
    view;
  Alcotest.(check bool)
    "classical verdict" true
    (Engine.classical_schedulable e ~resource:0);
  Alcotest.(check bool)
    "edf admits the same degenerate set" true
    (Engine.edf_schedulable e ~resource:0)

let test_scenario_count () =
  let m = paper_model () in
  (* τ4,1: hp Γ1 on P3 = {init, compute}, own scenarios = itself *)
  let g4 = match Model.find_task m "Integrator.Thread1.serve" with
    | Some (a, _) -> a | None -> Alcotest.fail "missing" in
  Alcotest.(check int) "reduced scenarios" 1
    (Rta.scenario_count m P.default ~a:g4 ~b:0);
  Alcotest.(check int) "exact scenarios" 2
    (Rta.scenario_count m P.exact ~a:g4 ~b:0)

(* --- integer timeline kernels --- *)

let qtask name c cb res prio = { Model.name; c; cb; res; prio }

let qtxn name period tasks =
  { Model.tname = name; period; deadline = period; tasks = Array.of_list tasks }

let test_timebase_of_model () =
  let m = paper_model () in
  match Analysis.Ir.timebase m ~horizon_factor:64 with
  | None -> Alcotest.fail "paper model must fit the integer timeline"
  | Some tb ->
      let module T = Analysis.Timebase in
      Alcotest.(check bool) "positive scale" true (T.scale tb > 0);
      Array.iteri
        (fun a (tx : Model.txn) ->
          check_q "scaled period converts back" tx.Model.period
            (T.to_q tb tb.T.speriod.(a));
          check_q "scaled deadline converts back" tx.Model.deadline
            (T.to_q tb tb.T.sdeadline.(a)))
        m.Model.txns

(* A single constant within 2^10 of max_int fails the headroom rule, so
   the model compiles to no timebase and the engine announces the
   rational path up front. *)
let unrepresentable_model () =
  Model.make ~bounds:[ LB.full ]
    [ qtxn "H" (Q.of_int (max_int asr 5)) [ qtask "H.t" Q.one Q.one 0 1 ] ]

let test_kernel_unrepresentable () =
  let m1 = unrepresentable_model () in
  Alcotest.(check bool) "headroom fails" true
    (Analysis.Ir.timebase m1 ~horizon_factor:64 = None);
  (* Coprime denominators whose product exceeds max_int: each fits on
     its own, the lcm of the two does not. *)
  let m2 =
    Model.make
      ~bounds:[ LB.full; LB.full ]
      [
        qtxn "A"
          (Q.make 7 4_000_000_007)
          [ qtask "A.t" (Q.make 1 4_000_000_007) (Q.make 1 4_000_000_007) 0 1 ];
        qtxn "B"
          (Q.make 7 4_000_000_009)
          [ qtask "B.t" (Q.make 1 4_000_000_009) (Q.make 1 4_000_000_009) 1 1 ];
      ]
  in
  Alcotest.(check bool) "lcm overflows" true
    (Analysis.Ir.timebase m2 ~horizon_factor:64 = None);
  let events = ref [] in
  let e = Engine.create ~sink:(fun ev -> events := ev :: !events) m2 in
  Alcotest.(check bool) "unrepresentable event" true
    (List.exists
       (function
         | Engine.Kernel_fallback { reason } -> reason = "unrepresentable"
         | _ -> false)
       !events);
  Alcotest.(check bool) "no kernel" true (Engine.kernel_scale e = None);
  let r_on = Engine.analyze e in
  let r_off =
    Holistic.analyze ~params:{ P.default with P.int_kernel = false } m2
  in
  Alcotest.(check bool) "fallback report identical" true (r_on = r_off)

(* A model whose timebase compiles — every scaled constant clears the
   headroom rule — but whose busy-period arithmetic overflows anyway:
   two independent transactions with denominators 3^13 and 2^20 inflate
   the global scale to ~1.7e12 (the rational path only ever pays local
   pairwise lcms, so it never sees numbers this size), and a 4096-times
   overutilized interferer on the target's platform drives the job-count
   product past max_int inside the first busy evaluation. *)
let runtime_fallback_model () =
  Model.make
    ~bounds:[ LB.full; LB.full; LB.full ]
    [
      qtxn "I" (Q.make 1 1024) [ qtask "I.t" (Q.of_int 4) (Q.of_int 4) 0 2 ];
      qtxn "T" (Q.of_int 32)
        [ qtask "T.t" (Q.of_int 1024) (Q.of_int 1024) 0 1 ];
      qtxn "G3"
        (Q.make 2 1_594_323)
        [ qtask "G3.t" (Q.make 1 1_594_323) (Q.make 1 1_594_323) 1 1 ];
      qtxn "G2"
        (Q.make 3 1_048_576)
        [ qtask "G2.t" (Q.make 1 1_048_576) (Q.make 1 1_048_576) 2 1 ];
    ]

(* The overflow is raised inside a site's enumeration; on a 2-job pool
   the sweep runs its sites as one parallel region, so the exception
   crosses a worker domain and comes back through the pool before the
   engine falls back. *)
let test_kernel_runtime_fallback () =
  let m = runtime_fallback_model () in
  let reference =
    Holistic.analyze ~params:{ P.default with P.int_kernel = false } m
  in
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs @@ fun pool ->
      let events = ref [] in
      let counters = Rta.counters () in
      let e =
        Engine.create ~pool ~counters
          ~sink:(fun ev -> events := ev :: !events)
          m
      in
      Alcotest.(check bool) "kernel compiled" true (Engine.kernel_scale e <> None);
      let report = Engine.analyze e in
      Alcotest.(check int) "kernel entered once" 1 (Rta.kernel_runs counters);
      Alcotest.(check int) "one overflow fallback" 1
        (Rta.kernel_fallbacks counters);
      Alcotest.(check bool) "overflow event" true
        (List.exists
           (function
             | Engine.Kernel_fallback { reason } -> reason = "overflow"
             | _ -> false)
           !events);
      Alcotest.(check bool) "session poisoned" true
        (Engine.kernel_scale e = None);
      Alcotest.(check bool) "fallback report identical" true (report = reference);
      (* a poisoned session goes straight to the rational path *)
      Alcotest.(check bool) "rerun identical" true (Engine.analyze e = reference);
      Alcotest.(check int) "kernel skipped after poison" 1
        (Rta.kernel_runs counters))
    [ 1; 2 ]

(* A scenario space beyond max_int cannot be indexed: exact analysis
   names the site instead of dividing by a wrapped-around stride, and
   the reduced variant, which never indexes the space, still runs. *)
let test_scenario_space_overflow () =
  let asm =
    Workload.Gen.chain_assembly ~seed:2 ~n_chains:64 ~chain_length:3
      ~cross_host:true ()
  in
  let sys =
    match Transaction.Derive.derive asm with
    | Ok sys -> sys
    | Error es -> Alcotest.fail (String.concat "; " es)
  in
  let m = Model.of_system sys in
  let ir = Analysis.Ir.compile m in
  Alcotest.(check int) "saturated scenario count" max_int
    (Analysis.Ir.exact_scenarios ir);
  (match Engine.analyze (Engine.create ~params:P.exact m) with
  | _ -> Alcotest.fail "exact analysis of an unindexable space returned"
  | exception Analysis.Ir.Scenario_space_too_large { a; b } ->
      Alcotest.(check bool) "names a real site" true
        (a < Model.n_txns m && b < Model.n_tasks m a));
  ignore (Engine.analyze (Engine.create ~params:P.default m))

(* The tentpole identity: the scaled-int kernels reproduce the rational
   reports bit for bit — same bounds, history, sweep counts and verdict —
   under both variants, sequential and 4-domain pools, with zero
   overflow fallbacks on these workloads; and a model the kernel cannot
   represent (gadget transaction appended) silently falls back to the
   identical rational result. *)
let kernel_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"int kernel = rational path, exact and reduced, jobs 1 and 4"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let m = Model.of_system sys in
         QCheck.assume (scenario_total m < 20_000);
         let engaged =
           Analysis.Ir.timebase m ~horizon_factor:P.default.P.horizon_factor
           <> None
         in
         let with_gadget =
           {
             Model.bounds = Array.append m.Model.bounds [| LB.full |];
             txns =
               Array.append m.Model.txns
                 [|
                   (* large enough that the scaled horizon fails the
                      headroom rule, small enough that the rational
                      horizon still fits native ints *)
                   qtxn "gadget"
                     (Q.of_int (max_int asr 12))
                     [
                       qtask "gadget.t" Q.one Q.one
                         (Array.length m.Model.bounds)
                         1;
                     ];
                 |];
             blocking = Array.append m.Model.blocking [| [| Q.zero |] |];
             release_jitter = Array.append m.Model.release_jitter [| Q.zero |];
           }
         in
         let agrees model base =
           let reference =
             Holistic.analyze ~params:{ base with P.int_kernel = false } model
           in
           List.for_all
             (fun jobs ->
               Parallel.Pool.with_pool ~jobs (fun pool ->
                   let counters = Rta.counters () in
                   Engine.analyze (Engine.create ~params:base ~pool ~counters model)
                   = reference
                   && Rta.kernel_fallbacks counters = 0))
             [ 1; 4 ]
         in
         engaged
         && agrees m P.exact && agrees m P.default
         && agrees with_gadget P.exact && agrees with_gadget P.default))

(* --- delta re-analysis --- *)

(* The server's configuration: no history (a warm plan refuses to
   reconstruct per-iteration history) and otherwise the defaults. *)
let delta_params = { P.default with P.keep_history = false }

let same_verdict (a : Report.t) (b : Report.t) =
  a.Report.results = b.Report.results
  && a.Report.converged = b.Report.converged
  && a.Report.schedulable = b.Report.schedulable

(* Admit-like and revoke-like perturbations of a model: append one
   small transaction on the first platform, or drop the last
   transaction.  Both reuse the platform array so only the transaction
   set moves — exactly what Store snapshots feed the server. *)
let delta_perturbations (m : Model.t) =
  let admitted =
    qtxn "delta.admitted" (Q.of_int 60)
      [ qtask "delta.admitted.t" Q.one Q.one 0 1 ]
  in
  let admit_like =
    {
      m with
      Model.txns = Array.append m.Model.txns [| admitted |];
      blocking = Array.append m.Model.blocking [| [| Q.zero |] |];
      release_jitter = Array.append m.Model.release_jitter [| Q.zero |];
    }
  in
  let n = Array.length m.Model.txns in
  let revoke_like =
    {
      m with
      Model.txns = Array.sub m.Model.txns 0 (n - 1);
      blocking = Array.sub m.Model.blocking 0 (n - 1);
      release_jitter = Array.sub m.Model.release_jitter 0 (n - 1);
    }
  in
  [ admit_like; revoke_like ]

(* The tentpole identity: a warm delta fixed point seeded from the
   previous converged report reproduces the cold analysis bit for bit
   on results, convergence and verdict — for admit-like and revoke-like
   perturbations, both variants, sequential and 4-domain pools, and the
   integer kernel on or off.  Plans that fall back cold (previous run
   not converged, everything dirty, …) are exercised by the same
   property: analyze_delta must agree with the cold reference either
   way.  Only the outer iteration count may differ — the warm
   trajectory is shorter by construction. *)
let delta_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "warm delta = cold analysis, exact and reduced, jobs 1 and 4, kernel \
          on and off"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let prev = Model.of_system sys in
         QCheck.assume (scenario_total prev < 20_000);
         let agrees base next =
           let params = { base with P.keep_history = false } in
           let prev_report = Holistic.analyze ~params prev in
           let reference = Holistic.analyze ~params next in
           List.for_all
             (fun jobs ->
               Parallel.Pool.with_pool ~jobs (fun pool ->
                   let e = Engine.create ~params ~pool next in
                   let r, _ =
                     Engine.analyze_delta e ~prev_model:prev ~prev_report
                   in
                   same_verdict r reference))
             [ 1; 4 ]
         in
         List.for_all
           (fun next ->
             List.for_all
               (fun kernel ->
                 agrees { P.exact with P.int_kernel = kernel } next
                 && agrees { P.default with P.int_kernel = kernel } next)
               [ true; false ])
           (delta_perturbations prev)))

(* Two independent platforms, so an admission on the second can only
   dirty transactions whose interference set intersects it. *)
let two_platform_model ?(extra = false) () =
  Model.make
    ~bounds:[ LB.full; LB.full ]
    ([
       txn "A" "10" [ task "A.t" "2" "1" 0 2 ];
       txn "B" "12" [ task "B.t" "3" "2" 1 2 ];
     ]
    @ if extra then [ txn "C" "20" [ task "C.t" "1" "1" 1 3 ] ] else [])

let test_delta_localized_admit () =
  let prev = two_platform_model () in
  let next = two_platform_model ~extra:true () in
  let prev_report = Holistic.analyze ~params:delta_params prev in
  let e = Engine.create ~params:delta_params next in
  (* C (priority 3, platform 1) interferes with B but not with A: the
     dirty closure is {B, C} and A's converged row is carried. *)
  (match Engine.Delta.plan e ~prev_model:prev ~prev_report with
  | Error r -> Alcotest.failf "expected a warm plan, got %s" r
  | Ok p ->
      Alcotest.(check int) "total tasks" 3 (Engine.Delta.total_tasks p);
      Alcotest.(check int) "dirty tasks" 2 (Engine.Delta.dirty_tasks p));
  let r, outcome = Engine.analyze_delta e ~prev_model:prev ~prev_report in
  (match outcome with
  | Engine.Delta_warm { dirty; total; carried } ->
      Alcotest.(check int) "dirty" 2 dirty;
      Alcotest.(check int) "total" 3 total;
      Alcotest.(check int) "carried" 1 carried
  | Engine.Delta_cold { reason } -> Alcotest.failf "fell back cold: %s" reason);
  Alcotest.(check bool) "bit-identical results" true
    (same_verdict r (Holistic.analyze ~params:delta_params next))

let test_delta_revoke () =
  (* revoking C must re-iterate B (its interference shrank — responses
     can decrease, which is exactly why the plan seeds every survivor
     sharing a platform with the removed transaction) and carry A *)
  let prev = two_platform_model ~extra:true () in
  let next = two_platform_model () in
  let prev_report = Holistic.analyze ~params:delta_params prev in
  let e = Engine.create ~params:delta_params next in
  let r, outcome = Engine.analyze_delta e ~prev_model:prev ~prev_report in
  (match outcome with
  | Engine.Delta_warm { dirty; total; carried } ->
      Alcotest.(check int) "dirty" 1 dirty;
      Alcotest.(check int) "total" 2 total;
      Alcotest.(check int) "carried" 1 carried
  | Engine.Delta_cold { reason } -> Alcotest.failf "fell back cold: %s" reason);
  Alcotest.(check bool) "bit-identical results" true
    (same_verdict r (Holistic.analyze ~params:delta_params next))

let test_delta_plan_gates () =
  let m = two_platform_model () in
  let converged = Holistic.analyze ~params:delta_params m in
  let expect_reason want = function
    | Error got -> Alcotest.(check string) want want got
    | Ok _ -> Alcotest.failf "expected cold reason %s" want
  in
  (* a non-converged previous report cannot seed anything *)
  let hopeless =
    Holistic.analyze ~params:delta_params
      (Model.make
         ~bounds:[ LB.make ~alpha:(q "0.1") ~delta:Q.zero ~beta:Q.zero ]
         [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ])
  in
  let e = Engine.create ~params:delta_params m in
  expect_reason "previous-not-converged"
    (Engine.Delta.plan e ~prev_model:m ~prev_report:hopeless);
  (* history reconstruction is refused, not approximated *)
  let e_hist =
    Engine.create ~params:{ delta_params with P.keep_history = true } m
  in
  expect_reason "history-requested"
    (Engine.Delta.plan e_hist ~prev_model:m ~prev_report:converged);
  (* identical models leave nothing dirty on the admit side, but a
     whole-model change dirties everything *)
  let far =
    Model.make ~bounds:[ LB.full; LB.full ]
      [
        txn "A" "11" [ task "A.t" "2" "1" 0 2 ];
        txn "B" "13" [ task "B.t" "3" "2" 1 2 ];
      ]
  in
  expect_reason "all-dirty"
    (Engine.Delta.plan (Engine.create ~params:delta_params far)
       ~prev_model:m ~prev_report:converged)

(* --- seeded analysis --- *)

(* A strictly dominating parameter point for [m]: every platform gains
   rate and loses delay (β stays equal — the verdict is not monotone in
   burstiness), every task shrinks both demands by a quarter, so the
   worst case drops at least as much as the best case (c/4 >= cb/4). *)
let dominating_seed (m : Model.t) =
  let easier (lb : LB.t) =
    LB.make
      ~alpha:Q.((lb.LB.alpha + one) / of_int 2)
      ~delta:Q.(lb.LB.delta / of_int 2)
      ~beta:lb.LB.beta
  in
  let shrink (tk : Model.task) =
    {
      tk with
      Model.c = Q.(tk.Model.c * make 3 4);
      cb = Q.(tk.Model.cb * make 3 4);
    }
  in
  {
    m with
    Model.bounds = Array.map easier m.Model.bounds;
    txns =
      Array.map
        (fun (tx : Model.txn) ->
          { tx with Model.tasks = Array.map shrink tx.Model.tasks })
        m.Model.txns;
  }

(* The probe-ladder identity: a fixed point seeded from a converged
   report at a dominating parameter point reproduces the cold analysis
   bit for bit — results, convergence, verdict — for both variants,
   sequential and 4-domain pools.  Seeds whose own analysis did not
   converge exercise the transparent cold fallback through the same
   property.  [verdict_only] must still return the cold verdict even
   when its report is not converged. *)
let seeded_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"seeded warm = cold analysis, exact and reduced, jobs 1 and 4"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let target = Model.of_system sys in
         QCheck.assume (scenario_total target < 20_000);
         let seed_model = dominating_seed target in
         let agrees base =
           let params = { base with P.keep_history = false } in
           let seed_report = Holistic.analyze ~params seed_model in
           let reference = Holistic.analyze ~params target in
           List.for_all
             (fun jobs ->
               Parallel.Pool.with_pool ~jobs (fun pool ->
                   let e = Engine.create ~params ~pool target in
                   let r, _ = Engine.analyze_seeded e ~seed_model ~seed_report in
                   let rv, _ =
                     Engine.analyze_seeded ~verdict_only:true e ~seed_model
                       ~seed_report
                   in
                   same_verdict r reference
                   && rv.Report.schedulable = reference.Report.schedulable))
             [ 1; 4 ]
         in
         agrees P.exact && agrees P.default))

(* Site-parallel sweeps do not depend on the schedule: every entry into
   the outer fixed point — cold, delta and seeded warm starts — returns
   the structurally same report at every job count, with the integer
   kernel on or off. *)
let sweep_schedule_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "analyze, analyze_delta and analyze_seeded identical at jobs 1, 2 \
          and 4, kernel on and off"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 5;
             max_tasks_per_txn = 3;
           }
         in
         let target = Model.of_system (Workload.Gen.system ~seed spec) in
         QCheck.assume (scenario_total target < 20_000);
         let next = List.hd (delta_perturbations target) in
         let seed_model = dominating_seed target in
         let reports base ~kernel ~jobs =
           let params =
             { base with P.keep_history = false; int_kernel = kernel }
           in
           let prev_report = Holistic.analyze ~params target in
           let seed_report = Holistic.analyze ~params seed_model in
           Parallel.Pool.with_pool ~jobs (fun pool ->
               let e m = Engine.create ~params ~pool m in
               ( Engine.analyze (e target),
                 fst
                   (Engine.analyze_delta (e next) ~prev_model:target
                      ~prev_report),
                 fst (Engine.analyze_seeded (e target) ~seed_model ~seed_report)
               ))
         in
         List.for_all
           (fun base ->
             let reference = reports base ~kernel:false ~jobs:1 in
             List.for_all
               (fun kernel ->
                 List.for_all
                   (fun jobs -> reports base ~kernel ~jobs = reference)
                   [ 1; 2; 4 ])
               [ true; false ])
           [ P.exact; P.default ]))

let test_seeded_dominance () =
  let m = two_platform_model () in
  let s = dominating_seed m in
  Alcotest.(check bool) "derived seed dominates" true
    (Engine.Seeded.dominates ~seed:s m);
  Alcotest.(check bool) "reflexive" true (Engine.Seeded.dominates ~seed:m m);
  Alcotest.(check bool) "antisymmetric for a strict drop" false
    (Engine.Seeded.dominates ~seed:m s);
  (* burstiness must match exactly in both directions: a larger β grows
     the jitters, so neither side of a β change is a sound seed *)
  let bursty =
    {
      m with
      Model.bounds =
        Array.map
          (fun (lb : LB.t) ->
            LB.make ~alpha:lb.LB.alpha ~delta:lb.LB.delta
              ~beta:Q.(lb.LB.beta + one))
          m.Model.bounds;
    }
  in
  Alcotest.(check bool) "larger beta does not dominate" false
    (Engine.Seeded.dominates ~seed:bursty m);
  Alcotest.(check bool) "smaller beta does not dominate either" false
    (Engine.Seeded.dominates ~seed:m bursty);
  (* the worst case must shrink at least as much as the best case: a
     seed whose cb drops while c stays put can raise the jitters *)
  let cb_only =
    {
      m with
      Model.txns =
        Array.map
          (fun (tx : Model.txn) ->
            {
              tx with
              Model.tasks =
                Array.map
                  (fun (tk : Model.task) ->
                    { tk with Model.cb = Q.(tk.Model.cb / of_int 2) })
                  tx.Model.tasks;
            })
          m.Model.txns;
    }
  in
  Alcotest.(check bool) "cb-only drop does not dominate" false
    (Engine.Seeded.dominates ~seed:cb_only m)

(* A non-dominating seed must be rejected into the cold path — never
   silently used — and the report must still be the cold one. *)
let test_seeded_rejects_non_dominating () =
  let target = two_platform_model () in
  (* harder, not easier: half the rate on every platform *)
  let seed_model =
    {
      target with
      Model.bounds =
        Array.map
          (fun (lb : LB.t) ->
            LB.make
              ~alpha:Q.(lb.LB.alpha / of_int 2)
              ~delta:lb.LB.delta ~beta:lb.LB.beta)
          target.Model.bounds;
    }
  in
  let seed_report = Holistic.analyze ~params:delta_params seed_model in
  Alcotest.(check bool) "harder seed still converged" true
    seed_report.Report.converged;
  let e = Engine.create ~params:delta_params target in
  let r, outcome = Engine.analyze_seeded e ~seed_model ~seed_report in
  (match outcome with
  | Engine.Delta_cold { reason } ->
      Alcotest.(check string) "cold reason" "seed-not-dominating" reason
  | Engine.Delta_warm _ -> Alcotest.fail "non-dominating seed was used");
  Alcotest.(check bool) "cold report returned" true
    (same_verdict r (Holistic.analyze ~params:delta_params target));
  (* structure changes are their own reason: the squeeze argument needs
     the same transactions and chains on both sides *)
  match delta_perturbations target with
  | admit_like :: _ -> (
      let seed_report = Holistic.analyze ~params:delta_params target in
      match
        Engine.analyze_seeded
          (Engine.create ~params:delta_params admit_like)
          ~seed_model:target ~seed_report
      with
      | _, Engine.Delta_cold { reason } ->
          Alcotest.(check string) "mismatch reason" "seed-structure-mismatch"
            reason
      | _, Engine.Delta_warm _ ->
          Alcotest.fail "structure mismatch was not rejected")
  | [] -> Alcotest.fail "no perturbations"

let () =
  Alcotest.run "analysis"
    [
      ("busy", [ Alcotest.test_case "fixpoint" `Quick test_fixpoint ]);
      ( "interference",
        [
          Alcotest.test_case "hp sets (Eq. 17)" `Quick test_hp_sets;
          Alcotest.test_case "phase and jobs (Eq. 7-10)" `Quick test_phase_and_jobs;
          Alcotest.test_case "contribution (Eq. 11, 15)" `Quick
            test_contribution_table3;
        ] );
      ( "classical",
        [
          Alcotest.test_case "textbook values" `Quick test_classical_textbook;
          Alcotest.test_case "holistic degenerates to classical" `Quick
            test_classical_equivalence;
          Alcotest.test_case "jitter" `Quick test_classical_with_jitter;
          Alcotest.test_case "abstract platform" `Quick
            test_classical_on_abstract_platform;
          Alcotest.test_case "utilization tests" `Quick test_utilization_tests;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "divergence detected" `Quick test_divergence;
          Alcotest.test_case "deadline miss detected" `Quick
            test_deadline_miss_detected;
          Alcotest.test_case "blocking term" `Quick test_blocking_term;
          Alcotest.test_case "release jitter" `Quick test_release_jitter;
          Alcotest.test_case "multi-job busy window (J > T)" `Quick
            test_multi_job_busy_window;
          Alcotest.test_case "named-parameter errors" `Quick test_model_name_errors;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "pp smoke" `Quick test_report_pp_smoke;
          Alcotest.test_case "bound helpers" `Quick test_bound_helpers;
          Alcotest.test_case "classical divergence" `Quick test_classical_divergent;
          Alcotest.test_case "early-exit flag" `Quick test_early_exit_flag;
        ] );
      ( "best_case",
        [
          Alcotest.test_case "simple (Table 1 offsets)" `Quick test_best_case_simple;
          Alcotest.test_case "refined dominates simple" `Quick
            test_best_case_refined_dominates;
        ] );
      ( "variants",
        [
          Alcotest.test_case "exact <= reduced" `Quick test_exact_never_exceeds_reduced;
          Alcotest.test_case "scenario counts" `Quick test_scenario_count;
        ] );
      ( "pruning",
        [
          ablation_identity_prop;
          Alcotest.test_case "keep_history off" `Quick test_keep_history;
          Alcotest.test_case "scenario counters" `Quick test_scenario_counters;
        ] );
      ( "engine",
        [
          engine_identity_prop;
          Alcotest.test_case "session reuse" `Quick test_session_reuse;
          Alcotest.test_case "overrides" `Quick test_engine_overrides;
          Alcotest.test_case "model rebinding" `Quick test_engine_with_model;
          Alcotest.test_case "events" `Quick test_engine_events;
          Alcotest.test_case "classical view" `Quick test_engine_classical_view;
        ] );
      ( "int kernel",
        [
          kernel_identity_prop;
          Alcotest.test_case "timebase of the paper model" `Quick
            test_timebase_of_model;
          Alcotest.test_case "unrepresentable models fall back" `Quick
            test_kernel_unrepresentable;
          Alcotest.test_case "mid-analysis overflow falls back" `Quick
            test_kernel_runtime_fallback;
          Alcotest.test_case "unindexable scenario space is named" `Quick
            test_scenario_space_overflow;
        ] );
      ( "delta",
        [
          delta_identity_prop;
          Alcotest.test_case "localized admit dirties the intersection" `Quick
            test_delta_localized_admit;
          Alcotest.test_case "revoke re-iterates the survivors" `Quick
            test_delta_revoke;
          Alcotest.test_case "plan gates" `Quick test_delta_plan_gates;
        ] );
      ( "seeded",
        [
          seeded_identity_prop;
          sweep_schedule_identity_prop;
          Alcotest.test_case "dominance order" `Quick test_seeded_dominance;
          Alcotest.test_case "non-dominating seed runs cold" `Quick
            test_seeded_rejects_non_dominating;
        ] );
    ]
