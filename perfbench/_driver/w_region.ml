(* region_design: one op is one [hsched design --region P --grid 6] — an
   engine session over one system, Design.Param_search.region at
   precision 6 for one platform, the membership of the platform's
   current point, and 20 region_min_alpha / region_max_delta answers
   from the build. *)

open Analysis
module H = Harness
module D = Design.Param_search
module LB = Platform.Linear_bound
module Q = Rational

let corpus_size = 24
let precision = 6

(* Workload.Gen.system draws with 4 platforms and 8 to 16 transactions;
   each item designs one of the platforms that host tasks. *)
let item i =
  let n_txns = 8 + (i * 8 / (corpus_size - 1)) in
  let sys =
    Workload.Gen.system ~seed:(201 + i)
      { Workload.Gen.default_spec with n_resources = 4; n_txns }
  in
  let hosting =
    List.filter
      (fun r ->
        Array.exists
          (fun (tx : Transaction.Txn.t) ->
            Array.exists
              (fun (tk : Transaction.Task.t) -> tk.Transaction.Task.resource = r)
              tx.Transaction.Txn.tasks)
          sys.Transaction.System.transactions)
      (List.init (Array.length sys.Transaction.System.resources) Fun.id)
  in
  (sys, List.nth hosting (i mod List.length hosting))

let key i = Printf.sprintf "region_design/%02d" i

let limit (sys : Transaction.System.t) =
  Array.fold_left
    (fun acc (x : Transaction.Txn.t) -> Q.max acc x.Transaction.Txn.deadline)
    Q.one sys.Transaction.System.transactions

let opt = function None -> "none" | Some q -> Q.to_string q

(* The 20 questions: the least rate at ten delays across [0, limit) and
   the largest delay at ten rates across (0, 1]. *)
let questions sys =
  let l = limit sys in
  List.init 10 (fun k -> `Min_alpha Q.(l * make k 10))
  @ List.init 10 (fun k -> `Max_delta (Q.make (k + 1) 10))

let answer rm = function
  | `Min_alpha delta -> opt (D.region_min_alpha rm ~delta)
  | `Max_delta alpha -> opt (D.region_max_delta rm ~alpha)

let member rm (sys : Transaction.System.t) resource =
  let b = sys.Transaction.System.resources.(resource).Platform.Resource.bound in
  D.region_member rm ~alpha:b.LB.alpha ~delta:b.LB.delta

(* The answer compared against the reference: cell statistics, the
   certified frontier, membership and the 20 answers. *)
let summary rm ~member ~answers =
  let st = Regions.Cell.stats rm.D.cells in
  let frontier =
    String.concat ";"
      (List.map
         (fun (p : Regions.Frontier.point) ->
           Q.to_string p.Regions.Frontier.f_alpha
           ^ "," ^ Q.to_string p.Regions.Frontier.f_delta)
         (Regions.Frontier.points rm.D.frontier))
  in
  Printf.sprintf
    "cells=%d feasible=%d infeasible=%d boundary=%d refined=%d probes=%d \
     member=%b frontier=%s answers=%s"
    st.Regions.Cell.cells st.Regions.Cell.feasible st.Regions.Cell.infeasible
    st.Regions.Cell.boundary st.Regions.Cell.refined st.Regions.Cell.probes
    member
    (Digest.to_hex (Digest.string frontier))
    (Digest.to_hex (Digest.string (String.concat ";" answers)))

let design ~params (sys, resource) =
  let engine = Engine.create_system ~params sys in
  let rm = D.region ~engine ~precision sys ~resource in
  let member = member rm sys resource in
  let answers = List.map (answer rm) (questions sys) in
  (rm, member, answers)

let write_reference path =
  Reference.write path
    (List.init corpus_size (fun i ->
         ( key i,
           Reference.answer_of (fun () ->
               let rm, member, answers =
                 design ~params:(Reference.params Params.default) (item i)
               in
               summary rm ~member ~answers) )))

type layers = {
  counters : Rta.counters;
  mutable iterations : int;  (** over every probe analysis *)
  mutable analyses : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable cells : int;
  mutable boundary : int;
  mutable probes : int;
  mutable ladder_probes : int;
  mutable certified : int;
  mutable seeded : int;
  mutable cold : int;
  mutable builds : int;
}

let on_event ly = function
  | Engine.Finished { iterations; _ } ->
      ly.iterations <- ly.iterations + iterations;
      ly.analyses <- ly.analyses + 1
  | _ -> ()

(* The traced op: the same calls as [design], one span each. *)
let traced_design tr ly (sys, resource) =
  let params = Params.default in
  let m = H.span tr "model.of_system" (fun () -> Model.of_system sys) in
  let engine =
    H.span tr "engine.create" (fun () ->
        Engine.create ~params ~counters:ly.counters ~sink:(on_event ly) m)
  in
  let rm =
    H.span tr "param_search.region" (fun () ->
        D.region ~engine ~precision sys ~resource)
  in
  let member = H.span tr "frontier.answer" (fun () -> member rm sys resource) in
  let answers =
    List.map
      (fun q -> H.span tr "frontier.answer" (fun () -> answer rm q))
      (questions sys)
  in
  let st = Regions.Cell.stats rm.D.cells in
  let ls = Regions.Probe_ladder.stats rm.D.ladder in
  ly.cells <- ly.cells + st.Regions.Cell.cells;
  ly.boundary <- ly.boundary + st.Regions.Cell.boundary;
  ly.probes <- ly.probes + st.Regions.Cell.probes;
  ly.ladder_probes <- ly.ladder_probes + ls.Regions.Probe_ladder.probes;
  ly.certified <-
    ly.certified + ls.Regions.Probe_ladder.cert_feasible
    + ls.Regions.Probe_ladder.cert_infeasible;
  ly.seeded <- ly.seeded + ls.Regions.Probe_ladder.seeded;
  ly.cold <- ly.cold + ls.Regions.Probe_ladder.cold;
  ly.builds <- ly.builds + 1;
  (engine, rm, member, answers)

(* The corner samples happen inside Param_search.region, out of reach of
   a span.  The replay rebuilds the region through the public pieces the
   search composes — a keep_history:false probe session, a fresh
   Probe_ladder, Cell.sample_of_report and Cell.build — with a span
   around each call of the [~sample] function.  Untimed: it runs after
   the op.  A second, cold pass over the sampled corners reads the
   interference memo's hit ratio, which the ladder's internal sessions
   do not expose. *)
let replay_samples tr ly engine (sys, resource) =
  let probe = Engine.with_overrides engine ~keep_history:false in
  let ladder =
    Regions.Probe_ladder.create
      ~enabled:(Engine.params probe).Params.warm_probes ()
  in
  let model = Engine.model probe in
  let beta = model.Model.bounds.(resource).LB.beta in
  let corners = ref [] in
  let at ~alpha ~delta =
    let bounds = Array.copy model.Model.bounds in
    bounds.(resource) <- LB.make ~alpha ~delta ~beta;
    { model with Model.bounds }
  in
  let sample ~alpha ~delta =
    H.span tr "cell.sample" (fun () ->
        let m = at ~alpha ~delta in
        corners := m :: !corners;
        Regions.Cell.sample_of_report model
          (Regions.Probe_ladder.analyze ladder probe m))
  in
  let cells =
    Regions.Cell.build ~precision ~sample ~resource ~beta ~limit:(limit sys) ()
  in
  List.iter
    (fun m ->
      let s = Engine.with_model probe m in
      ignore (Engine.analyze s);
      match Engine.memo_stats s with
      | Some st ->
          ly.memo_hits <- ly.memo_hits + st.Memo.hits;
          ly.memo_misses <- ly.memo_misses + st.Memo.misses
      | None -> ())
    !corners;
  cells

let run (ctx : Ctx.t) =
  let reference = Reference.load (Ctx.reference_file ctx "region_design") in
  let setup () = Array.init corpus_size item in
  let setups = ref (H.time_setups 11 ~setup ~teardown:ignore) in
  let items = setup () in
  let order = Array.init corpus_size Fun.id in
  H.shuffle (H.rng ctx.Ctx.seed) order;
  let check i (rm, member, answers) =
    Reference.check reference (key i) (summary rm ~member ~answers)
  in
  let plain = H.loop () and traced = H.loop () in
  let tr = H.tracer () in
  let ly =
    {
      counters = Rta.counters ();
      iterations = 0;
      analyses = 0;
      memo_hits = 0;
      memo_misses = 0;
      cells = 0;
      boundary = 0;
      probes = 0;
      ladder_probes = 0;
      certified = 0;
      seeded = 0;
      cold = 0;
      builds = 0;
    }
  in
  let replay_mismatches = ref 0 in
  let deadline = H.now () +. ctx.Ctx.seconds in
  let k = ref 0 in
  let start = H.now () in
  while H.now () < deadline do
    if !k mod corpus_size = 0 then H.begin_pass plain;
    let i = order.(!k mod corpus_size) in
    let untraced () =
      H.run_op plain
        ~op:(fun () -> design ~params:Params.default items.(i))
        ~check:(check i)
    in
    if not ctx.Ctx.trace then untraced ()
    else begin
      let traced () =
        tr.H.enabled <- true;
        tr.H.op <- !k;
        let built = ref None in
        H.run_op traced
          ~op:(fun () ->
            let engine, rm, member, answers = traced_design tr ly items.(i) in
            built := Some (engine, rm);
            (rm, member, answers))
          ~check:(check i);
        (match !built with
        | None -> ()
        | Some (engine, rm) -> (
            match replay_samples tr ly engine items.(i) with
            | cells ->
                if Regions.Cell.stats cells <> Regions.Cell.stats rm.D.cells
                then incr replay_mismatches
            | exception _ -> incr replay_mismatches));
        tr.H.enabled <- false
      in
      if !k mod 2 = 0 then (untraced (); traced ())
      else (traced (); untraced ())
    end;
    incr k;
    if !k mod corpus_size = 0 then begin
      H.end_pass plain;
      setups := H.time_setups 3 ~setup ~teardown:ignore @ !setups
    end
  done;
  let wall_s = H.now () -. start in
  let notes =
    if ctx.Ctx.trace then
      [
        Printf.sprintf
          "sample replay: %d builds whose replayed cell stats differ from \
           the op's"
          !replay_mismatches;
        Printf.sprintf "memo lookups in the cold corner pass: %d"
          (ly.memo_hits + ly.memo_misses);
      ]
    else []
  in
  if not ctx.Ctx.trace then
    Ctx.finish_plain ctx plain ~wall_s ~setups:!setups ~notes ~unsound:0
  else begin
    let c = ly.counters in
    let lr n = H.ratio n ly.ladder_probes in
    let ms = H.mean_ms tr in
    let layers =
      [
        H.metric "model.of_system_ms" "ms" (ms "model.of_system");
        H.metric "engine.create_ms" "ms" (ms "engine.create");
        H.metric "rta.scenarios_total" "count"
          (H.ratio (Rta.total_scenarios c) ly.builds);
        H.metric "rta.scenarios_visited" "count"
          (H.ratio (Rta.visited_scenarios c) ly.builds);
        H.metric "rta.visited_ratio" "ratio"
          (H.ratio (Rta.visited_scenarios c) (Rta.total_scenarios c));
        H.metric "rta.bound_evals" "count"
          (H.ratio (Rta.bound_evaluations c) ly.builds);
        H.metric "rta.kernel_fallbacks" "count"
          (float_of_int (Rta.kernel_fallbacks c));
        H.metric "param_search.region_ms" "ms" (ms "param_search.region");
        H.metric "frontier.answer_ms" "ms" (ms "frontier.answer");
        H.metric "cell.sample_ms" "ms" (ms "cell.sample");
        H.metric "cell.probes" "count" (H.ratio ly.probes ly.builds);
        H.metric "cell.boundary_frac" "ratio" (H.ratio ly.boundary ly.cells);
        H.metric "ladder.certified_ratio" "ratio" (lr ly.certified);
        H.metric "ladder.seeded_ratio" "ratio" (lr ly.seeded);
        H.metric "ladder.cold_ratio" "ratio" (lr ly.cold);
        H.metric "memo.hit_ratio" "ratio"
          (H.ratio ly.memo_hits (ly.memo_hits + ly.memo_misses));
        H.metric "engine.outer_iterations" "count"
          (H.ratio ly.iterations ly.analyses);
      ]
    in
    Ctx.finish_traced ctx ~plain ~traced ~tracer:tr ~layers ~notes ~unsound:0
  end
