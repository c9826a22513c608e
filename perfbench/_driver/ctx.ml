(* Run arguments, the metric catalogue, and the result printing every
   workload ends with. *)

module H = Harness

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reference_dir : string;
  work_dir : string;  (** scratch space inside the checkout *)
  git_commit : string;
  profile : string;
}

(* Later performance claims must hold on this seed too; it is used by no
   tuning run. *)
let held_out_seed = 1009
let percentiles = "p50 and p90, linear interpolation between closest ranks"
let reference_file ctx w = Filename.concat ctx.reference_dir (w ^ ".ref")

(* Every per-layer metric, over all workloads.  A traced run reports
   each of them; a layer its workload never calls reads 0 and is listed
   as bypassed. *)
let per_layer =
  [
    ("model.of_system_ms", "ms");
    ("engine.create_ms", "ms");
    ("engine.analyze_ms", "ms");
    ("rta.scenarios_total", "count");
    ("rta.scenarios_visited", "count");
    ("rta.visited_ratio", "ratio");
    ("rta.bound_evals", "count");
    ("rta.kernel_fallbacks", "count");
    ("memo.hit_ratio", "ratio");
    ("pool.steals", "count");
    ("pool.idle_slots", "count");
    ("engine.outer_iterations", "count");
    ("protocol.parse_ms", "ms");
    ("spec.parse_ms", "ms");
    ("store.admit_ms", "ms");
    ("store.revoke_ms", "ms");
    ("engine.with_model_ms", "ms");
    ("engine.analyze_delta_ms", "ms");
    ("protocol.summarize_ms", "ms");
    ("json.render_ms", "ms");
    ("wal.append_ms", "ms");
    ("wal.compact_ms", "ms");
    ("delta.warm_ratio", "ratio");
    ("delta.dirty_frac", "ratio");
    ("ir.warm_ratio", "ratio");
    ("tenant.cache_hit_ratio", "ratio");
    ("service.unattributed_frac", "ratio");
    ("param_search.region_ms", "ms");
    ("frontier.answer_ms", "ms");
    ("cell.sample_ms", "ms");
    ("cell.probes", "count");
    ("cell.boundary_frac", "ratio");
    ("ladder.certified_ratio", "ratio");
    ("ladder.seeded_ratio", "ratio");
    ("ladder.cold_ratio", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let provenance ctx ~samples =
  let f = Printf.sprintf in
  String.concat ", "
    [
      f "\"host_cores\": %d" (Domain.recommended_domain_count ());
      f "\"ocaml\": %s" (H.json_string Sys.ocaml_version);
      f "\"build_profile\": %s" (H.json_string ctx.profile);
      f "\"git_commit\": %s" (H.json_string ctx.git_commit);
      f "\"workload\": %s" (H.json_string ctx.workload);
      f "\"seed\": %d" ctx.seed;
      f "\"held_out_seed\": %d" held_out_seed;
      f "\"seconds\": %g" ctx.seconds;
      f "\"traced\": %b" ctx.trace;
      f "\"samples\": %d" samples;
      f "\"percentiles\": %s" (H.json_string percentiles);
      "\"load\": \"closed loop, one client\"";
    ]
  |> f "{%s}"

let failures_json l =
  String.concat ", "
    (List.map
       (fun (k, v) -> Printf.sprintf "%s: %d" (H.json_string k) v)
       (H.failures_list l))

(* Human-readable table, provenance line, result file, and — last on
   stdout — the one-line result the benchmark contract asks for. *)
let emit ctx ~title ~metrics ~notes ~samples ~correct ~attempted ~failed
    ~failures =
  H.print_table ~title metrics ~notes;
  let prov = provenance ctx ~samples in
  Printf.printf "provenance %s\n" prov;
  if failures <> "" then Printf.printf "failures {%s}\n" failures;
  let line =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct attempted failed (H.metrics_json metrics)
  in
  let path =
    Filename.concat ctx.work_dir
      (Printf.sprintf "result-%s-seed%d-trace%d.json" ctx.workload ctx.seed
         (if ctx.trace then 1 else 0))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"provenance\": %s, \"failures\": {%s}, \"notes\": [%s], \"result\": %s}\n"
    prov failures
    (String.concat ", " (List.map H.json_string notes))
    line;
  close_out oc;
  print_endline line

(* The end-to-end figures of an untraced run, over its whole passes
   ({!Harness.end_pass}); [wall_s] is the whole timed phase, used when no
   pass finished. *)
let finish_plain ctx (l : H.loop) ~wall_s ~setups ~notes ~unsound =
  let lat = H.pass_latencies l in
  let completed = List.length lat in
  let passes = List.length l.H.pass_times in
  let pass_s = List.fold_left ( +. ) 0. l.H.pass_times in
  let ops_per_s =
    float_of_int completed /. if passes = 0 then wall_s else pass_s
  in
  let metrics =
    [
      H.metric "ops_per_s" "1/s" ops_per_s;
      H.metric "latency_ms_p50" "ms" (H.percentile lat 50.);
      H.metric "latency_ms_p90" "ms" (H.percentile lat 90.);
      H.metric "setup_s" "s" (H.median setups);
      H.metric "peak_heap_mb" "MB" (H.peak_heap_mb ());
    ]
  in
  let notes =
    (if passes = 0 then
       Printf.sprintf "samples %d: every completed op, no whole pass finished"
         completed
     else
       Printf.sprintf
         "samples %d: the completed ops of %d whole passes (%.1f s); %d ops run"
         completed passes pass_s l.H.attempted)
    :: Printf.sprintf "pass times (s): %s"
         (String.concat " "
            (List.rev_map (Printf.sprintf "%.3f") l.H.pass_times))
    :: Printf.sprintf "error_rate %.6f (%d failed of %d attempted)"
         (H.ratio l.H.failed l.H.attempted)
         l.H.failed l.H.attempted
    :: Printf.sprintf "setup_s is the median of %d set-ups" (List.length setups)
    :: notes
  in
  emit ctx ~title:(ctx.workload ^ " (untraced)") ~metrics ~notes
    ~samples:completed
    ~correct:(l.H.mismatches = 0 && unsound = 0)
    ~attempted:l.H.attempted ~failed:l.H.failed ~failures:(failures_json l)

(* [layers] are the workload's own per-layer metrics; the rest of the
   catalogue reads 0.  [trace.overhead_frac] compares the traced ops with
   the untraced ops run beside them. *)
let finish_traced ctx ~(plain : H.loop) ~(traced : H.loop) ~tracer ~layers
    ~notes ~unsound =
  let overhead =
    if plain.H.busy_s > 0. then (traced.H.busy_s /. plain.H.busy_s) -. 1. else 0.
  in
  let layers = layers @ [ H.metric "trace.overhead_frac" "ratio" overhead ] in
  let bypassed = ref [] in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> String.equal m.H.m_name name) layers with
        | Some m -> m
        | None ->
            bypassed := name :: !bypassed;
            H.metric name unit_ 0.)
      per_layer
  in
  let spans = Filename.concat ctx.work_dir
      (Printf.sprintf "spans-%s-seed%d.jsonl" ctx.workload ctx.seed)
  in
  H.write_spans tracer spans;
  let samples = List.length traced.H.latencies in
  let notes =
    Printf.sprintf "samples %d traced ops beside %d untraced ops" samples
      (List.length plain.H.latencies)
    :: Printf.sprintf "bypassed (0): %s" (String.concat " " (List.rev !bypassed))
    :: Printf.sprintf "spans written to %s" spans
    :: notes
  in
  let failed = plain.H.failed + traced.H.failed in
  let failures =
    String.concat ", "
      (List.filter (( <> ) "") [ failures_json plain; failures_json traced ])
  in
  emit ctx ~title:(ctx.workload ^ " (traced)") ~metrics ~notes ~samples
    ~correct:(plain.H.mismatches = 0 && traced.H.mismatches = 0 && unsound = 0)
    ~attempted:(plain.H.attempted + traced.H.attempted)
    ~failed ~failures
