(* admit_churn: one op is one JSON request line — Service.Protocol.parse,
   Service.Server.process_batch (1 shard, 1 worker, default reduced
   params, WAL on in a scratch directory), Service.Json.to_string.

   The requests come from four tenant streams.  A tenant's responses
   depend only on that tenant's own history, so each stream has its own
   reference answers whatever the interleaving, and the run's seed picks
   the order in which the streams' requests interleave. *)

open Analysis
module H = Harness
module P = Service.Protocol
module Json = Service.Json
module Store = Service.Store
module Tenant = Service.Tenant
module Wal = Service.Wal

let streams = 4
let preload = 25
let stream_ops = 200

let base =
  String.concat "\n"
    [
      "platform P0 { alpha = 0.5; delta = 1; beta = 1; host = \"n\"; }";
      "platform P1 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P2 { alpha = 0.3; delta = 2; beta = 1; host = \"n\"; }";
      "platform P3 { alpha = 0.25; delta = 2; beta = 1; host = \"n\"; }";
    ]

let base_items () =
  match Spec.Parser.parse base with Ok items -> items | Error e -> failwith e

let periods = [| 40; 50; 80; 100; 200 |]

(* Demand of one task: a share of [period] on the slowest platform,
   written with two decimals.  [overload] makes it exceed the platform
   outright, so the admission is rejected. *)
let wcet r ~period ~overload =
  let hundredths =
    if overload then period * 40 else period * (1 + H.int r 3) / 4
  in
  Printf.sprintf "%d.%02d" (hundredths / 100) (hundredths mod 100)

(* One admitted unit, of three shapes: a component with two periodic
   threads on one platform; a client calling a server on another
   platform; or a client calling through a middle server into a leaf
   server, a transaction over three platforms. *)
let unit_spec r ~name ~overload =
  let period = periods.(H.int r (Array.length periods)) in
  let prio () = 1 + H.int r 20 in
  let pa = H.int r 4 in
  let other p = (p + 1 + H.int r 3) mod 4 in
  let c () = wcet r ~period ~overload:false in
  match H.int r 3 with
  | 0 ->
      let period2 = periods.(H.int r (Array.length periods)) in
      Printf.sprintf
        "component %s { implementation: scheduler fixed_priority; thread T \
         periodic(period = %d, deadline = %d) priority %d { task work(wcet = \
         %s, bcet = 0.01); } thread U periodic(period = %d, deadline = %d) \
         priority %d { task poll(wcet = %s, bcet = 0.01); } } instance %sI : \
         %s on P%d;"
        name period period (prio ()) (c ()) period2 period2 (prio ())
        (wcet r ~period:period2 ~overload)
        name name pa
  | 1 ->
      let pb = other pa in
      Printf.sprintf
        "component %sC { required: srv() mit %d; implementation: scheduler \
         fixed_priority; thread T periodic(period = %d, deadline = %d) priority \
         %d { task pre(wcet = %s, bcet = 0.01); call srv(); task post(wcet = \
         %s, bcet = 0.01); } } component %sS { provided: srv() mit %d; \
         implementation: scheduler fixed_priority; thread H realizes srv() \
         priority %d { task serve(wcet = %s, bcet = 0.01); } } instance %sCI : \
         %sC on P%d; instance %sSI : %sS on P%d; bind %sCI.srv -> %sSI.srv;"
        name period period (2 * period) (prio ()) (c ()) (c ()) name period
        (prio ())
        (wcet r ~period ~overload)
        name name pa name name pb name name
  | _ ->
      let pb = other pa in
      let pc = other pb in
      Printf.sprintf
        "component %sC { required: srv() mit %d; implementation: scheduler \
         fixed_priority; thread T periodic(period = %d, deadline = %d) priority \
         %d { task pre(wcet = %s, bcet = 0.01); call srv(); task post(wcet = \
         %s, bcet = 0.01); } } component %sM { provided: srv() mit %d; \
         required: leaf() mit %d; implementation: scheduler fixed_priority; \
         thread H realizes srv() priority %d { task a(wcet = %s, bcet = 0.01); \
         call leaf(); task b(wcet = %s, bcet = 0.01); } } component %sL { \
         provided: leaf() mit %d; implementation: scheduler fixed_priority; \
         thread H realizes leaf() priority %d { task serve(wcet = %s, bcet = \
         0.01); } } instance %sCI : %sC on P%d; instance %sMI : %sM on P%d; \
         instance %sLI : %sL on P%d; bind %sCI.srv -> %sMI.srv; bind \
         %sMI.leaf -> %sLI.leaf;"
        name period period (3 * period) (prio ()) (c ()) (c ()) name period
        period (prio ()) (c ()) (c ()) name period (prio ())
        (wcet r ~period ~overload)
        name name pa name name pb name name pc name name name name

(* A tenant stream: [preload] admissions, then [stream_ops] requests —
   about 30% admit (one in ten overloaded, so rejected), 30% revoke of
   the oldest unit, 30% what_if and 10% query.  The stream keeps its
   tenant between 20 and 30 admitted units. *)
let stream s =
  let r = H.rng (5000 + s) in
  let tenant = Printf.sprintf "s%d" s in
  let admitted = Queue.create () in
  let next = ref 0 in
  let line fields =
    Json.to_string
      (Json.Obj (fields @ [ ("tenant", Json.String tenant) ]))
  in
  let admit ~overload =
    let n = !next in
    incr next;
    let uid = Printf.sprintf "u%d" n in
    if not overload then Queue.add uid admitted;
    line
      [
        ("op", Json.String "admit");
        ("id", Json.String uid);
        ("spec", Json.String (unit_spec r ~name:(Printf.sprintf "U%d" n) ~overload));
      ]
  in
  let revoke () =
    line [ ("op", Json.String "revoke"); ("id", Json.String (Queue.pop admitted)) ]
  in
  let what_if () =
    let n = !next in
    incr next;
    line
      [
        ("op", Json.String "what_if");
        ("id", Json.String (Printf.sprintf "w%d" n));
        ( "spec",
          Json.String
            (unit_spec r ~name:(Printf.sprintf "W%d" n) ~overload:(H.int r 10 = 0)) );
      ]
  in
  let pre = List.init preload (fun _ -> admit ~overload:false) in
  let ops =
    List.init stream_ops (fun _ ->
        let d = H.int r 100 in
        let size = Queue.length admitted in
        if d < 30 then
          if H.int r 10 = 0 then admit ~overload:true
          else if size >= 30 then revoke ()
          else admit ~overload:false
        else if d < 60 then
          if size <= 20 then admit ~overload:false else revoke ()
        else if d < 90 then what_if ()
        else line [ ("op", Json.String "query") ])
  in
  (tenant, Array.of_list pre, Array.of_list ops)

let key s i = Printf.sprintf "admit_churn/s%d/%04d" s i

(* What is compared with the reference: status, snapshot hash and
   verdict; a query's bounds as well, as a digest. *)
let answer j =
  let str f = Option.value (Json.string_field f j) ~default:"-" in
  let sched =
    match Json.member "schedulable" j with
    | Some (Json.Bool b) -> string_of_bool b
    | _ -> "-"
  in
  let bounds =
    match Json.member "bounds" j with
    | Some b -> " " ^ String.sub (Digest.to_hex (Digest.string (Json.to_string b))) 0 12
    | None -> ""
  in
  let hash = str "hash" in
  let hash = if String.length hash > 12 then String.sub hash 0 12 else hash in
  let reason =
    match Json.string_field "reason" j with Some r -> " " ^ r | None -> ""
  in
  Printf.sprintf "%s%s %s %s%s" (str "status") reason hash sched bounds

(* --- server plumbing ----------------------------------------------- *)

let dirs = ref 0

(* A WAL path in a directory of its own, never shared with another
   server or run. *)
let fresh_log (ctx : Ctx.t) =
  incr dirs;
  let dir =
    Filename.concat ctx.Ctx.work_dir
      (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) !dirs)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "log.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  path

let remove_log path =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ path; path ^ ".tmp" ];
  try Unix.rmdir (Filename.dirname path) with Unix.Unix_error _ -> ()

let seq = ref 0

let envelope line =
  match P.parse line with
  | Error e -> failwith e
  | Ok (req, deadline_ms, tenant) ->
      incr seq;
      { P.seq = !seq; arrival = H.now (); deadline_ms; tenant; req }

let request srv line =
  match Service.Server.process_batch srv [ envelope line ] with
  | [ j ] -> j
  | _ -> failwith "process_batch: expected one response"

(* The server's own default: the reduced analysis without history. *)
let server_params = { Params.default with Params.keep_history = false }

type server = { srv : Service.Server.t; log : string }

let start ?params ?trace ctx =
  let log = fresh_log ctx in
  match Service.Server.create ?params ?trace ~log (base_items ()) with
  | Ok srv -> { srv; log }
  | Error es -> failwith (String.concat "; " es)

let stop s =
  Service.Server.shutdown s.srv;
  remove_log s.log

(* --- the shadow replay of the traced run ---------------------------- *)

(* The shard's internals cannot be wrapped from outside, so the traced
   run replays every request through the same public layer functions,
   in the order the shard calls them, on a shadow state of its own:
   real Tenant records, one engine session rebound with with_model, and
   a WAL of its own with the same compaction threshold. *)
type shadow = {
  params : Params.t;
  counters : Rta.counters;
  tenants : (string, Tenant.t) Hashtbl.t;
  boot : Store.t;
  mutable session : Engine.t option;
  wal : Wal.t;
  wal_path : string;
}

let shadow ctx counters =
  let boot =
    match Store.boot (base_items ()) with
    | Ok s -> s
    | Error es -> failwith (String.concat "; " es)
  in
  let wal_path = fresh_log ctx in
  let wal =
    match Wal.open_ ~path:wal_path with
    | Ok (w, _) -> w
    | Error es -> failwith (String.concat "; " es)
  in
  {
    params = server_params;
    counters;
    tenants = Hashtbl.create 8;
    boot;
    session = None;
    wal;
    wal_path;
  }

let shadow_tenant sh tid =
  match Hashtbl.find_opt sh.tenants tid with
  | Some t -> t
  | None ->
      let t = Tenant.create ~id:tid sh.boot in
      Hashtbl.replace sh.tenants tid t;
      t

let analyze_snapshot tr sh ten (snap : Store.t) =
  match Tenant.cache_find ten snap.Store.hash with
  | Some s -> (s, true)
  | None ->
      let model =
        H.span tr "model.of_system" (fun () -> Model.of_system snap.Store.sys)
      in
      let session =
        match sh.session with
        | None ->
            H.span tr "engine.create" (fun () ->
                Engine.create ~params:sh.params ~counters:sh.counters model)
        | Some s -> H.span tr "engine.with_model" (fun () -> Engine.with_model s model)
      in
      sh.session <- Some session;
      let report =
        match ten.Tenant.baseline with
        | Some (prev_model, prev_report) ->
            H.span tr "engine.analyze_delta" (fun () ->
                fst (Engine.analyze_delta session ~prev_model ~prev_report))
        | None -> H.span tr "engine.analyze" (fun () -> Engine.analyze session)
      in
      let summary =
        H.span tr "protocol.summarize" (fun () -> P.summarize ~store:snap ~model report)
      in
      Tenant.update_baseline ten (Some (model, report));
      (summary, false)

let commit tr sh ten cand record =
  ten.Tenant.store <- cand;
  H.span tr "wal.append" (fun () -> Wal.append sh.wal record);
  if Wal.mutations sh.wal >= 256 then
    let tenants =
      Hashtbl.fold (fun tid t acc -> (tid, t.Tenant.store) :: acc) sh.tenants []
      |> List.sort compare
    in
    ignore (H.span tr "wal.compact" (fun () -> Wal.compact sh.wal ~tenants))

(* Replay one request; returns the status the shard should have given. *)
let replay tr sh ~seq ~tenant req =
  let ten = shadow_tenant sh tenant in
  let tenant = Some tenant in
  let evaluated summary cached respond =
    Tenant.cache_add ten summary;
    H.span tr "protocol.respond" (fun () -> ignore (respond ~cached summary))
  in
  let admit_candidate uid spec =
    ignore (H.span tr "spec.parse" (fun () -> Spec.Parser.parse spec));
    H.span tr "store.admit" (fun () -> Store.admit ten.Tenant.store ~uid ~spec)
  in
  match req with
  | P.Query ->
      let summary, cached = analyze_snapshot tr sh ten ten.Tenant.store in
      evaluated summary cached (fun ~cached s -> P.query_ok ?tenant ~seq ~cached s);
      "ok"
  | P.What_if { uid; spec } -> (
      match admit_candidate uid spec with
      | Error _ -> "rejected"
      | Ok cand ->
          let summary, cached = analyze_snapshot tr sh ten cand in
          evaluated summary cached (fun ~cached s ->
              P.what_if_ok ?tenant ~seq ~uid ~cached
                ~candidate_instances:(Store.unit_instances cand uid) s);
          "ok")
  | P.Admit { uid; spec } -> (
      match admit_candidate uid spec with
      | Error _ -> "rejected"
      | Ok cand ->
          let summary, cached = analyze_snapshot tr sh ten cand in
          Tenant.cache_add ten summary;
          if summary.P.s_schedulable then begin
            H.span tr "protocol.respond" (fun () ->
                ignore
                  (P.admitted ?tenant ~seq ~uid
                     ~txns:(Store.n_transactions cand) ~cached summary));
            commit tr sh ten cand
              (Wal.Admit
                 { tenant = ten.Tenant.id; uid; spec; hash = cand.Store.hash });
            "admitted"
          end
          else "rejected")
  | P.Revoke { uid } -> (
      match
        H.span tr "store.revoke" (fun () -> Store.revoke ten.Tenant.store ~uid)
      with
      | Error _ -> "rejected"
      | Ok cand ->
          let summary, cached = analyze_snapshot tr sh ten cand in
          Tenant.cache_add ten summary;
          H.span tr "protocol.respond" (fun () ->
              ignore
                (P.revoked ?tenant ~seq ~uid ~txns:(Store.n_transactions cand)
                   ~cached summary));
          commit tr sh ten cand
            (Wal.Revoke { tenant = ten.Tenant.id; uid; hash = cand.Store.hash });
          "revoked")
  | P.Region _ | P.Stats -> "ok"

(* --- sink stamps ----------------------------------------------------- *)

(* Server and engine events of the traced server, stamped on arrival.
   For each warm admission they split the request into derivation
   (before the engine starts), analysis, and finalisation with the WAL
   append (after the engine finishes). *)
type stamps = {
  mutable events : (float * Service.Events.event) list;
  mutable derive_s : float;
  mutable analysis_s : float;
  mutable finalize_s : float;
  mutable warm_admits : int;
}

let split_admit st ~t0 ~t1 =
  let evs = List.rev st.events in
  st.events <- [];
  let first_start =
    List.find_map
      (function
        | t, Service.Events.Engine_event
               (Engine.Delta _ | Engine.Analysis_started _) ->
            Some t
        | _ -> None)
      evs
  in
  let warm =
    List.exists
      (function _, Service.Events.Engine_event (Engine.Delta _) -> true | _ -> false)
      evs
  in
  let last_finish =
    List.fold_left
      (fun acc -> function
        | t, Service.Events.Engine_event (Engine.Finished _) -> Some t
        | _ -> acc)
      None evs
  in
  match (first_start, last_finish) with
  | Some ta, Some tf when warm ->
      st.derive_s <- st.derive_s +. (ta -. t0);
      st.analysis_s <- st.analysis_s +. (tf -. ta);
      st.finalize_s <- st.finalize_s +. (t1 -. tf);
      st.warm_admits <- st.warm_admits + 1
  | _ -> ()

(* --- the run ---------------------------------------------------------- *)

(* What the traced side's counters gained while requests were timed:
   each cycle's server and shadow are read after their preload and again
   when they retire. *)
type gains = {
  mutable delta_warm : int;
  mutable delta_cold : int;
  mutable dirty : int;
  mutable carried : int;
  mutable ir_warm : int;
  mutable rebound : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable scenarios : int;
  mutable visited : int;
  mutable bound_evals : int;
  mutable fallbacks : int;
}

let snapshot srv counters =
  let m = Service.Server.metrics srv in
  let module M = Service.Metrics in
  {
    delta_warm = m.M.delta_warm;
    delta_cold = m.M.delta_cold;
    dirty = m.M.delta_dirty_tasks;
    carried = m.M.delta_carried_tasks;
    ir_warm = m.M.ir_warm;
    rebound = m.M.sessions_rebound;
    cache_hits = m.M.cache_hits;
    cache_misses = m.M.cache_misses;
    scenarios = Rta.total_scenarios counters;
    visited = Rta.visited_scenarios counters;
    bound_evals = Rta.bound_evaluations counters;
    fallbacks = Rta.kernel_fallbacks counters;
  }

let no_gain () =
  {
    delta_warm = 0;
    delta_cold = 0;
    dirty = 0;
    carried = 0;
    ir_warm = 0;
    rebound = 0;
    cache_hits = 0;
    cache_misses = 0;
    scenarios = 0;
    visited = 0;
    bound_evals = 0;
    fallbacks = 0;
  }

let add_gain g ~before ~after =
  g.delta_warm <- g.delta_warm + after.delta_warm - before.delta_warm;
  g.delta_cold <- g.delta_cold + after.delta_cold - before.delta_cold;
  g.dirty <- g.dirty + after.dirty - before.dirty;
  g.carried <- g.carried + after.carried - before.carried;
  g.ir_warm <- g.ir_warm + after.ir_warm - before.ir_warm;
  g.rebound <- g.rebound + after.rebound - before.rebound;
  g.cache_hits <- g.cache_hits + after.cache_hits - before.cache_hits;
  g.cache_misses <- g.cache_misses + after.cache_misses - before.cache_misses;
  g.scenarios <- g.scenarios + after.scenarios - before.scenarios;
  g.visited <- g.visited + after.visited - before.visited;
  g.bound_evals <- g.bound_evals + after.bound_evals - before.bound_evals;
  g.fallbacks <- g.fallbacks + after.fallbacks - before.fallbacks

type tenant_stream = {
  s : int;
  tenant : string;
  pre : string array;
  ops : string array;
}

let tenant_streams () =
  Array.init streams (fun s ->
      let tenant, pre, ops = stream s in
      { s; tenant; pre; ops })

(* The order in which the streams' requests interleave: at each
   step a seeded pick among the streams with requests left. *)
let schedule seed (cs : tenant_stream array) =
  let r = H.rng (seed + 77) in
  let pos = Array.make (Array.length cs) 0 in
  let total = Array.fold_left (fun acc c -> acc + Array.length c.ops) 0 cs in
  Array.init total (fun _ ->
      let live =
        List.filter
          (fun j -> pos.(j) < Array.length cs.(j).ops)
          (List.init (Array.length cs) Fun.id)
      in
      let j = List.nth live (H.int r (List.length live)) in
      let i = pos.(j) in
      pos.(j) <- i + 1;
      (j, i))

let op srv line =
  let j = request srv line in
  (j, Json.to_string j)

(* Admit every stream's preload, round robin; returns how many
   responses disagreed with the reference. *)
let preload_server reference (cs : tenant_stream array) srv ~also =
  let bad = ref 0 in
  for i = 0 to preload - 1 do
    Array.iter
      (fun c ->
        let j = request srv c.pre.(i) in
        also c.pre.(i);
        match Reference.check reference (key c.s i) (answer j) with
        | H.Match -> ()
        | H.Mismatch _ -> incr bad)
      cs
  done;
  !bad

let write_reference path =
  let log =
    Filename.concat (Filename.get_temp_dir_name ()) "reference-wal.jsonl"
  in
  if Sys.file_exists log then Sys.remove log;
  let srv =
    match
      Service.Server.create ~params:(Reference.params server_params) ~log
        (base_items ())
    with
    | Ok srv -> srv
    | Error es -> failwith (String.concat "; " es)
  in
  let lines = ref [] in
  for s = 0 to streams - 1 do
    let _, pre, ops = stream s in
    Array.iteri
      (fun i line ->
        lines :=
          (key s i, Reference.answer_of (fun () -> answer (request srv line)))
          :: !lines)
      (Array.append pre ops)
  done;
  Service.Server.shutdown srv;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ log; log ^ ".tmp" ];
  Reference.write path (List.rev !lines)

(* Layer spans the replay covers a request with; spec.parse is left out
   because store.admit parses the fragment again itself. *)
let covering =
  [
    "protocol.parse"; "json.render"; "store.admit"; "store.revoke";
    "model.of_system"; "engine.create"; "engine.with_model";
    "engine.analyze_delta"; "engine.analyze"; "protocol.summarize";
    "protocol.respond"; "wal.append"; "wal.compact";
  ]

let run (ctx : Ctx.t) =
  let reference = Reference.load (Ctx.reference_file ctx "admit_churn") in
  let cs = tenant_streams () in
  let sched = schedule ctx.Ctx.seed cs in
  let preload_bad = ref 0 in
  let stamps =
    { events = []; derive_s = 0.; analysis_s = 0.; finalize_s = 0.; warm_admits = 0 }
  in
  let trace_sink ev = stamps.events <- (H.now (), ev) :: stamps.events in
  let tr = H.tracer () in
  (* Set-up: a server booted on the base platforms, then the preload. *)
  let setup_plain () =
    let s = start ~params:server_params ctx in
    preload_bad := !preload_bad + preload_server reference cs s.srv ~also:ignore;
    s
  in
  let setups = ref [] in
  let timed f =
    let t0 = H.now () in
    let v = f () in
    setups := (H.now () -. t0) :: !setups;
    v
  in
  stop (timed setup_plain);
  stop (timed setup_plain);
  let a = ref (timed setup_plain) in
  let counters = Rta.counters () in
  let gains = no_gain () in
  let traced_side () =
    let b = start ~params:server_params ~trace:trace_sink ctx in
    let sh = shadow ctx counters in
    preload_bad :=
      !preload_bad
      + preload_server reference cs b.srv ~also:(fun line ->
            match P.parse line with
            | Ok (req, _, Some tenant) -> ignore (replay tr sh ~seq:0 ~tenant req)
            | _ -> ());
    stamps.events <- [];
    (b, sh, snapshot b.srv counters)
  in
  let retire (b, sh, before) =
    add_gain gains ~before ~after:(snapshot b.srv counters);
    stop b;
    Wal.close sh.wal;
    remove_log sh.wal_path
  in
  let side = ref (if ctx.Ctx.trace then Some (traced_side ()) else None) in
  let plain = H.loop () and traced = H.loop () in
  let replay_diverged = ref 0 and cycles = ref 1 in
  let paused = ref 0. in
  let cursor = ref 0 in
  let deadline = ref (H.now () +. ctx.Ctx.seconds) in
  let start_t = H.now () in
  H.begin_pass plain;
  while H.now () < !deadline do
    if !cursor = Array.length sched then begin
      (* Every stream is exhausted: start a fresh cycle on fresh servers,
         outside the measured time. *)
      let t0 = H.now () in
      stop !a;
      a := timed setup_plain;
      Option.iter
        (fun t ->
          retire t;
          side := Some (traced_side ()))
        !side;
      cursor := 0;
      incr cycles;
      let dt = H.now () -. t0 in
      paused := !paused +. dt;
      deadline := !deadline +. dt;
      H.begin_pass plain
    end;
    let j, i = sched.(!cursor) in
    let c = cs.(j) in
    let line = c.ops.(i) in
    let k = key c.s (preload + i) in
    let check (resp, _) = Reference.check reference k (answer resp) in
    let untraced () = H.run_op plain ~op:(fun () -> op !a.srv line) ~check in
    (match !side with
    | None -> untraced ()
    | Some (b, sh, _) ->
        let traced () =
          tr.H.enabled <- true;
          tr.H.op <- !cursor;
          stamps.events <- [];
          let t0 = H.now () in
          let t1 = ref t0 in
          let req = ref None and status = ref None in
          H.run_op traced
            ~op:(fun () ->
              let env =
                H.span tr "protocol.parse" (fun () -> envelope line)
              in
              req := Some env;
              let resp =
                H.span tr "service.process_batch" (fun () ->
                    match Service.Server.process_batch b.srv [ env ] with
                    | [ j ] -> j
                    | _ -> failwith "process_batch: expected one response")
              in
              t1 := H.now ();
              status := Json.string_field "status" resp;
              (resp, H.span tr "json.render" (fun () -> Json.to_string resp)))
            ~check;
          (match !req with
          | Some { P.req = P.Admit _; _ } -> split_admit stamps ~t0 ~t1:!t1
          | _ -> ());
          (match !req with
          | Some env ->
              let replayed =
                H.span tr "replay" (fun () ->
                    replay tr sh ~seq:env.P.seq ~tenant:c.tenant env.P.req)
              in
              if Some replayed <> !status then incr replay_diverged
          | None -> incr replay_diverged);
          tr.H.enabled <- false
        in
        if !cursor mod 2 = 0 then (untraced (); traced ())
        else (traced (); untraced ()));
    incr cursor;
    if !cursor = Array.length sched then H.end_pass plain
  done;
  let wall_s = H.now () -. start_t -. !paused in
  stop !a;
  Option.iter retire !side;
  let notes =
    [
      Printf.sprintf "streams %s, %d cycle(s)"
        (String.concat " " (Array.to_list (Array.map (fun c -> c.tenant) cs)))
        !cycles;
    ]
  in
  if not ctx.Ctx.trace then
    Ctx.finish_plain ctx plain ~wall_s ~setups:!setups ~notes ~unsound:!preload_bad
  else begin
    let g = gains in
    let ms = H.mean_ms tr in
    let request_ms = List.fold_left ( +. ) 0. traced.H.latencies in
    let covered =
      List.fold_left (fun acc n -> acc +. fst (H.layer tr n)) 0. covering
    in
    let per_request n = H.ratio n (snd (H.layer tr "replay")) in
    let layers =
      [
        H.metric "protocol.parse_ms" "ms" (ms "protocol.parse");
        H.metric "spec.parse_ms" "ms" (ms "spec.parse");
        H.metric "store.admit_ms" "ms" (ms "store.admit");
        H.metric "store.revoke_ms" "ms" (ms "store.revoke");
        H.metric "model.of_system_ms" "ms" (ms "model.of_system");
        H.metric "engine.create_ms" "ms" (ms "engine.create");
        H.metric "engine.analyze_ms" "ms" (ms "engine.analyze");
        H.metric "engine.with_model_ms" "ms" (ms "engine.with_model");
        H.metric "engine.analyze_delta_ms" "ms" (ms "engine.analyze_delta");
        H.metric "protocol.summarize_ms" "ms" (ms "protocol.summarize");
        H.metric "json.render_ms" "ms" (ms "json.render");
        H.metric "wal.append_ms" "ms" (ms "wal.append");
        H.metric "wal.compact_ms" "ms" (ms "wal.compact");
        H.metric "delta.warm_ratio" "ratio"
          (H.ratio g.delta_warm (g.delta_warm + g.delta_cold));
        H.metric "delta.dirty_frac" "ratio" (H.ratio g.dirty (g.dirty + g.carried));
        H.metric "ir.warm_ratio" "ratio" (H.ratio g.ir_warm g.rebound);
        H.metric "tenant.cache_hit_ratio" "ratio"
          (H.ratio g.cache_hits (g.cache_hits + g.cache_misses));
        H.metric "service.unattributed_frac" "ratio"
          (if request_ms > 0. then 1. -. (covered /. request_ms) else 0.);
        H.metric "rta.scenarios_total" "count" (per_request g.scenarios);
        H.metric "rta.scenarios_visited" "count" (per_request g.visited);
        H.metric "rta.visited_ratio" "ratio" (H.ratio g.visited g.scenarios);
        H.metric "rta.bound_evals" "count" (per_request g.bound_evals);
        H.metric "rta.kernel_fallbacks" "count" (float_of_int g.fallbacks);
      ]
    in
    let w = float_of_int (max 1 stamps.warm_admits) in
    let total = stamps.derive_s +. stamps.analysis_s +. stamps.finalize_s in
    let pct x = if total > 0. then 100. *. x /. total else 0. in
    let notes =
      Printf.sprintf
        "warm admit from sink stamps (%d admits, %.3f ms each): derivation \
         %.1f%%, analysis %.1f%%, finalisation and WAL %.1f%%"
        stamps.warm_admits (1000. *. total /. w) (pct stamps.derive_s)
        (pct stamps.analysis_s) (pct stamps.finalize_s)
      :: Printf.sprintf "replay diverged from the server on %d requests"
           !replay_diverged
      :: notes
    in
    Ctx.finish_traced ctx ~plain ~traced ~tracer:tr ~layers ~notes
      ~unsound:!preload_bad
  end
