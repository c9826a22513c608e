(* The admission-control service:

   1. Transactionality: admit -> revoke -> admit is idempotent (same
      snapshot hash), and a rejected admission leaves the store
      physically untouched.
   2. Deadline shedding: an already-expired request is shed, not
      processed.
   3. Scripted sessions: every [query] of a >= 50-request mixed session
      returns bounds bit-identical to a fresh one-shot analysis of the
      system admitted at that point — for every worker count.
   4. Overload: beyond max_batch, what_if probes are shed first.
   5. qcheck: interleaved what_if probes (valid or not) never mutate
      the store.
   6. Tenancy: per-tenant stores are isolated, default-tenant traffic
      keeps the pre-tenant wire bytes, stats reports the shard map.
   7. Sharding: a scripted multi-tenant session is bit-identical at
      every shard count.
   8. Durability: restarts replay the write-ahead log to the exact
      recorded hashes, tampered logs are refused, compaction keeps
      replay exact; qcheck kills a random session at a random commit
      boundary and checks the restart against the uninterrupted run.
   9. qcheck: Json print-then-parse is the identity. *)

module Q = Rational
module Store = Service.Store
module P = Service.Protocol
module Server = Service.Server
module Json = Service.Json

let base_src =
  String.concat "\n"
    [
      "platform P1 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P2 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P3 { alpha = 0.2; delta = 2; beta = 1; host = \"n\"; }";
    ]

let base_items =
  match Spec.Parser.parse base_src with
  | Ok items -> items
  | Error e -> Alcotest.failf "base parse: %s" e

(* One periodic task on platform [1 + i mod 3]; period/priority vary so
   admitted units coexist, [wcet] picks the demand. *)
let unit_spec ?(wcet = "0.2") i =
  Printf.sprintf
    "component U%d { implementation: scheduler fixed_priority; thread T \
     periodic(period = %d, deadline = %d) priority %d { task work(wcet = %s, \
     bcet = 0.1); } } instance I%d : U%d on P%d;"
    i (30 + i) (30 + i) (i + 1) wcet i i ((i mod 3) + 1)

let params =
  { Analysis.Params.default with Analysis.Params.keep_history = false }

let mk_server ?(workers = 1) ?shards ?max_batch ?now ?log ?wal_compact () =
  match
    Server.create ~workers ?shards ~params ?max_batch ?now ?log ?wal_compact
      base_items
  with
  | Ok s -> s
  | Error es -> Alcotest.failf "server boot: %s" (String.concat "; " es)

let with_server ?workers ?shards ?max_batch ?now ?log ?wal_compact f =
  let srv = mk_server ?workers ?shards ?max_batch ?now ?log ?wal_compact () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

let str_field name j =
  match Json.string_field name j with
  | Some s -> s
  | None -> Alcotest.failf "missing %S in %s" name (Json.to_string j)

let status = str_field "status"

(* --- transactionality --- *)

let test_admit_revoke_admit () =
  with_server @@ fun srv ->
  let admit i =
    Server.handle srv (P.Admit { uid = Printf.sprintf "u%d" i; spec = unit_spec i })
  in
  Alcotest.(check string) "first admit" "admitted" (status (admit 1));
  let h1 = (Server.store srv).Store.hash in
  Alcotest.(check string) "revoke" "revoked"
    (status (Server.handle srv (P.Revoke { uid = "u1" })));
  Alcotest.(check string) "re-admit" "admitted" (status (admit 1));
  Alcotest.(check string) "idempotent hash" h1 (Server.store srv).Store.hash;
  (* duplicate id is rejected without touching the store *)
  let before = Server.store srv in
  Alcotest.(check string) "duplicate rejected" "rejected" (status (admit 1));
  Alcotest.(check bool) "store untouched" true (Server.store srv == before)

let test_rollback_on_reject () =
  with_server @@ fun srv ->
  Alcotest.(check string) "seed unit" "admitted"
    (status (Server.handle srv (P.Admit { uid = "ok"; spec = unit_spec 1 })));
  let before = Server.store srv in
  (* P3 offers alpha = 0.2: a 100-cycle demand every 30 can never fit *)
  let resp =
    Server.handle srv
      (P.Admit { uid = "huge"; spec = unit_spec ~wcet:"100" 2 })
  in
  Alcotest.(check string) "verdict" "rejected" (status resp);
  Alcotest.(check string) "reason" "unschedulable" (str_field "reason" resp);
  (* rollback is by construction: the committed snapshot is the very
     value from before the attempt, not a reconstruction *)
  Alcotest.(check bool) "store physically identical" true
    (Server.store srv == before);
  Alcotest.(check bool) "candidate not left admitted" false
    (Store.mem (Server.store srv) "huge");
  (* the rejection report names the candidate's transaction *)
  match Json.member "violations" resp with
  | Some (Json.List (_ :: _ as vs)) ->
      let from_candidate =
        List.exists
          (fun v -> Json.member "from_candidate" v = Some (Json.Bool true))
          vs
      in
      Alcotest.(check bool) "violation attributed to candidate" true
        from_candidate
  | _ -> Alcotest.fail "rejection carries no violations"

(* --- deadline shedding --- *)

let test_deadline_shedding () =
  with_server @@ fun srv ->
  let before = Server.store srv in
  (* deadline_ms = 0 expires at arrival, deterministically *)
  let resp = Server.handle srv ~deadline_ms:0. (P.Admit { uid = "u"; spec = unit_spec 1 }) in
  Alcotest.(check string) "shed" "shed" (status resp);
  Alcotest.(check string) "reason" "deadline" (str_field "reason" resp);
  Alcotest.(check bool) "store untouched" true (Server.store srv == before);
  Alcotest.(check int) "metrics counted it" 1
    (Server.metrics srv).Service.Metrics.shed_deadline;
  (* without a deadline the same request commits *)
  Alcotest.(check string) "then admitted" "admitted"
    (status (Server.handle srv (P.Admit { uid = "u"; spec = unit_spec 1 })))

(* --- overload shedding --- *)

let test_overload_sheds_probes_first () =
  with_server ~max_batch:2 @@ fun srv ->
  let env seq req = { P.seq; arrival = Unix.gettimeofday (); deadline_ms = None; tenant = None; req } in
  let batch =
    [
      env 1 (P.Admit { uid = "a"; spec = unit_spec 1 });
      env 2 (P.What_if { uid = "p"; spec = unit_spec 2 });
      env 3 P.Query;
      env 4 (P.What_if { uid = "q"; spec = unit_spec 3 });
      env 5 P.Stats;
    ]
  in
  match List.map status (Server.process_batch srv batch) with
  | [ a; p1; q; p2; s ] ->
      (* 5 requests over a budget of 2: both probes and the query go,
         newest probes first; the admit and the stats survive *)
      Alcotest.(check string) "admit survives" "admitted" a;
      Alcotest.(check string) "probe shed" "shed" p1;
      Alcotest.(check string) "query shed" "shed" q;
      Alcotest.(check string) "probe shed" "shed" p2;
      Alcotest.(check string) "stats survives" "ok" s
  | _ -> Alcotest.fail "wrong response count"

(* --- scripted mixed session: queries match one-shot analysis --- *)

let fresh_bounds store =
  let model = Analysis.Model.of_system store.Store.sys in
  let report = Analysis.Engine.analyze (Analysis.Engine.create ~params model) in
  let summary = P.summarize ~store ~model report in
  List.map
    (fun (b : P.task_bound) ->
      (b.P.txn, b.P.task, P.bound_to_string b.P.response))
    summary.P.s_bounds

let query_bounds resp =
  match Json.member "bounds" resp with
  | Some (Json.List bs) ->
      List.map
        (fun b ->
          ( str_field "transaction" b,
            str_field "task" b,
            str_field "response" b ))
        bs
  | _ -> Alcotest.failf "no bounds in %s" (Json.to_string resp)

let mixed_session workers =
  with_server ~workers @@ fun srv ->
  let bounds_checked = ref 0 and sent = ref 0 in
  let send req =
    incr sent;
    Server.handle srv req
  in
  for i = 1 to 16 do
    let uid = Printf.sprintf "u%d" i in
    ignore (send (P.What_if { uid; spec = unit_spec i }));
    ignore (send (P.Admit { uid; spec = unit_spec i }));
    let q = send P.Query in
    Alcotest.(check (list (triple string string string)))
      (Printf.sprintf "query after admit %d" i)
      (fresh_bounds (Server.store srv))
      (query_bounds q);
    incr bounds_checked;
    if i mod 3 = 0 then begin
      ignore (send (P.Revoke { uid }));
      let q = send P.Query in
      Alcotest.(check (list (triple string string string)))
        (Printf.sprintf "query after revoke %d" i)
        (fresh_bounds (Server.store srv))
        (query_bounds q);
      incr bounds_checked
    end
  done;
  ignore (send P.Stats);
  Alcotest.(check bool)
    (Printf.sprintf "session long enough (%d sent)" !sent)
    true (!sent >= 50);
  Alcotest.(check bool) "several queries compared" true (!bounds_checked >= 16)

let test_mixed_session_seq () = mixed_session 1

let test_mixed_session_par () = mixed_session 4

(* --- stats: integer-kernel telemetry --- *)

let int_field name j =
  match Json.int_field name j with
  | Some n -> n
  | None -> Alcotest.failf "missing %S in %s" name (Json.to_string j)

(* A stats response keeps its deterministic counters under "state" and
   the timing-dependent ones under "telemetry". *)
let section name j =
  match Json.member name j with
  | Some (Json.Obj _ as o) -> o
  | _ -> Alcotest.failf "missing object %S in %s" name (Json.to_string j)

let test_stats_kernel_fields () =
  with_server ~workers:2 @@ fun srv ->
  (* Before any analysis ran, no worker session exists yet. *)
  let s0 = Server.handle srv P.Stats in
  Alcotest.(check int) "no sessions yet" 0 (int_field "kernel_sessions" (section "telemetry" s0));
  Alcotest.(check int) "no fallbacks yet" 0 (int_field "fallback_count" (section "telemetry" s0));
  ignore (Server.handle srv (P.Admit { uid = "a"; spec = unit_spec 1 }));
  ignore (Server.handle srv P.Query);
  let s1 = Server.handle srv P.Stats in
  (* The base model's constants are small decimals, so the admitted
     system fits the integer timeline and the analyzing session reports
     an engaged kernel with no overflow fallback. *)
  Alcotest.(check bool)
    "kernel engaged" true
    (int_field "kernel_sessions" (section "telemetry" s1) >= 1);
  Alcotest.(check int) "no fallbacks" 0 (int_field "fallback_count" (section "telemetry" s1))

(* --- qcheck: what_if probes never mutate the store --- *)

let probe_gen =
  QCheck.Gen.(
    oneof
      [
        (* valid same-shape probe, varying demand *)
        map (fun i -> unit_spec ~wcet:(Printf.sprintf "0.%d" (1 + (i mod 8))) (i mod 5)) (int_bound 1000);
        (* unparseable fragment *)
        return "component {";
        (* parses but does not elaborate: unknown platform *)
        return
          "component V { implementation: scheduler fixed_priority; thread T \
           periodic(period = 10, deadline = 10) priority 1 { task w(wcet = 1, \
           bcet = 1); } } instance VI : V on NoSuchPlatform;";
      ])

let probes_arbitrary =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 20) probe_gen)
    ~print:(fun specs -> String.concat "\n---\n" specs)

let prop_what_if_pure specs =
  with_server ~workers:4 @@ fun srv ->
  (* a real admitted system underneath, so probes analyze something *)
  ignore (Server.handle srv (P.Admit { uid = "seed"; spec = unit_spec 1 }));
  let before = Server.store srv in
  let envs =
    List.mapi
      (fun i spec ->
        {
          P.seq = i + 2;
          arrival = Unix.gettimeofday ();
          deadline_ms = None;
          tenant = None;
          req = P.What_if { uid = Printf.sprintf "p%d" (i mod 3); spec };
        })
      specs
  in
  let resps = Server.process_batch srv envs in
  List.length resps = List.length specs
  && Server.store srv == before
  && (Server.store srv).Store.hash = before.Store.hash

let test_what_if_pure =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interleaved what_if probes never mutate the store"
       ~count:60 probes_arbitrary prop_what_if_pure)

(* --- store unit API --- *)

let test_store_candidates () =
  let store =
    match Store.boot base_items with
    | Ok s -> s
    | Error es -> Alcotest.failf "boot: %s" (String.concat "; " es)
  in
  let cand =
    match Store.admit store ~uid:"u" ~spec:(unit_spec 1) with
    | Ok c -> c
    | Error es -> Alcotest.failf "admit: %s" (String.concat "; " es)
  in
  Alcotest.(check bool) "candidate admits" true (Store.mem cand "u");
  Alcotest.(check bool) "original unaffected" false (Store.mem store "u");
  Alcotest.(check bool) "hashes differ" true (store.Store.hash <> cand.Store.hash);
  Alcotest.(check (list string)) "candidate instances" [ "I1" ]
    (Store.unit_instances cand "u");
  (* the hash is content-based: re-admitting the same fragment under the
     same id from scratch reproduces it *)
  (match Store.admit store ~uid:"u" ~spec:(unit_spec 1) with
  | Ok c2 -> Alcotest.(check string) "content hash" cand.Store.hash c2.Store.hash
  | Error _ -> Alcotest.fail "re-admit failed");
  match Store.revoke cand ~uid:"u" with
  | Ok back -> Alcotest.(check string) "revoke returns" store.Store.hash back.Store.hash
  | Error es -> Alcotest.failf "revoke: %s" (String.concat "; " es)

(* --- snapshot diffs --- *)

let boot_store () =
  match Store.boot base_items with
  | Ok s -> s
  | Error es -> Alcotest.failf "boot: %s" (String.concat "; " es)

let admit_exn store i =
  match Store.admit store ~uid:(Printf.sprintf "u%d" i) ~spec:(unit_spec i) with
  | Ok s -> s
  | Error es -> Alcotest.failf "admit u%d: %s" i (String.concat "; " es)

let test_diff_identity () =
  let s = admit_exn (admit_exn (boot_store ()) 1) 2 in
  let d = Store.diff s s in
  Alcotest.(check (list string)) "nothing added" [] d.Store.added;
  Alcotest.(check (list string)) "nothing removed" [] d.Store.removed;
  Alcotest.(check (list string)) "nothing changed" [] d.Store.changed;
  Alcotest.(check int) "everything unchanged" (Store.n_transactions s)
    (List.length d.Store.unchanged)

let test_diff_round_trip () =
  let s1 = admit_exn (boot_store ()) 1 in
  let s2 = admit_exn s1 2 in
  let d12 = Store.diff s1 s2 in
  (* the admit surfaces as exactly the unit's transactions *)
  Alcotest.(check (list string)) "removed" [] d12.Store.removed;
  Alcotest.(check (list string)) "changed" [] d12.Store.changed;
  (match d12.Store.added with
  | [ name ] ->
      Alcotest.(check (option string))
        "attributed to the admitted instance" (Some "I2")
        (Store.origin s2 name)
  | names -> Alcotest.failf "added %d transactions" (List.length names));
  (* revoking restores the snapshot hash, and the diff against the
     original is exact: empty added/removed/changed *)
  let s3 =
    match Store.revoke s2 ~uid:"u2" with
    | Ok s -> s
    | Error es -> Alcotest.failf "revoke: %s" (String.concat "; " es)
  in
  Alcotest.(check string) "hash restored" s1.Store.hash s3.Store.hash;
  let d13 = Store.diff s1 s3 in
  Alcotest.(check (list string)) "round trip adds nothing" [] d13.Store.added;
  Alcotest.(check (list string)) "removes nothing" [] d13.Store.removed;
  Alcotest.(check (list string)) "changes nothing" [] d13.Store.changed;
  Alcotest.(check int) "everything carried" (Store.n_transactions s1)
    (List.length d13.Store.unchanged);
  (* the reverse diff sees the same admission as a removal *)
  let d21 = Store.diff s2 s1 in
  Alcotest.(check int) "one removed" 1 (List.length d21.Store.removed);
  Alcotest.(check (list string)) "nothing added back" [] d21.Store.added

let test_diff_dirties_only_intersection () =
  (* units 1 and 3 sit on P2 and P1; unit 2 lands alone on P3, so the
     one-transaction diff must dirty exactly the admitted task and
     carry the other two platforms' converged rows *)
  let s1 = admit_exn (admit_exn (boot_store ()) 1) 3 in
  let s2 = admit_exn s1 2 in
  let d = Store.diff s1 s2 in
  Alcotest.(check int) "one added" 1 (List.length d.Store.added);
  Alcotest.(check int) "rest unchanged" 2 (List.length d.Store.unchanged);
  let prev_model = Analysis.Model.of_system s1.Store.sys in
  let model = Analysis.Model.of_system s2.Store.sys in
  let prev_report =
    Analysis.Engine.analyze (Analysis.Engine.create ~params prev_model)
  in
  let e = Analysis.Engine.create ~params model in
  match Analysis.Engine.Delta.plan e ~prev_model ~prev_report with
  | Error r -> Alcotest.failf "expected a warm plan, got %s" r
  | Ok p ->
      Alcotest.(check int) "total" 3 (Analysis.Engine.Delta.total_tasks p);
      Alcotest.(check int) "dirty only the admitted task" 1
        (Analysis.Engine.Delta.dirty_tasks p)

let test_delta_metrics () =
  with_server @@ fun srv ->
  ignore (Server.handle srv (P.Admit { uid = "u1"; spec = unit_spec 1 }));
  ignore (Server.handle srv (P.Admit { uid = "u2"; spec = unit_spec 2 }));
  let m = Server.metrics srv in
  (* the first admission is necessarily cold (no baseline); the second
     analyzes warm against it and carries the first unit's task *)
  Alcotest.(check bool) "warm deltas observed" true
    (m.Service.Metrics.delta_warm >= 1);
  Alcotest.(check bool) "tasks carried" true
    (m.Service.Metrics.delta_carried_tasks >= 1)

(* --- json: print-then-parse is the identity --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_json_escapes () =
  let s = "a\"b\\c\nd\re\tf\x01g" in
  let printed = Json.to_string (Json.String s) in
  Alcotest.(check string)
    "escaped form" "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"" printed;
  match Json.parse printed with
  | Ok (Json.String s') -> Alcotest.(check string) "round trip" s s'
  | _ -> Alcotest.fail "escaped string does not parse back"

let json_gen =
  let open QCheck.Gen in
  (* arbitrary bytes: the printer \u-escapes control characters and the
     parser folds them back to the same bytes *)
  let any_string =
    string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12)
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map
          (fun i -> Json.Int i)
          (oneof [ small_signed_int; oneofl [ 0; 1; -1; max_int; min_int ] ]);
        (* a dyadic grid: %.12g prints these exactly, and integer-valued
           floats keep their ".0" so they parse back as floats *)
        map (fun k -> Json.Float (float_of_int k /. 8.)) (int_range (-8000) 8000);
        map (fun f -> Json.Float f) (oneofl [ 1e15; -1e15; 0.5; 1.5e300 ]);
        map (fun s -> Json.String s) any_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun vs -> Json.List vs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun fs -> Json.Obj fs)
                   (list_size (int_bound 4) (pair any_string (self (n / 2)))) );
             ])

let json_arbitrary = QCheck.make json_gen ~print:Json.to_string

let prop_json_round_trip v =
  match Json.parse (Json.to_string v) with Ok v' -> v' = v | Error _ -> false

let test_json_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"print-then-parse is the identity" ~count:500
       json_arbitrary prop_json_round_trip)

(* --- tenancy --- *)

let tenant_hash srv id =
  match Server.tenant_store srv id with
  | Some s -> s.Store.hash
  | None -> Alcotest.failf "tenant %S has no store" id

let test_tenant_isolation () =
  with_server @@ fun srv ->
  let boot = (Server.store srv).Store.hash in
  let r1 =
    Server.handle srv ~tenant:"acme" (P.Admit { uid = "u"; spec = unit_spec 1 })
  in
  let r2 =
    Server.handle srv ~tenant:"globex"
      (P.Admit { uid = "u"; spec = unit_spec 2 })
  in
  (* the same uid lives independently under each tenant *)
  Alcotest.(check string) "acme admitted" "admitted" (status r1);
  Alcotest.(check string) "globex admitted" "admitted" (status r2);
  Alcotest.(check string) "acme echoed" "acme" (str_field "tenant" r1);
  Alcotest.(check string) "globex echoed" "globex" (str_field "tenant" r2);
  Alcotest.(check bool) "stores differ" true
    (tenant_hash srv "acme" <> tenant_hash srv "globex");
  (* the default tenant is untouched, and its responses carry no tenant
     field — the pre-tenant protocol byte for byte *)
  Alcotest.(check string) "default untouched" boot (Server.store srv).Store.hash;
  let q = Server.handle srv P.Query in
  Alcotest.(check bool) "no tenant field" true (Json.member "tenant" q = None);
  (* revoking under one tenant leaves the other's unit admitted *)
  Alcotest.(check string) "acme revoke" "revoked"
    (status (Server.handle srv ~tenant:"acme" (P.Revoke { uid = "u" })));
  Alcotest.(check string) "acme back to boot" boot (tenant_hash srv "acme");
  Alcotest.(check bool) "globex keeps its unit" true
    (Store.mem (Option.get (Server.tenant_store srv "globex")) "u")

let test_stats_shard_map () =
  with_server ~shards:2 @@ fun srv ->
  ignore
    (Server.handle srv ~tenant:"acme" (P.Admit { uid = "u"; spec = unit_spec 1 }));
  ignore
    (Server.handle srv ~tenant:"globex"
       (P.Admit { uid = "u"; spec = unit_spec 2 }));
  let s = Server.handle srv P.Stats in
  Alcotest.(check int) "workers summed across shards" 2 (int_field "workers" (section "state" s));
  (match Json.member "shards" s with
  | Some (Json.List l) -> Alcotest.(check int) "per-shard records" 2 (List.length l)
  | _ -> Alcotest.fail "stats lacks the shards array");
  match Json.member "shard_map" s with
  | None -> Alcotest.fail "stats lacks the shard map"
  | Some m -> (
      Alcotest.(check int) "shard count" 2 (int_field "shards" m);
      match Json.member "tenants" m with
      | Some (Json.Obj fields) ->
          Alcotest.(check (list string))
            "tenants mapped, sorted"
            [ ""; "acme"; "globex" ]
            (List.map fst fields);
          List.iter
            (fun (tid, v) ->
              match v with
              | Json.Int sh ->
                  Alcotest.(check bool)
                    (Printf.sprintf "tenant %S in range" tid)
                    true (sh >= 0 && sh < 2)
              | _ -> Alcotest.failf "tenant %S maps to a non-integer" tid)
            fields
      | _ -> Alcotest.fail "shard map lacks tenants")

(* --- sharding: bit-identical responses at every shard count --- *)

let scripted_envelopes () =
  let tenants =
    [ None; Some "acme"; Some "globex"; Some "initech"; Some "umbrella" ]
  in
  let ops =
    List.concat_map
      (fun round ->
        List.concat
          (List.mapi
             (fun ti tenant ->
               match round with
               | 0 -> [ (tenant, P.Admit { uid = "a"; spec = unit_spec (ti + 1) }) ]
               | 1 ->
                   [
                     (tenant, P.Query);
                     (tenant, P.What_if { uid = "p"; spec = unit_spec (ti + 2) });
                   ]
               | 2 -> [ (tenant, P.Admit { uid = "b"; spec = unit_spec (ti + 3) }) ]
               | _ -> [ (tenant, P.Revoke { uid = "a" }); (tenant, P.Query) ])
             tenants))
      [ 0; 1; 2; 3 ]
  in
  List.mapi
    (fun i (tenant, req) ->
      { P.seq = i + 1; arrival = 0.; deadline_ms = None; tenant; req })
    ops

let run_envs srv envs =
  (* one envelope per batch keeps shedding out of the picture *)
  List.concat_map
    (fun e -> List.map Json.to_string (Server.process_batch srv [ e ]))
    envs

let test_shard_identity () =
  let envs = scripted_envelopes () in
  let base = with_server @@ fun srv -> run_envs srv envs in
  List.iter
    (fun shards ->
      let got = with_server ~shards @@ fun srv -> run_envs srv envs in
      Alcotest.(check (list string))
        (Printf.sprintf "%d shards" shards)
        base got)
    [ 2; 4 ];
  (* the whole script as one fleet-partitioned batch is identical too *)
  let batched =
    with_server ~shards:2 @@ fun srv ->
    List.map Json.to_string (Server.process_batch srv envs)
  in
  Alcotest.(check (list string)) "one batch, 2 shards" base batched

(* --- durability: the write-ahead log --- *)

let with_wal f =
  let path = Filename.temp_file "hsched_wal" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_wal_restart () =
  with_wal @@ fun log ->
  let finals =
    with_server ~log @@ fun srv ->
    ignore (Server.handle srv (P.Admit { uid = "d1"; spec = unit_spec 1 }));
    ignore
      (Server.handle srv ~tenant:"acme"
         (P.Admit { uid = "a1"; spec = unit_spec 2 }));
    ignore
      (Server.handle srv ~tenant:"acme"
         (P.Admit { uid = "a2"; spec = unit_spec 3 }));
    ignore (Server.handle srv ~tenant:"acme" (P.Revoke { uid = "a1" }));
    (* a rejected admission must not reach the log *)
    Alcotest.(check string) "rejected" "rejected"
      (status
         (Server.handle srv (P.Admit { uid = "no"; spec = unit_spec ~wcet:"100" 4 })));
    ((Server.store srv).Store.hash, tenant_hash srv "acme")
  in
  (* restart — at a different shard count: replay is placement-independent *)
  with_server ~shards:2 ~log @@ fun srv ->
  Alcotest.(check string) "default replayed" (fst finals)
    (Server.store srv).Store.hash;
  Alcotest.(check string) "acme replayed" (snd finals) (tenant_hash srv "acme");
  (* the replayed server serves queries against the replayed stores *)
  let q = Server.handle srv ~tenant:"acme" P.Query in
  Alcotest.(check (list (triple string string string)))
    "bounds match one-shot"
    (fresh_bounds (Option.get (Server.tenant_store srv "acme")))
    (query_bounds q)

let test_wal_tamper () =
  with_wal @@ fun log ->
  (with_server ~log @@ fun srv ->
   ignore (Server.handle srv (P.Admit { uid = "u"; spec = unit_spec 1 })));
  (* flip the recorded hash: replay must refuse to serve *)
  let lines = In_channel.with_open_text log In_channel.input_lines in
  let patched =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok (Json.Obj fields)
          when List.assoc_opt "rec" fields = Some (Json.String "admit") ->
            Json.to_string
              (Json.Obj
                 (List.map
                    (fun (k, v) ->
                      if k = "hash" then (k, Json.String (String.make 32 '0'))
                      else (k, v))
                    fields))
        | _ -> line)
      lines
  in
  Out_channel.with_open_text log (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        patched);
  match Server.create ~workers:1 ~params ~log base_items with
  | Ok srv ->
      Server.shutdown srv;
      Alcotest.fail "tampered log accepted"
  | Error es ->
      Alcotest.(check bool) "reports the divergence" true
        (List.exists (fun e -> contains e "wal replay diverged") es)

let test_wal_compaction () =
  with_wal @@ fun log ->
  let finals =
    with_server ~log ~wal_compact:4 @@ fun srv ->
    for i = 1 to 6 do
      let tenant = if i mod 2 = 0 then Some "acme" else None in
      ignore
        (Server.handle srv ?tenant
           (P.Admit { uid = Printf.sprintf "u%d" i; spec = unit_spec i }))
    done;
    ((Server.store srv).Store.hash, tenant_hash srv "acme")
  in
  (* 6 admissions over a threshold of 4: the log was compacted into one
     snapshot per tenant plus the post-compaction mutation tail *)
  let lines = In_channel.with_open_text log In_channel.input_lines in
  let count tag = List.length (List.filter (fun l -> contains l tag) lines) in
  Alcotest.(check int) "snapshot per tenant" 2 (count "\"rec\":\"snapshot\"");
  Alcotest.(check bool) "mutation tail bounded" true
    (count "\"rec\":\"admit\"" <= 2);
  (* replay from the compacted log reaches the same hashes *)
  with_server ~log @@ fun srv ->
  Alcotest.(check string) "default" (fst finals) (Server.store srv).Store.hash;
  Alcotest.(check string) "acme" (snd finals) (tenant_hash srv "acme")

(* A crash between writing the snapshot temp file and the atomic rename
   must leave the original log untouched and fully replayable.  The
   injected fault raises exactly in that window. *)
let test_wal_compact_crash () =
  with_wal @@ fun log ->
  let module Wal = Service.Wal in
  let boot = boot_store () in
  let admit store ~uid i =
    match Store.admit store ~uid ~spec:(unit_spec i) with
    | Ok c -> c
    | Error es -> Alcotest.failf "admit: %s" (String.concat "; " es)
  in
  let wal, existing =
    match Wal.open_ ~path:log with
    | Ok r -> r
    | Error es -> Alcotest.failf "open: %s" (String.concat "; " es)
  in
  Alcotest.(check int) "fresh log" 0 (List.length existing);
  (* genuine store transitions so the recorded hashes replay for real *)
  let a1 = admit boot ~uid:"a1" 1 in
  let a2 = admit a1 ~uid:"a2" 2 in
  let b1 = admit boot ~uid:"b1" 3 in
  Wal.append wal
    (Wal.Admit { tenant = "acme"; uid = "a1"; spec = unit_spec 1; hash = a1.Store.hash });
  Wal.append wal
    (Wal.Admit { tenant = "acme"; uid = "a2"; spec = unit_spec 2; hash = a2.Store.hash });
  Wal.append wal
    (Wal.Admit { tenant = "bulk"; uid = "b1"; spec = unit_spec 3; hash = b1.Store.hash });
  Alcotest.(check int) "three mutations" 3 (Wal.mutations wal);
  let tenants = [ ("acme", a2); ("bulk", b1) ] in
  (* crash in the window: temp file written, rename never happens *)
  Alcotest.check_raises "injected crash fires" Wal.Injected_crash (fun () ->
      ignore (Wal.compact ~fault:`Crash_before_rename wal ~tenants));
  Alcotest.(check bool) "temp file left behind" true
    (Sys.file_exists (log ^ ".tmp"));
  (* the original log is intact: loads and replays to the recorded hashes *)
  let replayed records =
    match Wal.replay ~boot records with
    | Ok ts -> ts
    | Error es -> Alcotest.failf "replay: %s" (String.concat "; " es)
  in
  let check_tenants what ts =
    Alcotest.(check (list (pair string string)))
      what
      [ ("acme", a2.Store.hash); ("bulk", b1.Store.hash) ]
      (List.map (fun (id, (s : Store.t)) -> (id, s.Store.hash)) ts)
  in
  (match Wal.open_ ~path:log with
  | Error es -> Alcotest.failf "reopen after crash: %s" (String.concat "; " es)
  | Ok (wal2, records) ->
      Alcotest.(check int) "mutations survive the crash" 3 (List.length records);
      check_tenants "replay after crash" (replayed records);
      Wal.close wal2);
  (* the crashed Wal.t is still usable: a real compact then succeeds *)
  Alcotest.(check int) "compact writes both snapshots" 2
    (Wal.compact wal ~tenants);
  Alcotest.(check int) "mutations reset" 0 (Wal.mutations wal);
  Wal.close wal;
  Alcotest.(check bool) "temp file consumed by rename" false
    (Sys.file_exists (log ^ ".tmp"));
  match Wal.open_ ~path:log with
  | Error es -> Alcotest.failf "reopen after compact: %s" (String.concat "; " es)
  | Ok (wal3, records) ->
      check_tenants "replay from snapshots" (replayed records);
      Wal.close wal3

(* --- qcheck: kill at a commit boundary, restart, compare --- *)

let boot_hash = lazy (boot_store ()).Store.hash

let tenant_hashes srv =
  List.map
    (fun id ->
      match Server.tenant_store srv id with
      | Some s -> s.Store.hash
      | None -> Lazy.force boot_hash)
    [ ""; "a"; "b" ]

(* The [cached] flag is the one legitimate difference after a restart:
   the log restores committed state, not cache warmth. *)
let strip_cached line =
  match Json.parse line with
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields))
  | _ -> line

type crash_op = { t_ix : int; kind : int }

let crash_arbitrary =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 4 14)
           (map2 (fun t_ix kind -> { t_ix; kind }) (int_bound 2) (int_bound 5)))
        (int_bound 100))
    ~print:(fun (ops, cut) ->
      Printf.sprintf "cut=%d%% ops=[%s]" cut
        (String.concat ";"
           (List.map (fun o -> Printf.sprintf "%d/%d" o.t_ix o.kind) ops)))

(* Materialize ops into envelopes deterministically: admits use a fresh
   uid per position, revokes target the predicted latest admission of
   the tenant (a stale prediction just yields a deterministic
   rejection, which must never reach the log). *)
let crash_envelopes ops =
  let tenants = [| None; Some "a"; Some "b" |] in
  let stacks = Array.make 3 [] in
  List.mapi
    (fun i op ->
      let tenant = tenants.(op.t_ix) in
      let req =
        if op.kind <= 3 then begin
          let uid = Printf.sprintf "w%d" i in
          stacks.(op.t_ix) <- uid :: stacks.(op.t_ix);
          P.Admit { uid; spec = unit_spec ((i mod 8) + 1) }
        end
        else if op.kind = 4 then
          match stacks.(op.t_ix) with
          | uid :: rest ->
              stacks.(op.t_ix) <- rest;
              P.Revoke { uid }
          | [] -> P.Query
        else P.Query
      in
      { P.seq = i + 1; arrival = 0.; deadline_ms = None; tenant; req })
    ops

let prop_crash_replay (ops, cut_pct) =
  let envs = crash_envelopes ops in
  let cut = cut_pct * List.length envs / 100 in
  let prefix = List.filteri (fun i _ -> i < cut) envs
  and suffix = List.filteri (fun i _ -> i >= cut) envs in
  with_wal @@ fun log_u ->
  with_wal @@ fun log_k ->
  (* the uninterrupted control run *)
  let full_resps, full_hashes =
    with_server ~log:log_u @@ fun srv ->
    let rs = run_envs srv envs in
    (rs, tenant_hashes srv)
  in
  (* the killed run: process the prefix, then stop — every commit is
     flushed before its response, so shutdown adds nothing a kill at
     the boundary would lose *)
  let kill_resps, kill_hashes =
    with_server ~log:log_k @@ fun srv ->
    let rs = run_envs srv prefix in
    (rs, tenant_hashes srv)
  in
  (* restart from the killed log and finish the session *)
  with_server ~log:log_k @@ fun srv ->
  let replay_hashes = tenant_hashes srv in
  let rest_resps = run_envs srv suffix in
  kill_resps = List.filteri (fun i _ -> i < cut) full_resps
  && replay_hashes = kill_hashes
  && tenant_hashes srv = full_hashes
  && List.map strip_cached rest_resps
     = List.map strip_cached (List.filteri (fun i _ -> i >= cut) full_resps)

let test_crash_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"restart from the log is transparent at any commit boundary"
       ~count:15 crash_arbitrary prop_crash_replay)

let () =
  Alcotest.run "service"
    [
      ( "transactional",
        [
          Alcotest.test_case "admit-revoke-admit idempotent" `Quick
            test_admit_revoke_admit;
          Alcotest.test_case "rollback on reject" `Quick test_rollback_on_reject;
          Alcotest.test_case "store candidates" `Quick test_store_candidates;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "expired deadline" `Quick test_deadline_shedding;
          Alcotest.test_case "overload prefers probes" `Quick
            test_overload_sheds_probes_first;
        ] );
      ( "scripted sessions",
        [
          Alcotest.test_case "mixed session matches one-shot (1 worker)" `Quick
            test_mixed_session_seq;
          Alcotest.test_case "mixed session matches one-shot (4 workers)"
            `Quick test_mixed_session_par;
        ] );
      ( "stats",
        [
          Alcotest.test_case "kernel telemetry fields" `Quick
            test_stats_kernel_fields;
          Alcotest.test_case "delta counters" `Quick test_delta_metrics;
        ] );
      ( "diffs",
        [
          Alcotest.test_case "diff t t is all-unchanged" `Quick
            test_diff_identity;
          Alcotest.test_case "admit-revoke-admit round trip is exact" `Quick
            test_diff_round_trip;
          Alcotest.test_case "one-unit diff dirties only the intersection"
            `Quick test_diff_dirties_only_intersection;
        ] );
      ("purity", [ test_what_if_pure ]);
      ( "json",
        [
          Alcotest.test_case "escape round trip" `Quick test_json_escapes;
          test_json_round_trip;
        ] );
      ( "tenancy",
        [
          Alcotest.test_case "tenants are isolated" `Quick
            test_tenant_isolation;
          Alcotest.test_case "stats reports the shard map" `Quick
            test_stats_shard_map;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "bit-identical across shard counts" `Quick
            test_shard_identity;
        ] );
      ( "durability",
        [
          Alcotest.test_case "restart replays the log" `Quick test_wal_restart;
          Alcotest.test_case "tampered log is refused" `Quick test_wal_tamper;
          Alcotest.test_case "compaction keeps replay exact" `Quick
            test_wal_compaction;
          Alcotest.test_case "crash before compaction rename is safe" `Quick
            test_wal_compact_crash;
          test_crash_replay;
        ] );
    ]
