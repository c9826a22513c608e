module Q = Rational

module QTbl = Hashtbl.Make (struct
  type t = Q.t

  let equal = Q.equal
  let hash = Q.hash
end)

(* One entry caches the demand curve of transaction [i] initiated by
   τ_{i,k} against a fixed task under analysis: (t -> W^k_i) samples,
   valid as long as the jitter and offset rows of transaction [i] still
   hold the values the samples were computed under. *)
type entry = {
  mutable jit_sig : Q.t array;
  mutable phi_sig : Q.t array;
  mutable kernel : Interference.kernel;
      (* compiled demand curve, recompiled whenever the signature rows
         change — misses then cost one kernel evaluation instead of a
         full phase/scaling recomputation per interfering task *)
  values : Q.t QTbl.t;
}

(* Integer-timeline twin of [entry]: same (i, k) key space, signatures
   are the scaled jitter/offset rows, samples map scaled t to scaled W.
   Rational and int entries coexist in one cache — an engine session
   that falls back mid-run keeps its warm int entries for the next
   analyze call while the rational rerun fills the rational side. *)
type ientry = {
  mutable ijit_sig : int array;
  mutable iphi_sig : int array;
  mutable ikernel : Interference.ikernel;
  ivalues : (int, int) Hashtbl.t;
}

type cache = {
  entries : (int * int, entry) Hashtbl.t;  (* keyed by (i, k) *)
  ientries : (int * int, ientry) Hashtbl.t;  (* keyed by (i, k) *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

(* One cache per task under analysis, allocated on first touch, not at
   [create]: a delta-warm analysis (Engine.analyze_delta) recomputes
   only the dirty frontier, so most cells of a large memo are never
   consulted and eager allocation would dominate the warm path's cost.
   A sweep runs each site on one domain and the pool's region join
   orders the sweeps, so every cell — and the cache it holds — has a
   single owner at a time and needs no synchronisation. *)
type t = { caches : cache option array array (* [a].[b] *) }

type stats = { hits : int; misses : int; invalidations : int }

(* Below this many interfering tasks, a demand curve is cheaper to
   evaluate directly than to look up: a hit still pays a hashtable probe
   on a boxed rational (or an int probe on the scaled path), which costs
   about as much as walking a handful of hoisted terms.  The fixed-point
   drivers skip the memo for such kernels — bench X9 measures the
   crossover. *)
let min_terms = 4

let fresh () =
  {
    entries = Hashtbl.create 16;
    ientries = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let create m =
  {
    caches =
      Array.init (Model.n_txns m) (fun a ->
          Array.make (Model.n_tasks m a) None);
  }

let cache t ~a ~b =
  match t.caches.(a).(b) with
  | Some c -> c
  | None ->
      let c = fresh () in
      t.caches.(a).(b) <- Some c;
      c

let rows_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (Q.equal x b.(i)) then ok := false) a;
  !ok

let entry_for c m ~phi ~jit ~i ~k ~hp_list ~a ~b =
  let jit_row = jit.(i) and phi_row = phi.(i) in
  match Hashtbl.find_opt c.entries (i, k) with
  | Some e ->
      if not (rows_equal e.jit_sig jit_row && rows_equal e.phi_sig phi_row)
      then begin
        QTbl.reset e.values;
        e.jit_sig <- Array.copy jit_row;
        e.phi_sig <- Array.copy phi_row;
        e.kernel <- Interference.compile ~hp_list m ~phi ~jit ~i ~k ~a ~b;
        c.invalidations <- c.invalidations + 1
      end;
      e
  | None ->
      let e =
        {
          jit_sig = Array.copy jit_row;
          phi_sig = Array.copy phi_row;
          kernel = Interference.compile ~hp_list m ~phi ~jit ~i ~k ~a ~b;
          values = QTbl.create 32;
        }
      in
      Hashtbl.add c.entries (i, k) e;
      e

let lookup (c : cache) e t =
  match QTbl.find_opt e.values t with
  | Some v ->
      c.hits <- c.hits + 1;
      v
  | None ->
      c.misses <- c.misses + 1;
      let v = Interference.eval e.kernel ~t in
      QTbl.add e.values t v;
      v

let evaluator c m ~phi ~jit ~i ~k ~hp_list ~a ~b =
  let e = entry_for c m ~phi ~jit ~i ~k ~hp_list ~a ~b in
  fun t -> lookup c e t

(* --- integer timeline twins --- *)

let entry_for_int c (sk : Interference.iskeleton) ~sphi ~sjit ~k =
  let i = sk.Interference.sk_txn in
  let jit_row = sjit.(i) and phi_row = sphi.(i) in
  match Hashtbl.find_opt c.ientries (i, k) with
  | Some e ->
      if not (e.ijit_sig = jit_row && e.iphi_sig = phi_row) then begin
        Hashtbl.reset e.ivalues;
        e.ijit_sig <- Array.copy jit_row;
        e.iphi_sig <- Array.copy phi_row;
        e.ikernel <- Interference.compile_skeleton sk ~sphi ~sjit ~k;
        c.invalidations <- c.invalidations + 1
      end;
      e
  | None ->
      let e =
        {
          ijit_sig = Array.copy jit_row;
          iphi_sig = Array.copy phi_row;
          ikernel = Interference.compile_skeleton sk ~sphi ~sjit ~k;
          ivalues = Hashtbl.create 32;
        }
      in
      Hashtbl.add c.ientries (i, k) e;
      e

let lookup_int (c : cache) e t =
  match Hashtbl.find_opt e.ivalues t with
  | Some v ->
      c.hits <- c.hits + 1;
      v
  | None ->
      c.misses <- c.misses + 1;
      let v = Interference.eval_int e.ikernel ~t in
      Hashtbl.add e.ivalues t v;
      v

let evaluator_int c sk ~sphi ~sjit ~k =
  let e = entry_for_int c sk ~sphi ~sjit ~k in
  fun t -> lookup_int c e t

let contribution c m ~phi ~jit ~i ~k ~hp_list ~a ~b ~t =
  lookup c (entry_for c m ~phi ~jit ~i ~k ~hp_list ~a ~b) t

let w_star c m ~phi ~jit ~i ~hp_list ~a ~b ~t =
  List.fold_left
    (fun acc k -> Q.max acc (contribution c m ~phi ~jit ~i ~k ~hp_list ~a ~b ~t))
    Q.zero hp_list

let stats t =
  let acc = ref { hits = 0; misses = 0; invalidations = 0 } in
  Array.iter
    (Array.iter (function
      | None -> ()
      | Some (c : cache) ->
          acc :=
            {
              hits = !acc.hits + c.hits;
              misses = !acc.misses + c.misses;
              invalidations = !acc.invalidations + c.invalidations;
            }))
    t.caches;
  !acc
