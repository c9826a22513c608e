(* Compiled analysis IR: everything about a model that the response-time
   machinery used to recompute on every [analyze] call but that actually
   depends only on the static structure of the system — task placement
   and priorities — not on demands, platform bounds, offsets or jitters.
   Compiled once per engine session and shared by every analysis run. *)

module Q = Rational

type remote = { txn : int; choices : int array; hp_list : int list }

exception Scenario_space_too_large of { a : int; b : int }

type site = {
  a : int;
  b : int;
  own_hp : int list;
  own : int list;
  remotes : remote array;
  stride : int array;
  total : int;
}

type t = {
  sites : site array array;
  flat : site array;  (* [sites], transaction-major *)
  shape : (int * int) array array;  (* (res, prio) per task: the only
                                       model inputs the IR reads *)
  n_txns : int;
  n_tasks : int;
}

let hp m ~i ~a ~b =
  let target = Model.task m a b in
  let out = ref [] in
  Array.iteri
    (fun j (tk : Model.task) ->
      let is_self = i = a && j = b in
      if
        (not is_self)
        && tk.Model.res = target.Model.res
        && tk.Model.prio >= target.Model.prio
      then out := j :: !out)
    m.Model.txns.(i).Model.tasks;
  List.rev !out

let compile_site m ~a ~b =
  let n = Model.n_txns m in
  let own_hp = hp m ~i:a ~a ~b in
  let own = own_hp @ [ b ] in
  (* Remote transactions with interfering tasks, ascending index — the
     same order [Rta]'s scenario enumeration always used, so the
     mixed-radix indexing (and hence every chunk boundary and reduction
     order) is unchanged. *)
  let remotes =
    let out = ref [] in
    for i = n - 1 downto 0 do
      if i <> a then
        match hp m ~i ~a ~b with
        | [] -> ()
        | hp ->
            out := { txn = i; choices = Array.of_list hp; hp_list = hp } :: !out
    done;
    Array.of_list !out
  in
  let n_rem = Array.length remotes in
  let stride = Array.make (n_rem + 1) 1 in
  (* A space beyond [max_int] cannot be indexed: the strides stop at the
     first overflowing product and [total] is left at 0 (a real space
     never is empty), for [exact_total] to report.  The reduced variant
     never indexes the space, so such a site still analyses there. *)
  (try
     for ri = 0 to n_rem - 1 do
       stride.(ri + 1) <-
         Q.Checked.(stride.(ri) * Array.length remotes.(ri).choices)
     done
   with Q.Overflow -> stride.(n_rem) <- 0);
  { a; b; own_hp; own; remotes; stride; total = stride.(n_rem) }

(* The response of (a, b) reads the offsets and jitters of exactly the
   tasks its scenarios are built from: the own initiators (which include
   (a, b) itself) and each remote's interfering tasks.  Nothing else of
   any jitter or offset row enters Rta's recurrences. *)
let reads_any s f =
  List.exists (f s.a) s.own
  || Array.exists (fun r -> List.exists (f r.txn) r.hp_list) s.remotes

let shape_of m =
  Array.init (Model.n_txns m) (fun a ->
      Array.init (Model.n_tasks m a) (fun b ->
          let tk = Model.task m a b in
          (tk.Model.res, tk.Model.prio)))

let compile m =
  let n = Model.n_txns m in
  let sites =
    Array.init n (fun a ->
        Array.init (Model.n_tasks m a) (fun b -> compile_site m ~a ~b))
  in
  let n_tasks =
    Array.fold_left (fun acc row -> acc + Array.length row) 0 sites
  in
  {
    sites;
    flat = Array.concat (Array.to_list sites);
    shape = shape_of m;
    n_txns = n;
    n_tasks;
  }

let site t ~a ~b = t.sites.(a).(b)

let sites t = t.flat

let site_of m ~a ~b = compile_site m ~a ~b

let n_txns t = t.n_txns

let n_tasks t = t.n_tasks

let too_large_message m ~a ~b =
  Printf.sprintf
    "task %s has more than %d exact scenarios, too many to enumerate; analyze \
     without --exact for the reduced bound"
    (Model.task m a b).Model.name max_int

let exact_total s =
  if s.total = 0 then raise (Scenario_space_too_large { a = s.a; b = s.b });
  s.total

let exact_scenarios t =
  try
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc s -> Q.Checked.(acc + (List.length s.own * exact_total s)))
          acc row)
      0 t.sites
  with Q.Overflow | Scenario_space_too_large _ -> max_int

let compatible t m = t.shape = shape_of m

(* Transitive closure of a dirty seed over [reads_any], at transaction
   granularity: a transaction is dirty when any of its sites reads a task
   of a dirty transaction.  Iterated to a fixed point, so the clean
   complement is closed — no clean site reads a dirty row.  Engine.Delta
   closes the survivors whose old values may sit above the new least
   fixed point, so every row that read one of them restarts too (see
   docs/INCREMENTAL.md). *)
let dirty_closure t ~seed =
  if Array.length seed <> t.n_txns then
    invalid_arg "Ir.dirty_closure: seed length mismatch";
  let dirty = Array.copy seed in
  let changed = ref (Array.exists Fun.id seed) in
  while !changed do
    changed := false;
    Array.iter
      (fun s ->
        if (not dirty.(s.a)) && reads_any s (fun i _ -> dirty.(i)) then begin
          dirty.(s.a) <- true;
          changed := true
        end)
      t.flat
  done;
  dirty
