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
  deps : bool array;
}

type t = {
  sites : site array array;
  flat : site array;  (* [sites], transaction-major *)
  shape : (int * int) array array;  (* (res, prio) per task: the only
                                       model inputs the IR reads *)
  n_txns : int;
  n_tasks : int;
}

let compile_site m ~a ~b =
  let n = Model.n_txns m in
  let own_hp = Interference.hp m ~i:a ~a ~b in
  let own = own_hp @ [ b ] in
  (* Remote transactions with interfering tasks, ascending index — the
     same order [Rta]'s scenario enumeration always used, so the
     mixed-radix indexing (and hence every chunk boundary and reduction
     order) is unchanged. *)
  let remotes =
    let out = ref [] in
    for i = n - 1 downto 0 do
      if i <> a then
        match Interference.hp m ~i ~a ~b with
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
  (* The response of (a, b) reads the offset/jitter rows of its own
     transaction and of every remote transaction with interfering
     tasks — exactly the participant set above. *)
  let deps = Array.make n false in
  deps.(a) <- true;
  Array.iter (fun r -> deps.(r.txn) <- true) remotes;
  { a; b; own_hp; own; remotes; stride; total = stride.(n_rem); deps }

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

(* Transitive closure of a dirty seed over the dependency rows, at
   transaction granularity: a transaction is dirty when any of its sites
   reads the jitter/offset row of a dirty transaction.  Iterated to a
   fixed point, so the clean complement is a closed subsystem — every
   dependency of a clean site lands on another clean transaction.  That
   closure is what lets Engine.Delta pin clean rows at their previously
   converged values: the pinned block's equations never read a dirty
   row, so carrying is exact (see docs/INCREMENTAL.md). *)
let dirty_closure t ~seed =
  let n = t.n_txns in
  if Array.length seed <> n then
    invalid_arg "Ir.dirty_closure: seed length mismatch";
  let dirty = Array.copy seed in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun row ->
        Array.iter
          (fun s ->
            if not dirty.(s.a) then
              Array.iteri
                (fun i d ->
                  if d && dirty.(i) then begin
                    dirty.(s.a) <- true;
                    changed := true
                  end)
                s.deps)
          row)
      t.sites
  done;
  dirty

(* The timebase is deliberately NOT part of [t]: the IR reads placement
   and priorities only, which is what lets [compatible] models share it,
   while the timebase embeds every numeric constant.  Engine sessions
   compile both and pair them. *)
let timebase = Timebase.of_model
