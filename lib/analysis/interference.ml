module Q = Rational

let hp = Ir.hp

let phase m ~phi ~jit ~i ~k ~j =
  Rta.Rat.phase ~period:m.Model.txns.(i).Model.period ~phi ~jit ~i ~k ~j

let jobs = Rta.Rat.jobs

(* A compiled demand curve: the phase, period and platform-scaled cost
   of every interfering task are constants of one (phi, jit) assignment,
   and so is the t-independent ⌊(J + ϕ)/T⌋ term of [jobs]; they are
   hoisted out of the busy-period fixed points, which evaluate the curve
   at many points t.  Values are canonical rationals, so [eval] returns
   exactly what the uncompiled fold would: (n·C)/α and n·(C/α) normalise
   to the same representation.  [eval] is [jobs] written out by hand:
   it is the innermost loop of the rational path, where a call through
   the functor instance would not be inlined. *)
type term = { ph : Q.t; delayed : int; period : Q.t; scaled_c : Q.t }

type kernel = term array

let compile ?hp_list m ~phi ~jit ~i ~k ~a ~b =
  let target = Model.task m a b in
  let alpha = Model.alpha m target in
  let ti = m.Model.txns.(i).Model.period in
  let hp_list = match hp_list with Some l -> l | None -> hp m ~i ~a ~b in
  Array.of_list
    (List.map
       (fun j ->
         let tk = Model.task m i j in
         let ph = phase m ~phi ~jit ~i ~k ~j in
         {
           ph;
           delayed = Q.floor Q.((jit.(i).(j) + ph) / ti);
           period = ti;
           scaled_c = Q.(tk.Model.c / alpha);
         })
       hp_list)

let eval kernel ~t =
  Array.fold_left
    (fun acc { ph; delayed; period; scaled_c } ->
      let inside = Stdlib.max 0 (Q.ceil Q.((t - ph) / period)) in
      let n = Stdlib.max 0 (delayed + inside) in
      Q.(acc + (of_int n * scaled_c)))
    Q.zero kernel

let contribution ?hp_list m ~phi ~jit ~i ~k ~a ~b ~t =
  eval (compile ?hp_list m ~phi ~jit ~i ~k ~a ~b) ~t

(* The int demand curve, hand-specialised: quotients appear only under
   floor/ceil, whose results are plain job counts; everything else is
   overflow-checked int arithmetic, so either a value is bit-exact or
   Rational.Overflow aborts the kernel and the engine falls back. *)

(* ⌈x/y⌉ and x mod y ≥ 0 for y > 0.  [Timebase.Scaled.ceil_div] is the
   same ceiling; this copy keeps the innermost loop's call local, which
   is a direct call even where cross-module calls are not. *)
let iceil_div x y = if x > 0 then 1 + ((x - 1) / y) else -(-x / y)

let imod x y =
  let r = x mod y in
  if r < 0 then r + y else r

(* The value-independent skeleton of an int demand curve: everything
   about transaction [i]'s interfering set that survives jitter/offset
   sweeps — the task indices, the shared period and the scaled costs —
   flattened into plain int arrays once per engine compile
   (see Kernels), so per-sweep kernel compilation only computes phases
   and never chases a per-task record again. *)
type iskeleton = {
  sk_txn : int;
  sk_js : int array;
  sk_period : int;
  sk_costs : int array;
}

let iskeleton (tb : int Timebase.t) ~i ~hp_list =
  let js = Array.of_list hp_list in
  {
    sk_txn = i;
    sk_js = js;
    sk_period = tb.Timebase.period.(i);
    sk_costs = Array.map (fun j -> tb.Timebase.c.(i).(j)) js;
  }

(* A compiled int demand curve in structure-of-arrays layout: the inner
   busy-period loop walks three flat int arrays (phase, delayed jobs,
   cost) plus one shared period — contiguous memory, no boxing, and
   the t-independent ⌊(J + ϕ)/T⌋ term of Eq. 8 hoisted to compile
   time, so each term costs one division instead of two. *)
type ikernel = {
  ik_period : int;
  ik_phase : int array;
  ik_delayed : int array;
  ik_cost : int array;
}

let compile_skeleton sk ~sphi ~sjit ~k =
  let i = sk.sk_txn in
  let ti = sk.sk_period in
  let n = Array.length sk.sk_js in
  let phase = Array.make n 0 and delayed = Array.make n 0 in
  let jrow = sjit.(i) and prow = sphi.(i) in
  let pk = imod prow.(k) ti in
  let jk = jrow.(k) in
  for idx = 0 to n - 1 do
    let j = sk.sk_js.(idx) in
    let pj = imod prow.(j) ti in
    let ph = Q.Checked.(ti - imod (pk + jk - pj) ti) in
    phase.(idx) <- ph;
    (* ⌊(jitter + phase)/period⌋ of [jobs], unchecked: both operands
       are non-negative and fit the timebase headroom *)
    delayed.(idx) <- (jrow.(j) + ph) / ti
  done;
  { ik_period = ti; ik_phase = phase; ik_delayed = delayed; ik_cost = sk.sk_costs }

let eval_int (kernel : ikernel) ~t =
  let acc = ref 0 in
  let ti = kernel.ik_period in
  let phase = kernel.ik_phase
  and delayed = kernel.ik_delayed
  and cost = kernel.ik_cost in
  for idx = 0 to Array.length phase - 1 do
    let inside = Stdlib.max 0 (iceil_div (t - phase.(idx)) ti) in
    let jobs = Stdlib.max 0 (delayed.(idx) + inside) in
    acc := Q.Checked.(!acc + (jobs * cost.(idx)))
  done;
  !acc

let w_star ?hp_list m ~phi ~jit ~i ~a ~b ~t =
  let hp_list = match hp_list with Some l -> l | None -> hp m ~i ~a ~b in
  List.fold_left
    (fun acc k -> Q.max acc (contribution ~hp_list m ~phi ~jit ~i ~k ~a ~b ~t))
    Q.zero hp_list
