module Q = Rational

(* The number types the per-site analysis runs on ({!Rta.Make}): exact
   rationals, or the scaled numerators of an integer timebase.  The
   recurrences of the holistic analysis (phases, busy periods, jitters,
   offsets) only add, subtract and integer-multiply timeline values and
   take floors and ceilings of their quotients, which are plain job
   counts — so these operations are all an instance needs. *)
module type TIME = sig
  type t

  val zero : t
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val mul : int -> t -> t
  val floor_div : t -> t -> int
  val ceil_div : t -> t -> int
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val to_q : scale:int -> t -> Q.t
  val of_q : scale:int -> floor:bool -> Q.t -> t
end

module Rat = struct
  type t = Q.t

  let zero = Q.zero
  let ( + ) = Q.add
  let ( - ) = Q.sub
  let mul n x = Q.(of_int n * x)
  let floor_div x y = Q.floor Q.(x / y)
  let ceil_div x y = Q.ceil Q.(x / y)
  let compare = Q.compare
  let equal = Q.equal
  let to_q ~scale:_ v = v
  let of_q ~scale:_ ~floor:_ q = q
end

(* Quotients are only taken by positive scaled periods, so division
   needs no check; every other step raises [Q.Overflow] instead of
   wrapping — the engine's cue to fall back to rationals. *)
module Scaled = struct
  type t = int

  let zero = 0
  let ( + ) = Q.Checked.( + )
  let ( - ) = Q.Checked.( - )
  let mul = Q.Checked.( * )
  let ceil_div x y = if x > 0 then 1 + ((x - 1) / y) else -(-x / y)
  let floor_div x y = -ceil_div (-x) y
  let compare = Int.compare
  let equal = Int.equal
  let to_q ~scale v = Q.of_scaled ~scale v

  let of_q ~scale ~floor q =
    if floor then Q.floor Q.(q * of_int scale) else Q.to_scaled ~scale q
end

(* Every rational the analysis can reach — periods, deadlines, release
   jitters, blocking terms, the platform-transformed demands C/α and
   Cb/α, the supply latencies Δ and offsets β — lies on the lattice
   (1/scale)·Z where [scale] is the lcm of their denominators, and the
   recurrences above stay on it: running them on the scaled numerators
   with int arithmetic is exact (see docs/THEORY.md).  A table holds
   these constants on one timeline, once per engine session. *)
type 'v t = {
  scale : int;
  period : 'v array;  (* per transaction *)
  deadline : 'v array;
  release_jitter : 'v array;
  horizon : 'v array;  (* horizon_factor · max(period, deadline) *)
  base : 'v array array;  (* per site: Δ + blocking *)
  beta : 'v array array;
  c : 'v array array;  (* C/α *)
  cb : 'v array array;  (* Cb/α *)
}

let rational (m : Model.t) ~horizon_factor =
  let per_txn f = Array.map f m.Model.txns in
  let per_site f =
    Array.mapi
      (fun a (tx : Model.txn) -> Array.mapi (f a) tx.Model.tasks)
      m.Model.txns
  in
  {
    scale = 1;
    period = per_txn (fun tx -> tx.Model.period);
    deadline = per_txn (fun tx -> tx.Model.deadline);
    release_jitter = m.Model.release_jitter;
    horizon =
      per_txn (fun tx ->
          Q.(of_int horizon_factor * max tx.Model.period tx.Model.deadline));
    base =
      per_site (fun a b tk -> Q.(Model.delta m tk + m.Model.blocking.(a).(b)));
    beta = per_site (fun _ _ tk -> Model.beta m tk);
    c = per_site (fun _ _ tk -> Q.(tk.Model.c / Model.alpha m tk));
    cb = per_site (fun _ _ tk -> Q.(tk.Model.cb / Model.alpha m tk));
  }

(* Headroom rule: every scaled constant — including the busy-period
   horizon, the largest value the fixed points are allowed to reach —
   must leave 10 bits of slack below max_int.  The slack absorbs the
   sums and job-count products of typical busy-period evaluations; the
   kernels still run fully overflow-checked, so a system that blows
   through it mid-analysis falls back to the rational path instead of
   going wrong. *)
let headroom_bits = 10

let of_model (m : Model.t) ~horizon_factor =
  (* The platform-transformed demands are the only derived rationals
     on the lattice — normalising each quotient is the expensive part of
     this scan (engine rebinds pay it per probe), so the rational table
     computes each quotient once and the scale scan and the scaled table
     both read it. *)
  try
    let q = rational m ~horizon_factor in
    let scale = ref 1 in
    let see v = scale := Q.lcm_den !scale v in
    let see_all = Array.iter (Array.iter see) in
    Array.iter see q.period;
    Array.iter see q.deadline;
    Array.iter see q.release_jitter;
    see_all m.Model.blocking;
    Array.iter
      (fun (tx : Model.txn) ->
        Array.iter (fun tk -> see (Model.delta m tk)) tx.Model.tasks)
      m.Model.txns;
    see_all q.beta;
    see_all q.c;
    see_all q.cb;
    let scale = !scale in
    let conv v =
      let s = Q.to_scaled ~scale v in
      if abs s <= max_int asr headroom_bits then s else raise Q.Overflow
    in
    let row = Array.map conv and table = Array.map (Array.map conv) in
    Some
      {
        scale;
        period = row q.period;
        deadline = row q.deadline;
        release_jitter = row q.release_jitter;
        horizon = row q.horizon;
        base = table q.base;
        beta = table q.beta;
        c = table q.c;
        cb = table q.cb;
      }
  with Q.Overflow -> None
