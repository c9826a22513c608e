(** The two timelines of the analysis — exact rationals and scaled
    native ints — and the constant tables a model has on each.

    Let [scale] be the lcm of the denominators of every rational the
    analysis can reach in a model: periods, deadlines, release jitters,
    blocking terms, the platform-transformed demands C/α and Cb/α and
    the supply parameters Δ and β.  All those values lie on the lattice
    (1/scale)·Z, and the lattice is closed under the recurrences of the
    holistic analysis (sums, differences, integer multiples, and floors
    and ceilings of quotients — which are plain integers).  Representing
    each value by its scaled numerator [v·scale] therefore lets the
    interference, busy-period, best-case and response-time fixed points
    run on native ints, bit-exactly: {!Rational.of_scaled} at the report
    boundary recovers the very rationals the unscaled computation would
    have produced.  See docs/THEORY.md for the closure argument and
    docs/PERFORMANCE.md for the headroom and fallback rules. *)

(** The operations the per-site analysis ({!Rta.Make}) needs of a
    number type. *)
module type TIME = sig
  type t

  val zero : t
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t

  val mul : int -> t -> t
  (** [mul n v] is [n·v]: a job count times a timeline value. *)

  val floor_div : t -> t -> int
  (** ⌊x/y⌋ for [y > 0] — a job count, the same on every timeline. *)

  val ceil_div : t -> t -> int
  (** ⌈x/y⌉ for [y > 0]. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val to_q : scale:int -> t -> Rational.t
  (** The rational a value on a timeline of this [scale] denotes. *)

  val of_q : scale:int -> floor:bool -> Rational.t -> t
  (** A rational onto the timeline: exactly, raising
      [Rational.Overflow] when it is off the lattice or out of range,
      or rounded down with [floor]. *)
end

module Rat : TIME with type t = Rational.t
(** Exact rationals; [scale] is ignored. *)

module Scaled : TIME with type t = int
(** Scaled numerators in overflow-checked native ints: every operation
    but the divisions (by positive scaled periods) raises
    [Rational.Overflow] instead of wrapping. *)

type 'v t = {
  scale : int;  (** the common denominator lcm [L]; 1 on rationals *)
  period : 'v array;  (** per transaction *)
  deadline : 'v array;
  release_jitter : 'v array;
  horizon : 'v array;
      (** busy-period horizon [horizon_factor · max(period, deadline)],
          per transaction *)
  base : 'v array array;  (** per site (a, b): [Δ + blocking] *)
  beta : 'v array array;
  c : 'v array array;  (** worst-case demand in platform time, [C/α] *)
  cb : 'v array array;  (** best-case demand in platform time, [Cb/α] *)
}
(** A model's constants on one timeline. *)

val rational : Model.t -> horizon_factor:int -> Rational.t t
(** The model's own constants, with the quotients and sums above
    computed once. *)

val of_model : Model.t -> horizon_factor:int -> int t option
(** The scaled table, or [None] when the model has no usable integer
    timeline: the denominator lcm overflows, or some scaled constant
    (including the horizon) exceeds [max_int / 2{^10}].  The 10-bit
    headroom absorbs the sums and job-count products of ordinary
    busy-period evaluations; kernels are overflow-checked regardless,
    so [Some] is a fast-path eligibility verdict, not a guarantee
    ({!Engine} falls back to the rational path on a mid-analysis
    overflow). *)
