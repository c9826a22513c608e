(** Analysis results.

    Response times are measured from the activation of the owning
    transaction, as in the paper; a {!bound} is [Divergent] when the
    busy-period recurrence exceeded the divergence horizon (platform
    overload). *)

type 'v outcome = Finite of 'v | Divergent
(** A response on either timeline of the analysis ({!Timebase}):
    rationals, or the scaled ints of an integer timebase. *)

type bound = Rational.t outcome

type task_result = {
  offset : Rational.t;  (** φ{_i,j} at the fixed point *)
  jitter : Rational.t;  (** J{_i,j} at the fixed point *)
  rbest : Rational.t;  (** best-case response-time lower bound *)
  response : bound;  (** worst-case response-time upper bound *)
}

type iteration = {
  jitters : Rational.t array array;
  responses : bound array array;
}
(** Snapshot of one outer (dynamic-offset) iteration: the jitters used
    and the responses they produced.  The sequence of snapshots is the
    paper's Table 3. *)

type t = {
  results : task_result array array;
  history : iteration list;  (** oldest first; iteration 0 has J = 0 *)
  outer_iterations : int;
  converged : bool;
      (** The outer fixed point was reached within the iteration cap and
          without an early exit.  Response values are guaranteed upper
          bounds only in that case; a non-converged report's finite
          numbers are intermediate iterates of a failing system. *)
  schedulable : bool;
      (** [R(i, n_i) <= D_i] for the last task of every transaction *)
}

val bound_le : bound -> Rational.t -> bool

val bound_max : bound -> bound -> bound

val bound_add : bound -> Rational.t -> bound

val pp_bound : Format.formatter -> bound -> unit

val equal_bound : bound -> bound -> bool

val task_response : t -> int -> int -> bound

val transaction_response : t -> int -> bound
(** Response of the last task: the transaction's end-to-end response. *)

val pp : names:(int -> int -> string) -> Format.formatter -> t -> unit
(** Tabular rendering; [names a b] supplies task labels. *)

val pp_history :
  names:(int -> int -> string) ->
  txn:int ->
  Format.formatter ->
  t ->
  unit
(** Table-3-style rendering of the iteration history of one
    transaction: one row per task, J/R pairs per outer iteration. *)
