(** Compiled analysis IR — the static skeleton of a {!Model.t}.

    Interference participant sets (Eq. 17), the mixed-radix layout of
    the exact scenario space (Eq. 12) and the outer fixed point's
    dependency rows are pure functions of task placement and priorities.
    They used to be recomputed inside every [Holistic.analyze] call and
    every [Rta.response_time] call; {!compile} hoists them once per
    {!Engine} session.

    The IR never reads demands, periods, platform bounds, offsets or
    jitters, so one IR serves every model that shares the placement
    structure — the property design-space probes exploit through
    {!Engine.with_model} (see {!compatible}). *)

type remote = {
  txn : int;  (** remote transaction index [i] *)
  choices : int array;  (** its interfering tasks — the digit values of
                            the mixed-radix scenario index *)
  hp_list : int list;  (** the same set as a list, in {!Interference.hp}
                           order, for kernel compilation *)
}

type site = {
  a : int;
  b : int;
  own_hp : int list;
      (** interfering tasks of the own transaction (Eq. 17) *)
  own : int list;  (** [own_hp @ [b]]: the own-transaction initiators *)
  remotes : remote array;
      (** remote transactions with interfering tasks, ascending index *)
  stride : int array;
      (** mixed-radix strides; [stride.(Array.length remotes)] is the
          size of the remote scenario space *)
  total : int;
      (** the remote scenario count [Π |choices|], or [0] when that
          product exceeds [max_int] — read it through {!exact_total} *)
  deps : bool array;
      (** [deps.(i)] iff the response of [(a, b)] reads the offset or
          jitter row of transaction [i] — the incremental outer fixed
          point's dependency row *)
}
(** Everything {!Rta.response_time_site} needs about one task under
    analysis. *)

exception Scenario_space_too_large of { a : int; b : int }
(** The exact scenario space of task [(a, b)] has more than [max_int]
    remote scenario vectors, so it cannot be enumerated (nor indexed).
    Raised by exact analysis only; the reduced variant handles such
    systems. *)

val exact_total : site -> int
(** [site.total], the size of the remote scenario space.
    @raise Scenario_space_too_large when it exceeds [max_int]. *)

type t

val compile : Model.t -> t
(** Compile every site of the model.  Cost is one {!Interference.hp}
    sweep per (task, transaction) pair — what a single legacy
    [Holistic.analyze] call used to spend on it per outer iteration
    state rebuild. *)

val site : t -> a:int -> b:int -> site

val sites : t -> site array
(** Every site, transaction-major ([(0, 0)], [(0, 1)], …).  Shared, not
    copied: do not mutate. *)

val site_of : Model.t -> a:int -> b:int -> site
(** One-off compilation of a single site, for {!Rta.scenario_count},
    which has no session to draw on. *)

val n_txns : t -> int

val n_tasks : t -> int
(** Total task count across all transactions. *)

val exact_scenarios : t -> int
(** Σ over sites of (own initiators × remote scenarios) — the size of
    the space the exact variant examines, as reported by session
    compilation events; [max_int] when that sum does not fit. *)

val timebase : Model.t -> horizon_factor:int -> Timebase.t option
(** The value-dependent half of session compilation: the scaled-int
    constant tables of the integer timeline kernels ({!Timebase.of_model}).
    Kept outside {!t} on purpose — the IR is shared across every
    {!compatible} model precisely because it never reads the numeric
    constants the timebase is made of, so {!Engine} compiles and rebinds
    the two independently. *)

val compatible : t -> Model.t -> bool
(** [compatible t m] iff [m] has the same transaction/task shape and
    identical per-task (resource, priority) assignment as the model the
    IR was compiled from — the exact condition under which every hp set,
    stride and dependency row of [t] is valid for [m].  Demands,
    periods, deadlines, bounds, blocking and jitter may all differ. *)

val dirty_closure : t -> seed:bool array -> bool array
(** Transitive closure of a per-transaction dirty seed over the IR's
    dependency rows: the result marks [a] dirty whenever some site of
    transaction [a] reads the jitter/offset row of a (transitively)
    dirty transaction.  The clean complement is therefore a {e closed}
    subsystem — no clean site depends on a dirty row — which is the
    condition under which {!Engine.analyze_delta} may pin clean rows at
    their previously converged values and iterate only the dirty
    frontier (the warm fixed-point argument of docs/INCREMENTAL.md).
    [seed] must have length {!n_txns}. *)
