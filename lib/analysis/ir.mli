(** Compiled analysis IR — the static skeleton of a {!Model.t}.

    Interference participant sets (Eq. 17), the mixed-radix layout of
    the exact scenario space (Eq. 12) and the outer fixed point's
    per-task dependency sets are pure functions of task placement and
    priorities.  Rather than recompute them on every analysis and every
    response-time call, {!compile} hoists them once per {!Engine}
    session.

    The IR never reads demands, periods, platform bounds, offsets or
    jitters, so one IR serves every model that shares the placement
    structure — the property design-space probes exploit through
    {!Engine.with_model} (see {!compatible}). *)

val hp : Model.t -> i:int -> a:int -> b:int -> int list
(** Indices of the tasks of transaction [i] that can interfere with task
    [(a, b)]: same platform and priority at least [prio (a, b)] (Eq. 17).
    The task under analysis itself is excluded — its own jobs enter the
    recurrences through the dedicated [(p - p0 + 1)] term. *)

type remote = {
  txn : int;  (** remote transaction index [i] *)
  choices : int array;  (** its interfering tasks — the digit values of
                            the mixed-radix scenario index *)
  hp_list : int list;  (** the same set as a list, in {!hp} order,
                           for kernel compilation *)
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
}
(** Everything {!Rta.S.response} needs about one task under
    analysis. *)

val reads_any : site -> (int -> int -> bool) -> bool
(** [reads_any s f] iff [f i j] holds for some task [(i, j)] whose
    offset or jitter the response of [s] reads.  Those tasks are exactly
    [own] in transaction [a] (which includes [(a, b)] itself) and each
    remote's [hp_list]: the per-task dependency set of the incremental
    outer fixed point. *)

exception Scenario_space_too_large of { a : int; b : int }
(** The exact scenario space of task [(a, b)] has more than [max_int]
    remote scenario vectors, so it cannot be enumerated (nor indexed).
    Raised by exact analysis only; the reduced variant handles such
    systems. *)

val too_large_message : Model.t -> a:int -> b:int -> string
(** The user-facing explanation of [Scenario_space_too_large {a; b}]
    for a model, naming the task and pointing at the reduced bound. *)

val exact_total : site -> int
(** [site.total], the size of the remote scenario space.
    @raise Scenario_space_too_large when it exceeds [max_int]. *)

type t

val compile : Model.t -> t
(** Compile every site of the model.  Cost is one {!hp}
    sweep per (task, transaction) pair, paid once per session instead
    of once per outer iteration. *)

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

val compatible : t -> Model.t -> bool
(** [compatible t m] iff [m] has the same transaction/task shape and
    identical per-task (resource, priority) assignment as the model the
    IR was compiled from — the exact condition under which every hp set,
    stride and dependency set of [t] is valid for [m].  Demands,
    periods, deadlines, bounds, blocking and jitter may all differ. *)

val dirty_closure : t -> seed:bool array -> bool array
(** Transitive closure of a per-transaction dirty seed over
    {!reads_any}: the result marks [a] dirty whenever some site of
    transaction [a] reads a task of a (transitively) dirty transaction.
    The clean complement is therefore {e closed} — no clean site reads a
    dirty row.  {!Engine.Delta} closes the survivors whose previous
    values may lie above the new least fixed point, so every row whose
    previous values were computed from theirs restarts as well (the
    warm fixed-point argument of docs/INCREMENTAL.md).  [seed] must have
    length {!n_txns}. *)
