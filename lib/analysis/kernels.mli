(** Structure-of-arrays constant tables for the integer timeline
    kernels, one {!Interference.iskeleton} per (site, interfering
    transaction) pair.

    The skeletons hold everything about an int demand curve that the
    jitter/offset sweeps cannot change — task indices, shared scaled
    period, scaled costs — as flat int arrays.  {!Engine} carries one
    table per session, holding the {!Timebase.t} it is scaled by (and
    replaces it on {!Engine.with_model}); the inner fixed-point
    loops then walk contiguous memory, and per-sweep kernel
    compilation ({!Interference.compile_skeleton}) computes only the
    phases.

    Sites are flattened lazily on first {!site} access and cached, so
    creating a table is O(tasks) allocation and a warm delta
    re-analysis only ever flattens its dirty frontier.  The fill is
    not synchronised: a site must be resolved only by the slot that
    computes it, as the sweeps of {!Engine} do. *)

type site = {
  own : Interference.iskeleton;
      (** the own transaction's interfering set (Eq. 17) *)
  remotes : Interference.iskeleton array;
      (** aligned index-for-index with the site's {!Ir.remote} array *)
}

type t

val compile : Model.t -> Ir.t -> int Timebase.t -> t
(** An empty table over the model's sites, each flattened on first
    access.  Valid exactly as long as the timebase is: any model
    rebind replaces both. *)

val site : t -> a:int -> b:int -> site

val timebase : t -> int Timebase.t
(** The timebase the table was compiled against. *)
