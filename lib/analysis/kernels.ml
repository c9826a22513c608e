(* Per-site structure-of-arrays constant tables for the integer
   timeline kernels: for every task under analysis, the flattened
   interfering sets ({!Interference.iskeleton}) of its own transaction
   and of each remote transaction of its scenario space.  One table per
   engine session, next to the timebase — the per-sweep kernel
   compilations then only compute phases into fresh arrays and never
   walk the model's boxed task records again.

   Sites are flattened on first use, not at session creation: the
   delta re-analysis path rebinds a session per admission and then
   touches only the dirty sites, so an eager whole-model sweep here
   would put O(system) work back on its O(affected) path.  The fill
   needs no lock: within one sweep region a site is resolved only by
   the slot that computes it, so every cell has one writer, and the
   pool's region boundaries order the fills of successive sweeps. *)

type site = {
  own : Interference.iskeleton;
  remotes : Interference.iskeleton array;
      (* aligned with the site's [Ir.remote] array *)
}

let of_site tb (s : Ir.site) =
  {
    own = Interference.iskeleton tb ~i:s.Ir.a ~hp_list:s.Ir.own_hp;
    remotes =
      Array.map
        (fun (r : Ir.remote) ->
          Interference.iskeleton tb ~i:r.Ir.txn ~hp_list:r.Ir.hp_list)
        s.Ir.remotes;
  }

type t = {
  tb : int Timebase.t;
  ir : Ir.t;
  sites : site option array array; (* [a].[b], filled on first use *)
}

let compile m ir tb =
  {
    tb;
    ir;
    sites =
      Array.init (Model.n_txns m) (fun a -> Array.make (Model.n_tasks m a) None);
  }

let site t ~a ~b =
  match t.sites.(a).(b) with
  | Some s -> s
  | None ->
      let s = of_site t.tb (Ir.site t.ir ~a ~b) in
      t.sites.(a).(b) <- Some s;
      s

let timebase t = t.tb
