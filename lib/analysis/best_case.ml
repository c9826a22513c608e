module Q = Rational

let best_time m (tk : Model.task) cycles =
  Q.(max zero ((cycles / Model.alpha m tk) - Model.beta m tk))

let simple m =
  Array.mapi
    (fun _a (tx : Model.txn) ->
      let acc = ref Q.zero in
      Array.map
        (fun (tk : Model.task) ->
          acc := Q.(!acc + best_time m tk tk.Model.cb);
          !acc)
        tx.Model.tasks)
    m.Model.txns

(* --- integer timeline twins (see Timebase) --- *)

(* best_time on scaled numerators: the scaled [cycles/α] terms are
   tabulated in the timebase ([scb]), so the twin only sums, multiplies
   by job counts and clamps — distributing the division by α over the
   sum is exact, which is what keeps each term on the timeline. *)

let simple_int (tb : Timebase.t) =
  Array.mapi
    (fun a row ->
      let acc = ref 0 in
      Array.mapi
        (fun b _ ->
          let scb = tb.Timebase.scb.(a).(b)
          and sbeta = tb.Timebase.sbeta.(a).(b) in
          acc := Q.Checked.(!acc + Stdlib.max 0 (scb - sbeta));
          !acc)
        row)
    tb.Timebase.scb

let refined_int m (tb : Timebase.t) ~sjit =
  let n = Model.n_txns m in
  let out = Array.init n (fun a -> Array.make (Model.n_tasks m a) 0) in
  for a = 0 to n - 1 do
    let start = ref 0 in
    for b = 0 to Model.n_tasks m a - 1 do
      let scb = tb.Timebase.scb.(a).(b) and sbeta = tb.Timebase.sbeta.(a).(b) in
      let guaranteed r =
        let demand = ref scb in
        for i = 0 to n - 1 do
          List.iter
            (fun j ->
              let ti = tb.Timebase.speriod.(i) in
              let arrivals =
                Stdlib.max 0
                  (Interference.iceil_div Q.Checked.(r - sjit.(i).(j)) ti - 1)
              in
              demand :=
                Q.Checked.(!demand + (arrivals * tb.Timebase.scb.(i).(j))))
            (Interference.hp m ~i ~a ~b)
        done;
        Stdlib.max 0 Q.Checked.(!demand - sbeta)
      in
      let horizon = Q.Checked.(1024 * tb.Timebase.speriod.(a)) in
      let own =
        match Busy.fixpoint_int ~horizon guaranteed 0 with
        | Some r -> r
        | None -> Stdlib.max 0 Q.Checked.(scb - sbeta)
      in
      start := Q.Checked.(!start + Stdlib.max own (Stdlib.max 0 (scb - sbeta)));
      out.(a).(b) <- !start
    done
  done;
  out

let refined m ~jit =
  let n = Model.n_txns m in
  let out = Array.init n (fun a -> Array.make (Model.n_tasks m a) Q.zero) in
  for a = 0 to n - 1 do
    let start = ref Q.zero in
    for b = 0 to Model.n_tasks m a - 1 do
      let tk = Model.task m a b in
      (* Guaranteed demand of interferers within a window of length r:
         at least ceil((r - J)/T) - 1 full arrivals, each of at least the
         best-case cycles.  Least fixed point from below. *)
      let guaranteed r =
        let demand = ref tk.Model.cb in
        for i = 0 to n - 1 do
          List.iter
            (fun j ->
              let itk = Model.task m i j in
              let ti = m.Model.txns.(i).Model.period in
              let arrivals =
                Stdlib.max 0 (Q.ceil Q.((r - jit.(i).(j)) / ti) - 1)
              in
              demand := Q.(!demand + (of_int arrivals * itk.Model.cb)))
            (Interference.hp m ~i ~a ~b)
        done;
        best_time m tk !demand
      in
      let horizon = Q.(of_int 1024 * m.Model.txns.(a).Model.period) in
      let own =
        match Busy.fixpoint ~horizon guaranteed Q.zero with
        | Some r -> r
        | None ->
            (* Overloaded platform: fall back to the simple term; the
               refinement is only a tightening, never a requirement. *)
            best_time m tk tk.Model.cb
      in
      start := Q.(!start + max own (best_time m tk tk.Model.cb));
      out.(a).(b) <- !start
    done
  done;
  out
