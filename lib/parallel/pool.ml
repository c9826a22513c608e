(* Resident worker domains synchronised by a single mutex: the caller
   publishes a region (epoch bump + broadcast), every participant
   executes a static stride of slots once per epoch, the caller takes
   participant 0 itself and waits for the unfinished count to drain.
   Slot identity is static — slot [s] of a region always runs in the
   participant [s mod participants] — which is what keeps per-slot
   caches valid across regions.  Index ranges, however, migrate between
   slots: [run_ranges] gives every slot an atomic deque holding its
   remaining contiguous range, owners claim halving blocks off the
   front, and a slot that drains its own deque steals the back half of
   the largest remaining one instead of idling.  At most one worker per
   hardware core is ever spawned: surplus domains cannot run in
   parallel, yet each live domain taxes every minor collection with
   stop-the-world coordination, so on a single-core host the pool
   spawns no domains at all and [run] degrades to an inline loop over
   the slots. *)

type stats = { steals : int; splits : int; idle_slots : int }

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int;
  mutable work : (int -> unit) option;
  mutable unfinished : int;
  mutable stopped : bool;
  errors : (exn * Printexc.raw_backtrace) option array;
      (* per-slot, so the caller re-raises the lowest slot's exception
         regardless of the order the domains actually failed in *)
  busy : bool Atomic.t;
  mutable workers : unit Domain.t array;
  (* cumulative scheduler accounting across every region of the pool's
     lifetime; diagnostics only, never part of a result *)
  n_steals : int Atomic.t;
  n_splits : int Atomic.t;
  n_idle : int Atomic.t;
}

let jobs t = t.jobs

let record_error t slot e =
  t.errors.(slot) <- Some (e, Printexc.get_raw_backtrace ())

let hardware_slots = lazy (Domain.recommended_domain_count ())

(* Participant [p] of [P] owns slots [p], [p + P], [p + 2P], … — a
   static assignment, so the caller can wait on a plain count of
   workers and no claiming protocol is needed. *)
let exec_stride t f ~participant ~participants =
  let slot = ref participant in
  while !slot < t.jobs do
    (try f !slot with e -> record_error t !slot e);
    slot := !slot + participants
  done

let worker t participant participants =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.epoch = !seen && not t.stopped do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopped then begin
      running := false;
      Mutex.unlock t.mutex
    end
    else begin
      seen := t.epoch;
      let f = match t.work with Some f -> f | None -> assert false in
      Mutex.unlock t.mutex;
      exec_stride t f ~participant ~participants;
      Mutex.lock t.mutex;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end
  done

let create ~jobs =
  if jobs < 0 then invalid_arg "Parallel.Pool.create: jobs < 0";
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      work = None;
      unfinished = 0;
      stopped = false;
      errors = Array.make jobs None;
      busy = Atomic.make false;
      workers = [||];
      n_steals = Atomic.make 0;
      n_splits = Atomic.make 0;
      n_idle = Atomic.make 0;
    }
  in
  let workers =
    Stdlib.max 0 (Stdlib.min (jobs - 1) (Lazy.force hardware_slots - 1))
  in
  if workers > 0 then begin
    let participants = workers + 1 in
    t.workers <-
      Array.init workers (fun i ->
          Domain.spawn (fun () -> worker t (i + 1) participants))
  end;
  t

let sequential = create ~jobs:1

let shutdown t =
  if t.jobs > 1 && not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let reraise_first t =
  let err = ref None in
  for slot = t.jobs - 1 downto 0 do
    match t.errors.(slot) with
    | Some _ as e ->
        err := e;
        t.errors.(slot) <- None
    | None -> ()
  done;
  match !err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run t f =
  if t.jobs = 1 then f 0
  else if t.stopped then invalid_arg "Parallel.Pool.run: pool was shut down"
  else if Array.length t.workers = 0 then begin
    (* single-core host: no resident workers were spawned, so the
       region runs inline — same slots, same chunks, same results *)
    Array.fill t.errors 0 t.jobs None;
    exec_stride t f ~participant:0 ~participants:1;
    reraise_first t
  end
  else if not (Atomic.compare_and_set t.busy false true) then begin
    (* reentrant call from a worker of this pool: the outer region holds
       the domains, so execute every slot inline — same slots, same
       chunks, same results, just sequentially *)
    for slot = 0 to t.jobs - 1 do
      try f slot with e -> record_error t slot e
    done;
    reraise_first t
  end
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        let workers = Array.length t.workers in
        Mutex.lock t.mutex;
        t.work <- Some f;
        t.unfinished <- workers;
        Array.fill t.errors 0 t.jobs None;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.mutex;
        exec_stride t f ~participant:0 ~participants:(workers + 1);
        Mutex.lock t.mutex;
        while t.unfinished > 0 do
          Condition.wait t.work_done t.mutex
        done;
        t.work <- None;
        Mutex.unlock t.mutex;
        reraise_first t)

let chunk ~jobs ~n ~slot = (slot * n / jobs, (slot + 1) * n / jobs)

(* Slots beyond the cores the host actually offers cannot run in
   parallel: the extra slots serialise behind the same cores and pay
   the wake-up for nothing, so [slots_for] caps at the hardware
   parallelism.  Slot identity is untouched — per-slot state such as
   memo shards is still sized by [jobs].  Every caller's items (a whole
   site enumeration, a whole request analysis) dwarf the few
   microseconds of a wake-up, so there is no per-item cost cutoff. *)
let slots_for t n =
  Stdlib.max 1 (Stdlib.min n (Stdlib.min t.jobs (Lazy.force hardware_slots)))

let stats t =
  {
    steals = Atomic.get t.n_steals;
    splits = Atomic.get t.n_splits;
    idle_slots = Atomic.get t.n_idle;
  }

let tabulate t n f =
  if n < 0 then invalid_arg "Parallel.Pool.tabulate: negative length";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    if t.jobs = 1 || n = 1 then
      for i = 0 to n - 1 do
        results.(i) <- Some (f i)
      done
    else
      run t (fun slot ->
          let lo, hi = chunk ~jobs:t.jobs ~n ~slot in
          for i = lo to hi - 1 do
            results.(i) <- Some (f i)
          done);
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_array t f arr = tabulate t (Array.length arr) (fun i -> f arr.(i))

let map_list t f l =
  Array.to_list (map_array t f (Array.of_list l))

(* ------------------------------------------------------------------ *)
(* Work-stealing ranges                                                *)
(* ------------------------------------------------------------------ *)

(* One immutable record per deque state: every claim and every steal
   installs a freshly allocated record, so the CAS (physical equality)
   can never confuse two states that happen to hold the same bounds —
   no ABA.  The owner of slot [s] claims halving blocks off the front
   of deque [s]; a thief takes the back half of the largest remaining
   deque and re-exposes it as its own, so a stolen range keeps being
   divisible.  Work is only ever removed from a deque by the loop that
   will synchronously execute it, and only the owner refills its own
   deque — once a loop observes every deque empty, no work it could
   have executed remains, so exiting early never drops an index. *)
type range = { lo : int; hi : int }

let run_ranges ?(steal = true) t ~slots ~n f =
  if n > 0 then begin
    let slots = Stdlib.max 1 (Stdlib.min slots t.jobs) in
    if slots = 1 then f ~slot:0 ~lo:0 ~hi:n
    else if not steal then
      (* Static geometry: exactly the contiguous chunks the pre-stealing
         pool used, one block per slot — the reference the determinism
         suite compares the stealing scheduler against. *)
      run t (fun slot ->
          if slot < slots then begin
            let lo = slot * n / slots and hi = (slot + 1) * n / slots in
            if lo < hi then f ~slot ~lo ~hi
          end)
    else begin
      let deques =
        Array.init slots (fun s ->
            Atomic.make { lo = s * n / slots; hi = (s + 1) * n / slots })
      in
      let rec claim s =
        let r = Atomic.get deques.(s) in
        let len = r.hi - r.lo in
        if len <= 0 then None
        else
          let blk = (len + 1) / 2 in
          if Atomic.compare_and_set deques.(s) r { r with lo = r.lo + blk }
          then begin
            if blk < len then Atomic.incr t.n_splits;
            Some (r.lo, r.lo + blk)
          end
          else claim s
      in
      let steal_once s =
        let victim = ref (-1) and best = ref 0 in
        for v = 0 to slots - 1 do
          if v <> s then begin
            let r = Atomic.get deques.(v) in
            let len = r.hi - r.lo in
            if len > !best then begin
              best := len;
              victim := v
            end
          end
        done;
        if !victim < 0 then `Empty
        else
          let r = Atomic.get deques.(!victim) in
          let len = r.hi - r.lo in
          if len <= 0 then `Retry
          else
            let take = Stdlib.max 1 (len / 2) in
            if
              Atomic.compare_and_set deques.(!victim) r
                { r with hi = r.hi - take }
            then begin
              Atomic.incr t.n_steals;
              `Stolen { lo = r.hi - take; hi = r.hi }
            end
            else `Retry
      in
      run t (fun slot ->
          if slot < slots then begin
            let worked = ref false in
            let running = ref true in
            while !running do
              match claim slot with
              | Some (lo, hi) ->
                  worked := true;
                  f ~slot ~lo ~hi
              | None -> (
                  match steal_once slot with
                  | `Stolen r ->
                      (* own deque is empty and only its owner refills
                         it, so a plain set is race-free *)
                      Atomic.set deques.(slot) r
                  | `Retry -> Domain.cpu_relax ()
                  | `Empty -> running := false)
            done;
            if not !worked then Atomic.incr t.n_idle
          end)
    end
  end
