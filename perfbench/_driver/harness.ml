(* Timing, spans, statistics and result printing shared by the three
   workloads.  Everything here lives on the benchmark side: the program
   under test is only ever called through its public functions. *)

let now = Unix.gettimeofday

(* A seeded splitmix64 stream.  The benchmark draws its own inputs from
   it, so the generated requests do not move when the program's own
   random helpers change. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.(add (of_int seed) 0x9E3779B97F4A7C15L) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r n = Int64.(to_int (unsigned_rem (next r) (of_int n)))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* --- statistics ---------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- spans --------------------------------------------------------- *)

(* One span per call into a layer: name, start, end, the span that
   caused it, and the op it belongs to.  Kept in memory and written out
   when the run ends. *)
type span = {
  id : int;
  op : int;
  parent : int;  (** 0 at the top of an op *)
  name : string;
  t0 : float;
  t1 : float;
}

type tracer = {
  mutable enabled : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable op : int;
  mutable stack : int list;
}

let tracer () = { enabled = false; spans = []; next_id = 1; op = 0; stack = [] }

let span tr name f =
  if not tr.enabled then f ()
  else begin
    let id = tr.next_id in
    tr.next_id <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> 0 in
    tr.stack <- id :: tr.stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      tr.stack <- List.tl tr.stack;
      tr.spans <- { id; op = tr.op; parent; name; t0; t1 } :: tr.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let span_ms s = (s.t1 -. s.t0) *. 1000.

(* Total duration (ms) and call count of the layer [name]. *)
let layer tr name =
  List.fold_left
    (fun (total, n) s ->
      if String.equal s.name name then (total +. span_ms s, n + 1) else (total, n))
    (0., 0) tr.spans

let mean_ms tr name =
  let total, n = layer tr name in
  if n = 0 then 0. else total /. float_of_int n

let write_spans tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"op\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.op s.parent s.name s.t0 s.t1)
    (List.rev tr.spans);
  close_out oc

(* --- op loop ------------------------------------------------------- *)

(* Outcome of one op, as the workload judged it against the reference
   answers.  An exception is caught by the loop and recorded by name. *)
type verdict = Match | Mismatch of string

type loop = {
  mutable latencies : float list;  (** ms, completed ops *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  failures : (string, int) Hashtbl.t;  (** exception or mismatch name *)
  mutable busy_s : float;  (** wall time spent inside ops *)
  mutable pass_start : float;
  mutable pass_times : float list;  (** seconds per whole pass, newest first *)
  mutable pass_ops : int;  (** completed ops in the whole passes *)
}

let loop () =
  {
    latencies = [];
    attempted = 0;
    failed = 0;
    mismatches = 0;
    failures = Hashtbl.create 4;
    busy_s = 0.;
    pass_start = 0.;
    pass_times = [];
    pass_ops = 0;
  }

let record_failure l name =
  l.failed <- l.failed + 1;
  Hashtbl.replace l.failures name
    (1 + Option.value (Hashtbl.find_opt l.failures name) ~default:0)

(* Run [op] once, timing it from the outside; [check] compares its
   result with the reference answer outside the timed interval. *)
let run_op l ~op ~check =
  l.attempted <- l.attempted + 1;
  let t0 = now () in
  match op () with
  | v -> (
      let dt = now () -. t0 in
      l.busy_s <- l.busy_s +. dt;
      match check v with
      | Match -> l.latencies <- (dt *. 1000.) :: l.latencies
      | Mismatch what ->
          l.mismatches <- l.mismatches + 1;
          record_failure l ("mismatch:" ^ what))
  | exception e ->
      l.busy_s <- l.busy_s +. (now () -. t0);
      record_failure l (Printexc.exn_slot_name e)

(* Set-up cost: [n] timed calls of [setup], each followed by an untimed
   [teardown] of what it built.  Runs take a few such samples between
   passes too, so the reported median spans the whole run. *)
let time_setups n ~setup ~teardown =
  List.init n (fun _ ->
      let t0 = now () in
      let v = setup () in
      let dt = now () -. t0 in
      teardown v;
      dt)

(* A run cycles over its workload's inputs until its time is up.  The
   end-to-end figures come from the whole passes only, so every run
   measures the same inputs whatever its seed and speed; the last,
   partial pass counts only toward the error rate. *)
let begin_pass l = l.pass_start <- now ()

let end_pass l =
  l.pass_times <- (now () -. l.pass_start) :: l.pass_times;
  l.pass_ops <- List.length l.latencies

(* Latencies of the whole passes (of every op when no pass finished). *)
let pass_latencies l =
  if l.pass_times = [] then l.latencies
  else List.filteri (fun i _ -> i < l.pass_ops) (List.rev l.latencies)

let failures_list l =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) l.failures []
  |> List.sort compare

(* --- results ------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Every figure is finite by construction (empty samples read 0); the
   guard keeps the result line valid JSON regardless. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = "\"" ^ Service.Json.escape s ^ "\""

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.m_name)
           (json_number m.m_value) (json_string m.m_unit))
       ms)

let print_table ~title ms ~notes =
  Printf.printf "== %s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %14.6g %-6s\n" m.m_name m.m_value m.m_unit)
    ms;
  List.iter (fun n -> Printf.printf "  %s\n" n) notes
