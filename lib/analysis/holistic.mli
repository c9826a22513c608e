(** Sessionless entry points to the dynamic-offset holistic analysis
    (Section 3.2) — thin shims over {!Engine}.

    Each call builds a one-shot {!Engine.t} session and analyses it, so
    the model is recompiled every time.  Results are bit-identical to
    the session API by construction; the engine-identity properties in
    the test suite assert it over random workloads.  For anything that
    analyses a model more than once — design-space searches, benchmark
    cells, repeated CLI probes — create an {!Engine} session and reuse
    it.  See {!Engine.analyze} for the algorithm documentation. *)

val analyze :
  ?params:Params.t ->
  ?pool:Parallel.Pool.t ->
  ?counters:Rta.counters ->
  Model.t ->
  Report.t
(** [Engine.create |> Engine.analyze] — full analysis.  The returned
    report carries the per-iteration history (the paper's Table 3; [[]]
    when [params.keep_history] is off) and the final verdict:
    schedulable iff the iteration converged and the last task of every
    transaction meets the transaction deadline.  [pool] (default
    {!Parallel.Pool.sequential}) runs the sites of each sweep in
    parallel; reports are bit-identical for every job count.
    @deprecated New code should hold an {!Engine.t} session so the
    compiled IR (and memo, across runs) is reused. *)

val analyze_system :
  ?params:Params.t ->
  ?pool:Parallel.Pool.t ->
  ?counters:Rta.counters ->
  Transaction.System.t ->
  Report.t
(** Convenience: {!Model.of_system} followed by {!analyze}.
    @deprecated Use {!Engine.create_system} and {!Engine.analyze}. *)

val response_times :
  ?params:Params.t -> ?pool:Parallel.Pool.t -> Model.t -> Report.bound array array
(** Final worst-case response times only.
    @deprecated Use {!Engine.response_times} on a session. *)
