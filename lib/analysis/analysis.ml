(** Schedulability analysis on abstract computing platforms (Section 3):
    holistic offset-based response-time analysis, exact and reduced, with
    the dynamic-offset outer iteration, plus the classical baselines the
    model generalises. *)

module Params = Params
module Model = Model
module Report = Report
module Busy = Busy
module Interference = Interference
module Ir = Ir
module Timebase = Timebase
module Memo = Memo
module Rta = Rta
module Best_case = Best_case
module Engine = Engine
module Classical = Classical
module Edf = Edf
