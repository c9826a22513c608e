(* Expected answers, one [key<TAB>answer] line each.  The files are
   written once by the switch-free reference configuration
   ([--write-reference]) and committed beside the benchmark; a timed run
   only ever compares against them. *)

module Params = Analysis.Params

(* Every optimisation switch off, at one job: the configuration whose
   answers the optimised paths must reproduce bit for bit. *)
let params p =
  {
    p with
    Params.memoize = false;
    prune = false;
    incremental = false;
    int_kernel = false;
    steal = false;
    warm_probes = false;
  }

type t = (string, string) Hashtbl.t

let load path : t =
  let tbl = Hashtbl.create 1024 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '\t' with
       | Some i ->
           Hashtbl.replace tbl (String.sub line 0 i)
             (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let check (t : t) key answer : Harness.verdict =
  match Hashtbl.find_opt t key with
  | Some a when String.equal a answer -> Harness.Match
  | Some _ -> Harness.Mismatch key
  | None -> Harness.Mismatch ("no-reference:" ^ key)

(* Answers of an op that raised are recorded as the exception's name, so
   a known defect shows in the reference file as well. *)
let answer_of f =
  match f () with
  | a -> a
  | exception e -> "exception " ^ Printexc.exn_slot_name e

let write path lines =
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) lines;
  close_out oc
