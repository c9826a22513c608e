(* The benchmark driver: one workload per invocation, closed loop with
   one client.  See perfbench/README.md. *)

let usage =
  "main --workload NAME --seed N --seconds S --trace 0|1 --reference-dir DIR \
   --work-dir DIR [--git-commit C] [--profile P]\n\
   main --write-reference DIR"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and reference_dir = ref "" and work_dir = ref "" in
  let git_commit = ref "unknown" and profile = ref "dev" in
  let write_reference = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--reference-dir", Arg.Set_string reference_dir, "DIR");
      ("--work-dir", Arg.Set_string work_dir, "DIR");
      ("--git-commit", Arg.Set_string git_commit, "C");
      ("--profile", Arg.Set_string profile, "P");
      ("--write-reference", Arg.Set_string write_reference, "DIR");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !write_reference <> "" then begin
    let only = if !workload = "" then None else Some !workload in
    List.iter
      (fun (name, write) ->
        if only = None || only = Some name then begin
          let t0 = Unix.gettimeofday () in
          write (Filename.concat !write_reference (name ^ ".ref"));
          Printf.printf "wrote %s reference in %.1f s\n%!" name
            (Unix.gettimeofday () -. t0)
        end)
      [
        ("analyze_exact", W_analyze.write_reference);
        ("region_design", W_region.write_reference);
        ("admit_churn", W_admit.write_reference);
      ]
  end
  else begin
    let ctx =
      {
        Ctx.workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        reference_dir = !reference_dir;
        work_dir = !work_dir;
        git_commit = !git_commit;
        profile = !profile;
      }
    in
    match !workload with
    | "analyze_exact" -> W_analyze.run ctx
    | "admit_churn" -> W_admit.run ctx
    | "region_design" -> W_region.run ctx
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  end
