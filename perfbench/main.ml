(* Benchmark generator: runs one workload for one seed in this process
   and prints the contract's result line last.  Normally started by
   run.py, which builds it first:

     main.exe --workload serve_mix --seed 1 --seconds 30 --trace 0 --out DIR *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 30.0 and trace = ref 0 in
  let out = ref "perfbench/results" and commit = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME serve_mix | scale_300 | soak_day");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed work per run");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--out", Arg.Set_string out, "DIR where result and span files go");
      ("--commit", Arg.Set_string commit, "ID source revision recorded in the result") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  (* One domain per process: the closed loop is single-threaded, and
     worker domains would add scheduling noise to its walls.  The
     untraced rounds run in up to two processes at once, one per CPU
     ({!Workload.rounds}). *)
  let domains = 1 in
  Wsn_parallel.Pool.set_domains domains;
  let budget = Workload.Seconds !seconds in
  let trace = !trace = 1 in
  let run =
    match !workload with
    | "serve_mix" -> Serve_mix.run ?cfg:None
    | "scale_300" -> Scale_query.run ?cfg:None
    | "soak_day" -> Soak_day.run ?cfg:None
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let o = run ~seed:!seed ~budget ~trace () in
  (* After the run, which has already read its peak resident set. *)
  let calibration_s = Host.calibration_s () and calibration_mem_s = Host.calibration_mem_s () in
  let host =
    { Report.nproc = Host.nproc ();
      cpus = Host.allowed_cpus ();
      cpu_model = Host.cpu_model ();
      ocaml_version = Sys.ocaml_version;
      domains;
      commit = !commit;
      calibration_s;
      calibration_mem_s }
  in
  let layers =
    Option.map (Layers.compute (Wsn_telemetry.Registry.snapshot ())) o.Workload.traced
  in
  let correct = Report.correct o in
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  let stem =
    Printf.sprintf "%s/%s-seed%Ld-trace%d-%d" !out !workload !seed (Bool.to_int trace)
      (Unix.getpid ())
  in
  let spans_file = stem ^ ".spans.jsonl" in
  if trace then Out_channel.with_open_text spans_file Spans.to_jsonl;
  Out_channel.with_open_text (stem ^ ".json") (fun oc ->
      output_string oc
        (Report.result_file ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~host
           ~correct ~o ~layers ~spans_file);
      output_char oc '\n');
  Report.summary ~workload:!workload o;
  let metrics =
    match layers with Some l -> l.Layers.values | None -> Report.end_to_end o
  in
  print_endline (Report.result_line ~correct ~o metrics);
  exit (if correct then 0 else 1)
