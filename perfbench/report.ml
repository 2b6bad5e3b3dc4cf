(* The run's outputs: a human summary, a result file with host facts,
   the traced run's span file, and the one-line result the benchmark
   contract asks for, printed last. *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  Wsn_admission.Json.escape_into b s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj members = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) members) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let metric_obj ms = obj (List.map (fun (n, v, u) -> (n, obj [ ("value", num v); ("unit", str u) ])) ms)

(* The end-to-end figures every workload reports under one name. *)
let end_to_end (o : Workload.outcome) =
  [ ("setup_s", Stats.median o.Workload.setups_s, "s");
    ("throughput_per_s", o.Workload.throughput, "1/s");
    ("latency_p50_ms", Stats.percentile o.Workload.latencies_s 50.0 *. 1000.0, "ms");
    ( "latency_tail_ms",
      Stats.percentile o.Workload.latencies_s o.Workload.tail_percentile *. 1000.0,
      "ms" );
    ("peak_rss_mb", o.Workload.peak_rss_mb, "MB") ]

type host = {
  nproc : int;
  cpus : int array;  (** The CPUs this process may use; the lanes are pinned to the first two. *)
  cpu_model : string;
  ocaml_version : string;
  domains : int;
  commit : string;
  calibration_s : float;
  calibration_mem_s : float;
}

let host_obj h =
  obj
    [ ("nproc", string_of_int h.nproc);
      ("cpus", arr (Array.to_list (Array.map string_of_int h.cpus)));
      ("cpu_model", str h.cpu_model);
      ("ocaml_version", str h.ocaml_version);
      ("domains", string_of_int h.domains);
      ("commit", str h.commit);
      ("calibration_s", num h.calibration_s);
      ("calibration_mem_s", num h.calibration_mem_s) ]

let correct (o : Workload.outcome) =
  List.for_all (fun c -> c.Workload.ok) o.Workload.checks
  && List.for_all (fun (_, v, _) -> Float.is_finite v) (end_to_end o)

let result_line ~correct ~(o : Workload.outcome) metrics =
  obj
    [ ("correct", string_of_bool correct);
      ("attempted", string_of_int o.Workload.attempted);
      ("failed", string_of_int o.Workload.failed);
      ("metrics", metric_obj metrics) ]

let result_file ~workload ~seed ~seconds ~trace ~host ~correct ~(o : Workload.outcome)
    ~(layers : Layers.t option) ~spans_file =
  obj
    ([ ("schema", str "perfbench-result/1");
       ("workload", str workload);
       ("seed", Int64.to_string seed);
       ("seconds", num seconds);
       ("trace", string_of_bool trace);
       ("host", host_obj host);
       ("correct", string_of_bool correct);
       ("lanes", string_of_int o.Workload.lanes);
       ("attempted", string_of_int o.Workload.attempted);
       ("failed", string_of_int o.Workload.failed);
       ("operation", str o.Workload.op_name);
       ("tail_percentile", num o.Workload.tail_percentile);
       ( "samples_beyond_tail",
         string_of_int (Stats.beyond o.Workload.latencies_s o.Workload.tail_percentile) );
       ( "checks",
         arr
           (List.map
              (fun c ->
                obj
                  [ ("name", str c.Workload.name);
                    ("ok", string_of_bool c.Workload.ok);
                    ("detail", str c.Workload.detail) ])
              o.Workload.checks) );
       ("end_to_end", metric_obj (end_to_end o));
       ( "workload_metrics",
         metric_obj
           (List.map
              (fun m -> (m.Workload.m_name, m.Workload.value, m.Workload.unit))
              o.Workload.metrics) );
       ("setups_s", arr (Array.to_list (Array.map num o.Workload.setups_s)));
       ("timed_s", num o.Workload.timed_s);
       ("best_s", num o.Workload.best_s);
       ("inputs_digest", str o.Workload.inputs_digest) ]
    @
    match layers with
    | None -> []
    | Some l ->
      [ ("per_layer", metric_obj l.Layers.values);
        ("per_layer_bases", obj (List.map (fun (k, v) -> (k, str v)) l.Layers.bases));
        ("spans_file", str spans_file) ])

let summary ~workload (o : Workload.outcome) =
  Printf.printf "%s: %d %ss in %.3f s timed, %d failed, %d units, tail p%g (%d beyond)\n"
    workload o.Workload.attempted o.Workload.op_name o.Workload.timed_s o.Workload.failed
    (Array.length o.Workload.setups_s) o.Workload.tail_percentile
    (Stats.beyond o.Workload.latencies_s o.Workload.tail_percentile);
  List.iter
    (fun m -> Printf.printf "  %-22s %14.6g %s\n" m.Workload.m_name m.Workload.value m.Workload.unit)
    o.Workload.metrics;
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-22s %14.6g %s\n" n v u)
    (end_to_end o);
  List.iter
    (fun c ->
      Printf.printf "  check %-28s %s  %s\n" c.Workload.name
        (if c.Workload.ok then "ok" else "FAILED")
        c.Workload.detail)
    o.Workload.checks
