(* Per-layer figures of a traced pass, read from the library's registry
   (spans and counters it already records) and from the benchmark's
   own spans around the calls it makes.  Times and counts are per
   operation of the workload (request, query, day); ratios carry their
   base in [bases]. *)

module R = Wsn_telemetry.Registry

type t = {
  values : (string * float * string) list;  (** name, value, unit *)
  bases : (string * string) list;  (** how each ratio, self time or mean was formed *)
}

let names_units =
  [ ("server.parse_s", "s/op");
    ("server.admit_s", "s/op");
    ("server.query_s", "s/op");
    ("server.release_s", "s/op");
    ("server.whatif_s", "s/op");
    ("server.prices_s", "s/op");
    ("server.memo_hit_ratio", "ratio");
    ("server.schedule_reuse_ratio", "ratio");
    ("core.background_schedule_s", "s/op");
    ("core.colgen_s", "s/op");
    ("core.colgen_self_s", "s/op");
    ("core.clique_upper_s", "s/op");
    ("colgen.pricing_rounds", "count/op");
    ("colgen.columns", "count/op");
    ("colgen.exact_fallbacks", "count/op");
    ("colgen.pool_hit_ratio", "ratio");
    ("colgen.heuristic_yield", "ratio");
    ("lp.resolve_s", "s/op");
    ("lp.solve_s", "s/op");
    ("lp.pivots_per_resolve", "count");
    ("lp.degenerate_share", "ratio");
    ("conflict.enumerate_s", "s/op");
    ("independent.sets", "count/op");
    ("independent.memo_hit_ratio", "ratio");
    ("kernel.rate_evals", "count/op");
    ("kernel.cache_hit_ratio", "ratio");
    ("kernel.inc_accept_ratio", "ratio");
    ("routing.find_path_s", "s");
    ("net.generate_s", "s");
    ("mac.run_s", "s/op");
    ("mac.events", "count/op");
    ("mac.slot_skip_ratio", "ratio");
    ("dynamics.prepare_s", "s/op");
    ("dynamics.lp_s", "s/op");
    ("gc.allocated_mb", "MB/op");
    ("gc.major_collections", "count/op");
    ("trace.overhead_share", "ratio") ]

let compute (snap : R.snapshot) (tr : Workload.traced) =
  let counter n = float_of_int (Option.value (List.assoc_opt n snap.R.counters) ~default:0) in
  let span_stat n = List.assoc_opt n snap.R.spans in
  let span_sum n = match span_stat n with Some d -> d.R.sum | None -> 0.0 in
  let span_count n = match span_stat n with Some d -> float_of_int d.R.count | None -> 0.0 in
  let hist_mean n =
    match List.assoc_opt n snap.R.histograms with
    | Some d when d.R.count > 0 -> d.R.sum /. float_of_int d.R.count
    | _ -> 0.0
  in
  let ops = float_of_int (max 1 tr.Workload.traced_ops) in
  let setups = float_of_int (max 1 tr.Workload.traced_setups) in
  let per_op v = v /. ops in
  let extra n = Option.value (List.assoc_opt n tr.Workload.extra_layers) ~default:0.0 in
  let lp_total = span_sum "lp.solve" +. span_sum "lp.resolve" in
  let colgen = span_sum "colgen.available" in
  (* The LP spans carry no parent: colgen minus LP is colgen's self time
     only when nothing else ran the LP (no pathbw.solve). *)
  let self_unambiguous = span_count "pathbw.solve" = 0.0 in
  let values =
    [ ("server.parse_s", per_op (Spans.total "server.parse"));
      ("server.admit_s", per_op (Spans.total "server.admit"));
      ("server.query_s", per_op (Spans.total "server.query"));
      ("server.release_s", per_op (Spans.total "server.release"));
      ("server.whatif_s", per_op (Spans.total "server.whatif"));
      ("server.prices_s", per_op (Spans.total "server.prices"));
      ( "server.memo_hit_ratio",
        Stats.ratio (counter "server.memo_hits")
          (counter "server.memo_hits" +. span_count "colgen.available") );
      ( "server.schedule_reuse_ratio",
        Stats.ratio (counter "server.schedule_reuses")
          (counter "server.schedule_reuses" +. span_count "pathbw.solve") );
      ("core.background_schedule_s", per_op (span_sum "pathbw.solve"));
      ("core.colgen_s", per_op colgen);
      ("core.colgen_self_s", per_op (if self_unambiguous then colgen -. lp_total else colgen));
      ("core.clique_upper_s", per_op (Spans.total "core.clique_upper"));
      ("colgen.pricing_rounds", per_op (counter "colgen.pricing_rounds"));
      ("colgen.columns", per_op (counter "colgen.columns"));
      ("colgen.exact_fallbacks", per_op (counter "colgen.exact_fallbacks"));
      ( "colgen.pool_hit_ratio",
        Stats.ratio (counter "colgen.pool_hits")
          (counter "colgen.pool_hits" +. counter "colgen.pool_inserts") );
      ( "colgen.heuristic_yield",
        Stats.ratio (counter "colgen.heuristic_columns") (counter "pricing.heuristic_calls") );
      ("lp.resolve_s", per_op (span_sum "lp.resolve"));
      ("lp.solve_s", per_op (span_sum "lp.solve"));
      ("lp.pivots_per_resolve", hist_mean "lp.pivots_per_resolve");
      ( "lp.degenerate_share",
        Stats.ratio (counter "lp.degenerate_pivots") (counter "lp.pivots") );
      ("conflict.enumerate_s", per_op (span_sum "independent.columns"));
      ("independent.sets", per_op (counter "independent.sets"));
      ( "independent.memo_hit_ratio",
        Stats.ratio (counter "independent.memo_hits")
          (counter "independent.enumerations" +. span_count "independent.columns") );
      ("kernel.rate_evals", per_op (counter "kernel.rate_evals"));
      ( "kernel.cache_hit_ratio",
        Stats.ratio (counter "kernel.cache_hits")
          (counter "kernel.cache_hits" +. counter "kernel.cache_misses") );
      ( "kernel.inc_accept_ratio",
        Stats.ratio (counter "kernel.inc_adds")
          (counter "kernel.inc_adds" +. counter "kernel.inc_rejects") );
      ( "routing.find_path_s",
        (Spans.total "routing.find_path" +. span_sum "routing.find_path") /. setups );
      ("net.generate_s", Spans.total "net.generate" /. setups);
      ("mac.run_s", per_op (span_sum "mac.run"));
      ("mac.events", per_op (counter "mac.events"));
      ("mac.slot_skip_ratio", Stats.ratio (counter "mac.slots_skipped") (counter "mac.slots"));
      ("dynamics.prepare_s", per_op (extra "dynamics.prepare_s"));
      ("dynamics.lp_s", per_op (extra "dynamics.lp_s"));
      ("gc.allocated_mb", per_op (tr.Workload.alloc_bytes /. 1e6));
      ("gc.major_collections", per_op tr.Workload.major_collections);
      ( "trace.overhead_share",
        Stats.ratio tr.Workload.traced_s tr.Workload.untraced_s -. 1.0 ) ]
  in
  let bases =
    [ ("ops", Printf.sprintf "%.0f operations, %.0f set-ups in the traced pass" ops setups);
      ("server.memo_hit_ratio", "server.memo_hits / (server.memo_hits + colgen.available calls)");
      ( "server.schedule_reuse_ratio",
        "server.schedule_reuses / (server.schedule_reuses + pathbw.solve calls)" );
      ( "core.background_schedule_s",
        "total of pathbw.solve, including the enumeration and LP spans nested in it" );
      ( "core.colgen_self_s",
        if self_unambiguous then "colgen.available minus lp.solve and lp.resolve"
        else "total colgen.available: pathbw.solve also runs the LP, so the self time is \
              ambiguous" );
      ("colgen.pool_hit_ratio", "colgen.pool_hits / (colgen.pool_hits + colgen.pool_inserts)");
      ("colgen.heuristic_yield", "colgen.heuristic_columns / pricing.heuristic_calls");
      ("lp.pivots_per_resolve", "mean of the lp.pivots_per_resolve histogram");
      ("lp.degenerate_share", "lp.degenerate_pivots / lp.pivots");
      ( "independent.memo_hit_ratio",
        "independent.memo_hits / (independent.enumerations + independent.columns calls)" );
      ("kernel.cache_hit_ratio", "kernel.cache_hits / (kernel.cache_hits + kernel.cache_misses)");
      ("kernel.inc_accept_ratio", "kernel.inc_adds / (kernel.inc_adds + kernel.inc_rejects)");
      ( "routing.find_path_s",
        "per set-up: benchmark spans around Router.find_path plus the library's \
         routing.find_path span; routes chosen inside a session or a soak are not visible" );
      ("net.generate_s", "per set-up: benchmark span around scenario generation");
      ("mac.slot_skip_ratio", "mac.slots_skipped / mac.slots");
      ("dynamics.prepare_s", "sum of the Soak epoch rows' prepare_s");
      ("dynamics.lp_s", "sum of the Soak epoch rows' lp_s");
      ("trace.overhead_share", "traced timed wall / untraced timed wall of the same work - 1") ]
  in
  { values = List.map (fun (n, v) -> (n, v, List.assoc n names_units)) values; bases }
