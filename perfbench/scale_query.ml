(* One bracketed availability query on a constant-density light-load
   topology (0.1 Mbps per flow) — the calls Scale.query makes, in its
   order: generate, route by end-to-end transmission delay, column
   generation (Auto pricer) under a master-iteration cap, then the
   hard-conflict clique upper bound.  Set-up is generation plus
   routing.

   The instance is fixed (the repository's default seed, 30): a query's
   cost swings with the topology and the admitted path — at 1000 nodes
   the clique bound alone ranges from 1 s to 20 s — which no run of a
   few queries can average out.  The run seed does not reach the
   inputs.

   The instance has 300 nodes and the master is uncapped, so the query
   is certified. *)

module SS = Wsn_workload.Scenarios.Scale_scenario
module Column_gen = Wsn_availbw.Column_gen
module Bounds = Wsn_availbw.Bounds
module Flow = Wsn_availbw.Flow
module Router = Wsn_routing.Router
module Metrics = Wsn_routing.Metrics
module Protocol = Wsn_admission.Protocol

type config = { n_nodes : int; demand_mbps : float; max_iterations : int; topology_seed : int64 }

let default = { n_nodes = 300; demand_mbps = 0.1; max_iterations = 1000; topology_seed = 30L }

type instance = {
  index : int;
  seed : int64;
  model : Wsn_conflict.Model.t;
  background : Flow.t list;
  path : int list;
}

let setup cfg ~run_seed:_ index =
  let seed = cfg.topology_seed in
  let sc =
    Spans.with_span "net.generate" ~op:index (fun () ->
        SS.generate ~demand_mbps:cfg.demand_mbps ~n_nodes:cfg.n_nodes ~seed ())
  in
  let topo = sc.SS.topology in
  let idleness (_ : int) = 1.0 in
  let routed =
    List.filter_map
      (fun (s, d, dem) ->
        Option.map
          (fun p -> (p, dem))
          (Spans.with_span "routing.find_path" ~op:index (fun () ->
               Router.find_path topo ~metric:Metrics.E2e_transmission_delay ~idleness ~source:s
                 ~target:d)))
      sc.SS.flows
  in
  match routed with
  | [] -> failwith "scale: no flow routable"
  | (path, _) :: rest ->
    let background = List.map (fun (p, dem) -> Flow.make ~path:p ~demand_mbps:dem) rest in
    { index; seed; model = sc.SS.model; background; path }

type answer = { lower : float; upper : float; certified : bool }

let query cfg inst =
  let result =
    Spans.with_span "core.colgen" ~op:inst.index (fun () ->
        Column_gen.available ~max_iterations:cfg.max_iterations ~pricer:Column_gen.Auto
          ~shards:0 inst.model ~background:inst.background ~path:inst.path)
  in
  let upper =
    Spans.with_span "core.clique_upper" ~op:inst.index (fun () ->
        Bounds.clique_upper inst.model ~background:inst.background ~path:inst.path)
  in
  match result with
  | Some r -> { lower = r.Column_gen.bandwidth_mbps; upper; certified = r.Column_gen.certified }
  | None -> { lower = 0.0; upper; certified = true }

let wire a = (Protocol.mbps a.lower, Protocol.mbps a.upper)

(* Oracle: Scale.query on the same seed and cap must report the same
   wire-quantised bracket, and the bracket must be ordered. *)
let check_instance cfg seed a =
  let row =
    Wsn_experiments.Scale.query ~max_iterations:cfg.max_iterations ~demand_mbps:cfg.demand_mbps
      ~n_nodes:cfg.n_nodes ~seed ()
  in
  let lo, hi = wire a in
  let ok =
    lo = Protocol.mbps row.Wsn_experiments.Scale.lower_mbps
    && hi = Protocol.mbps row.Wsn_experiments.Scale.upper_mbps
    && a.certified = row.Wsn_experiments.Scale.certified
    && lo <= hi
  in
  (ok, Printf.sprintf "seed %Ld: bench [%.3f, %.3f] vs Scale.query [%.3f, %.3f]" seed lo hi
         row.Wsn_experiments.Scale.lower_mbps row.Wsn_experiments.Scale.upper_mbps)

let digest_instance inst =
  Printf.sprintf "%Ld path=%s bg=%s" inst.seed
    (String.concat "," (List.map string_of_int inst.path))
    (String.concat ";"
       (List.map
          (fun (f : Flow.t) ->
            Printf.sprintf "%s@%h" (String.concat "," (List.map string_of_int f.Flow.path))
              f.Flow.demand_mbps)
          inst.background))

let name = "scale_300"

(* The run's one unit is the fixed query; every round repeats it on a
   freshly generated copy of the instance. *)
let run ?(cfg = default) ~seed ~budget ~trace () =
  let first = ref None and digest = ref "" in
  let peak_rss_mb =
    Workload.probe_peak_rss_mb ~units:1 (fun i -> ignore (query cfg (setup cfg ~run_seed:seed i)))
  in
  let once round =
    (* Drop the previous instance first, so every query starts from
       the same heap and the peak resident set is one query's. *)
    Gc.full_major ();
    let inst, dt = Workload.time (fun () -> setup cfg ~run_seed:seed round) in
    let a, spent = Workload.time (fun () -> try Some (query cfg inst) with _ -> None) in
    match a with
    | None -> Workload.rep ~unit_index:0 ~setup_s:dt ~spent ~n_failed:1 "failed"
    | Some a ->
      if Option.is_none !first then begin
        first := Some (inst.seed, a);
        digest := digest_instance inst
      end;
      let lo, hi = wire a in
      Workload.rep ~unit_index:0 ~setup_s:dt ~spent (Printf.sprintf "%h %h %b" lo hi a.certified)
  in
  let l = Workload.rounds ~lanes:2 budget ~units:1 (fun ~round _ -> once round) in
  let reps = l.Workload.reps in
  let run_peak_rss_mb = Host.peak_rss_mb () in
  let best_s = (Workload.fastest_spent ~units:1 reps).(0) in
  let traced =
    if not trace then None
    else begin
      (* A few more repetitions of the query, traced, in this process. *)
      let t, alloc_bytes, major_collections =
        Workload.traced_pass @@ fun () ->
        Workload.rounds (Workload.Rounds Workload.traced_rounds) ~units:1 (fun ~round _ ->
            once round)
      in
      let first_digest = (List.hd reps).Workload.digest in
      Some
        ( List.for_all (fun (r : Workload.rep) -> String.equal r.digest first_digest) t.Workload.reps,
          { Workload.traced_s = (Workload.fastest_spent ~units:1 t.Workload.reps).(0);
            untraced_s = best_s;
            traced_ops = List.length t.Workload.reps;
            traced_setups = List.length t.Workload.reps;
            extra_layers = [];
            alloc_bytes;
            major_collections } )
    end
  in
  let n = List.length reps
  and failed = Workload.sum_int (fun r -> r.Workload.n_failed) reps
  and spent_total = Workload.sum (fun r -> r.Workload.spent) reps
  and repeats_differ = Workload.repeats_differ reps in
  (* Every repetition is of the same fixed instance: one Scale.query
     covers them all, and every repetition must have agreed. *)
  let checks =
    (match !first with
     | None -> [ Workload.check (name ^ ".bracket") false "no query answered" ]
     | Some (seed0, a0) ->
       let ok, detail = check_instance cfg seed0 a0 in
       [ Workload.check (name ^ ".bracket") ok detail;
         Workload.check (name ^ ".repeats") (repeats_differ = 0)
           (Printf.sprintf "%d of %d repeat queries give another bracket" repeats_differ (n - 1)) ])
    @ [ Workload.lanes_check name l ]
    @ (match traced with
        | Some (same, _) ->
          [ Workload.check (name ^ ".traced_bracket") same "traced repeat gives the same bracket" ]
        | None -> [])
  in
  let first f = match !first with None -> nan | Some (_, a) -> f a in
  let metrics =
    [ Workload.metric "queries_per_s" (1.0 /. best_s) "1/s";
      Workload.metric "gap_mbps" (first (fun a -> let lo, hi = wire a in hi -. lo)) "Mbps";
      Workload.metric "lower_mbps" (first (fun a -> fst (wire a))) "Mbps";
      Workload.metric "upper_mbps" (first (fun a -> snd (wire a))) "Mbps";
      Workload.metric "certified_share"
        (first (fun a -> if a.certified then 1.0 else 0.0)) "ratio";
      Workload.metric "failed_share" (Stats.ratio (float_of_int failed) (float_of_int n)) "ratio";
      Workload.metric "queries_per_s_all_repetitions" (float_of_int n /. spent_total) "1/s";
      Workload.metric "peak_rss_mb_run" run_peak_rss_mb "MB";
      Workload.metric "rounds" (float_of_int (List.fold_left ( + ) 0 l.Workload.rounds_per_lane)) "count" ]
  in
  { Workload.op_name = "query";
    attempted = n;
    failed;
    lanes = l.Workload.lanes;
    timed_s = spent_total;
    best_s;
    latencies_s = [| best_s |];
    tail_percentile = 99.0;
    setups_s = Workload.fastest_setup ~units:1 reps;
    throughput = 1.0 /. best_s;
    checks;
    metrics;
    inputs_digest = Workload.digest_strings [ !digest ];
    peak_rss_mb;
    traced = Option.map snd traced }
