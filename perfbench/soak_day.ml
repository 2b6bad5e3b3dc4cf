(* soak_day: the online estimators over simulated days.  Each instance
   replays one fixed Dscenario day (churn, diurnal load, node join/leave
   and drift, drawn once from the repository's default seed) through
   Soak.run with incremental kernel upkeep.  The run seed re-seeds the
   day's MAC simulator streams, instance by instance: the network and
   its events stay put while the simulated channel draws change, so a
   run's cost does not hinge on which topology a seed happened to draw
   (day costs across drawn topologies differ by 2x). *)

module DS = Wsn_dynamics.Scenario
module Soak = Wsn_dynamics.Soak

type config = { scenario_seed : int64; days : int;  (** Distinct days per run. *) params : DS.params }

let default =
  { scenario_seed = 30L;
    days = 12;
    params = { DS.default with DS.n_nodes = 30; epochs = 12; horizon_h = 24.0 } }

type instance = { index : int; seed : int64; scenario : DS.t }

let setup cfg ~run_seed index =
  let seed = Rng.derive run_seed "soak_day.mac" index in
  let scenario =
    Spans.with_span "net.generate" ~op:index (fun () ->
        DS.generate ~params:cfg.params ~seed:cfg.scenario_seed ())
  in
  { index; seed; scenario = { scenario with DS.seed } }

let day inst =
  Spans.with_span "soak.day" ~op:inst.index (fun () -> Soak.run ~mode:Soak.Incremental inst.scenario)

let digests (t : Soak.t) = List.map (fun (r : Soak.epoch_row) -> r.Soak.kernel_digest) t.Soak.rows

(* Mean tracking error over the estimators that tracked at all. *)
let tracking_error t =
  let errs = List.filter Float.is_finite (List.map snd (Soak.tracking_errors t)) in
  match errs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

let row_sums (t : Soak.t) =
  List.fold_left
    (fun (p, l) (r : Soak.epoch_row) -> (p +. r.Soak.prepare_s, l +. r.Soak.lp_s))
    (0.0, 0.0) t.Soak.rows

(* What a day's repetitions must agree on. *)
let day_digest t = Digest.to_hex (Digest.string (Soak.artifact t ^ String.concat "," (digests t)))

let run ?(cfg = default) ~seed ~budget ~trace () =
  let first = Array.make cfg.days None in
  let peak_rss_mb =
    Workload.probe_peak_rss_mb ~units:cfg.days (fun i ->
        ignore (day (setup cfg ~run_seed:seed i)))
  in
  (* One repetition of day [index]; [keep] sees the finished day. *)
  let once ?(keep = fun _ -> ()) index =
    Gc.full_major ();
    let inst, dt = Workload.time (fun () -> setup cfg ~run_seed:seed index) in
    let t, spent = Workload.time (fun () -> try Some (day inst) with _ -> None) in
    match t with
    | None -> Workload.rep ~unit_index:index ~setup_s:dt ~spent ~n_failed:1 "failed"
    | Some t ->
      if Option.is_none first.(index) then first.(index) <- Some (inst, t);
      keep t;
      Workload.rep ~unit_index:index ~setup_s:dt ~spent (day_digest t)
  in
  let l = Workload.rounds ~lanes:2 budget ~units:cfg.days (fun ~round:_ index -> once index) in
  let reps = l.Workload.reps in
  let run_peak_rss_mb = Host.peak_rss_mb () in
  let days = List.filter_map Fun.id (Array.to_list first) in
  let fastest = Workload.fastest_spent ~units:cfg.days reps in
  let traced =
    if not trace then None
    else begin
      (* A few more rounds of the days, traced, in this process. *)
      let prep = ref 0.0 and lp = ref 0.0 in
      let keep t =
        let p, l = row_sums t in
        prep := !prep +. p;
        lp := !lp +. l
      in
      let t, alloc_bytes, major_collections =
        Workload.traced_pass @@ fun () ->
        Workload.rounds (Workload.Rounds Workload.traced_rounds) ~units:cfg.days
          (fun ~round:_ index -> once ~keep index)
      in
      let same =
        List.for_all
          (fun (r : Workload.rep) ->
            match first.(r.unit_index) with
            | Some (_, t0) -> String.equal r.digest (day_digest t0)
            | None -> false)
          t.Workload.reps
      in
      let sum a = Array.fold_left ( +. ) 0.0 a in
      Some
        ( same,
          { Workload.traced_s = sum (Workload.fastest_spent ~units:cfg.days t.Workload.reps);
            untraced_s = sum fastest;
            traced_ops = List.length t.Workload.reps;
            traced_setups = List.length t.Workload.reps;
            extra_layers = [ ("dynamics.prepare_s", !prep); ("dynamics.lp_s", !lp) ];
            alloc_bytes;
            major_collections } )
    end
  in
  (* Oracle: a full kernel rebuild every epoch must reproduce the
     incremental run's artifact and kernel digests exactly. *)
  let mismatched =
    List.filter
      (fun ((inst : instance), t) ->
        let r = Soak.run ~mode:Soak.Rebuild inst.scenario in
        Soak.artifact r <> Soak.artifact t || digests r <> digests t)
      days
  in
  let n = List.length reps
  and failed = Workload.sum_int (fun r -> r.Workload.n_failed) reps
  and spent_total = Workload.sum (fun r -> r.Workload.spent) reps
  and repeats_differ = Workload.repeats_differ reps in
  let checks =
    [ Workload.check "soak_day.rebuild_identity" (mismatched = [])
        (Printf.sprintf "%d of %d days differ between Incremental and Rebuild"
           (List.length mismatched) (List.length days));
      Workload.check "soak_day.repeats" (repeats_differ = 0)
        (Printf.sprintf "%d of %d repetitions give another artifact than their day's first"
           repeats_differ (n - cfg.days));
      Workload.lanes_check "soak_day" l ]
    @ (match traced with
        | Some (same, _) ->
          [ Workload.check "soak_day.traced_artifact" same "traced repeat gives the same artifact" ]
        | None -> [])
  in
  let hours = cfg.params.DS.horizon_h in
  let best_s = Array.fold_left ( +. ) 0.0 fastest in
  let errs = List.filter Float.is_finite (List.map (fun (_, t) -> tracking_error t) days) in
  let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let throughput = hours *. float_of_int cfg.days /. best_s in
  let metrics =
    [ Workload.metric "sim_hours_per_s" throughput "h/s";
      Workload.metric "tracking_error_mbps" (mean errs) "Mbps";
      Workload.metric "failed_share" (Stats.ratio (float_of_int failed) (float_of_int n)) "ratio";
      Workload.metric "sim_hours_per_s_all_repetitions"
        (hours *. float_of_int n /. spent_total) "h/s";
      Workload.metric "peak_rss_mb_run" run_peak_rss_mb "MB";
      Workload.metric "days" (float_of_int cfg.days) "count";
      Workload.metric "rounds" (float_of_int (List.fold_left ( + ) 0 l.Workload.rounds_per_lane)) "count";
      Workload.metric "epochs_per_day" (float_of_int cfg.params.DS.epochs) "count" ]
  in
  { Workload.op_name = "day";
    attempted = n;
    failed;
    lanes = l.Workload.lanes;
    timed_s = spent_total;
    best_s;
    latencies_s = fastest;
    tail_percentile = 75.0;
    setups_s = Workload.fastest_setup ~units:cfg.days reps;
    throughput;
    checks;
    metrics;
    inputs_digest =
      Workload.digest_strings
        (List.map
           (fun ((i : instance), _) ->
             Printf.sprintf "%Ld events=%d" i.seed (DS.n_events i.scenario))
           days);
    peak_rss_mb;
    traced = Option.map snd traced }
