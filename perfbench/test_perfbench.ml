(* Tests of the benchmark itself, on small instances of each workload:
   seed determinism of the generated inputs and of the deterministic
   metrics, seed sensitivity, and agreement between what the code
   emits and what BENCHMARK.json declares. *)

open Perfbench
module Json = Wsn_admission.Json

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let small_serve = { Serve_mix.default with Serve_mix.instances = 2; ops_per_instance = 40 }

let small_scale = { Scale_query.default with Scale_query.n_nodes = 60; max_iterations = 3 }

let small_soak =
  { Soak_day.default with
    Soak_day.days = 2;
    params =
      { Soak_day.default.Soak_day.params with
        Wsn_dynamics.Scenario.n_nodes = 12;
        epochs = 3;
        horizon_h = 3.0 } }

let run name ~seed ~trace =
  match name with
  | "serve_mix" -> Serve_mix.run ~cfg:small_serve ~seed ~budget:(Workload.Rounds 2) ~trace ()
  | "scale_300" ->
    Scale_query.run ~cfg:small_scale ~seed ~budget:(Workload.Rounds 2) ~trace ()
  | "soak_day" -> Soak_day.run ~cfg:small_soak ~seed ~budget:(Workload.Rounds 2) ~trace ()
  | w -> failwith ("unknown workload " ^ w)

let deterministic = [ "gap_mbps"; "certified_share"; "tracking_error_mbps"; "failed_share" ]

let det_metrics (o : Workload.outcome) =
  List.filter_map
    (fun m ->
      if List.mem m.Workload.m_name deterministic then
        Some (m.Workload.m_name, Printf.sprintf "%h" m.Workload.value)
      else None)
    o.Workload.metrics

let spec =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)

let names_units section =
  match Option.bind (Json.member section spec) Json.to_list with
  | None -> failwith ("BENCHMARK.json: no " ^ section)
  | Some items ->
    List.map
      (fun m ->
        ( Option.get (Option.bind (Json.member "name" m) Json.to_str),
          Option.bind (Json.member "unit" m) Json.to_str ))
      items

let () =
  let calls = ref [] in
  let unit_rep ~spent i = Workload.rep ~unit_index:i ~setup_s:0.0 ~spent (string_of_int i) in
  let r =
    Workload.rounds (Workload.Rounds 2) ~units:3 (fun ~round i ->
        calls := (round, i) :: !calls;
        unit_rep ~spent:0.0 i)
  in
  expect "rounds: every unit once per round, in order"
    (r.Workload.rounds_per_lane = [ 2 ] && List.rev !calls = [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ]);
  let calls = ref 0 in
  let r =
    Workload.rounds (Workload.Seconds 0.5) ~units:3 (fun ~round:_ i -> incr calls; unit_rep ~spent:1.0 i)
  in
  expect "rounds: a spent Seconds budget still completes the first round"
    (r.Workload.rounds_per_lane = [ 1 ] && !calls = 3);
  (* Two lanes where two CPUs are allowed: the forked lane hands back
     its repetitions; its side effects stay in its own process. *)
  let calls = ref 0 in
  let r =
    Workload.rounds ~lanes:2 (Workload.Rounds 2) ~units:3 (fun ~round:_ i ->
        incr calls;
        unit_rep ~spent:0.0 i)
  in
  if Array.length (Host.allowed_cpus ()) >= 2 then
    expect "rounds: two lanes, each with every repetition"
      (r.Workload.lanes = 2 && r.Workload.lane_errors = [] && !calls = 6
       && List.length r.Workload.reps = 12
       && List.length (List.filter (fun (x : Workload.rep) -> x.lane = 1) r.Workload.reps) = 6)
  else expect "rounds: one lane on one CPU" (r.Workload.lanes = 1 && List.length r.Workload.reps = 6);
  let reps =
    List.map
      (fun (i, ops, d) -> { (Workload.rep ~unit_index:i ~setup_s:0.0 ~spent:0.0 ~ops_s:ops d) with lane = 0 })
      [ (0, [| 3.0; 1.0 |], "a"); (0, [| 2.0; 4.0 |], "a"); (1, [| 5.0 |], "b"); (1, [| 6.0 |], "c") ]
  in
  expect "fastest_ops keeps each operation's fastest repetition"
    (Workload.fastest_ops ~units:2 reps = [| [| 2.0; 1.0 |]; [| 5.0 |] |]);
  expect "repeats_differ counts repetitions unlike their unit's first" (Workload.repeats_differ reps = 1);
  (* The client asks for prices only on a pair it has seen routed. *)
  let prices =
    { Serve_mix.kind = Serve_mix.Prices;
      source = 1;
      target = 2;
      demand = 1.0;
      with_demand = false;
      pick = 0;
      factor = 1.5 }
  in
  let sent routable = Serve_mix.request_line Serve_mix.default prices ~held:[] ~routable in
  expect "serve_mix client: prices with no routed pair known becomes a query"
    (snd (sent []) = Serve_mix.Query);
  expect "serve_mix client: prices on the drawn pair when it is routed"
    (sent [ (3, 4); (1, 2) ]
     = ({|{"op":"prices","source":1,"target":2}|}, Serve_mix.Prices));
  expect "serve_mix client: prices on the newest routed pair otherwise"
    (sent [ (3, 4); (5, 6) ]
     = ({|{"op":"prices","source":3,"target":4}|}, Serve_mix.Prices));
  List.iter
    (fun (w, _) ->
      let a = run w ~seed:11L ~trace:false and b = run w ~seed:11L ~trace:false in
      expect (w ^ ": same seed, same inputs") (a.Workload.inputs_digest = b.Workload.inputs_digest);
      expect (w ^ ": same seed, same deterministic metrics") (det_metrics a = det_metrics b);
      expect (w ^ ": no failed operation") (a.Workload.failed = 0);
      expect (w ^ ": answer checks pass") (Report.correct a);
      let c = run w ~seed:12L ~trace:false in
      (* scale_300 runs one fixed instance whatever the seed. *)
      let differ = c.Workload.inputs_digest <> a.Workload.inputs_digest in
      expect (w ^ ": seed reaches the inputs as declared") (if w = "scale_300" then not differ else differ))
    (names_units "workloads");
  let declared = List.map fst (names_units "workloads") in
  expect "workloads: BENCHMARK.json names the three workloads"
    (List.sort compare declared = [ "scale_300"; "serve_mix"; "soak_day" ]);
  let o = run "serve_mix" ~seed:3L ~trace:true in
  let emitted_e2e = List.map (fun (n, _, u) -> (n, Some u)) (Report.end_to_end o) in
  expect "end_to_end: every declared metric is emitted with its unit"
    (List.sort compare emitted_e2e = List.sort compare (names_units "end_to_end"));
  let layers = Layers.compute (Wsn_telemetry.Registry.snapshot ()) (Option.get o.Workload.traced) in
  let emitted_layers = List.map (fun (n, _, u) -> (n, Some u)) layers.Layers.values in
  expect "per_layer: every declared metric is emitted with its unit"
    (List.sort compare emitted_layers = List.sort compare (names_units "per_layer"));
  expect "trace: spans carry parents and operation ids"
    (List.exists (fun s -> s.Spans.parent >= 0 && s.Spans.name = "server.parse") (Spans.all ()));
  (* The serve_mix answer oracle on hand-made answers: a whatif answer
     with a non-finite figure (written [nan] on the wire) is wrong; a
     finite one is right; a refusal is a failed request, not a wrong
     answer. *)
  let whatif_line = {|{"op":"whatif","source":1,"target":2,"flow":1,"factor":1.50}|} in
  let whatif_answer base =
    Wsn_admission.Protocol.whatif_response ~id:1 ~path:(Some [ 1; 2 ]) ~base_mbps:base
      ~results:[ (1, 1.5, base, true) ]
  in
  let oracle response = Serve_mix.answer_problem whatif_line response in
  expect "serve_mix oracle: a nan whatif answer is a problem" (oracle (whatif_answer nan) <> None);
  expect "serve_mix oracle: a finite whatif answer passes" (oracle (whatif_answer 1.25) = None);
  expect "serve_mix oracle: a refused whatif is not a problem"
    (oracle (Wsn_admission.Protocol.error_response ~id:1 "no route") = None);
  if !failures > 0 then exit 1
