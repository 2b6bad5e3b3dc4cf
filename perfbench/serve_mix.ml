(* serve_mix: one closed-loop client against a Warm admission session
   on the paper's 30-node random topology (the repository's default
   seed, fixed: the deployed network).  Each instance is a fresh model
   and session with its own request stream drawn from the run seed; the
   client sends the next request only once the previous one has been
   answered, and releases only flows its own admits were granted.  A run
   replays a fixed set of instances round after round ({!Workload}). *)

module RS = Wsn_workload.Scenarios.Random_scenario
module Session = Wsn_admission.Session
module Protocol = Wsn_admission.Protocol
module Json = Wsn_admission.Json

type kind = Admit | Query | Release | Whatif | Prices

let kind_name = function
  | Admit -> "admit"
  | Query -> "query"
  | Release -> "release"
  | Whatif -> "whatif"
  | Prices -> "prices"

let kinds = [ Admit; Query; Release; Whatif; Prices ]

(* One drawn operation.  Every field is drawn for every op, so the
   stream is a pure function of the seed whatever the client later
   does with it. *)
type op = {
  kind : kind;
  source : int;
  target : int;
  demand : float;
  with_demand : bool;
  pick : int;  (** Which held flow a release or whatif names. *)
  factor : float;
}

type config = {
  topology_seed : int64;
  n_nodes : int;
  instances : int;  (** Request streams per run. *)
  ops_per_instance : int;
  arrival_rate : float;
  query_rate : float;
  release_rate : float;
  max_held : int;  (** The client holds at most this many flows. *)
}

let default =
  {
    topology_seed = 30L;
    n_nodes = 30;
    instances = 48;
    ops_per_instance = 250;
    arrival_rate = 1.0;
    query_rate = 1.5;
    release_rate = 0.25;
    max_held = 8;
  }

(* Competing exponentials as in the library's admission traces:
   admissions at 1/s, queries at 1.5/s, each live flow departing at
   0.25/s, plus a small share of whatif (0.12/s) and prices (0.08/s)
   reads.  [n_live] assumes every admit succeeds; the client turns what
   it cannot honour into other requests ({!request_line}).  Endpoints
   come from 30 pairs fixed with the topology, 70% from the first six
   (the hotspots); the run seed only draws from them. *)
let generate_ops cfg seed =
  let g = Rng.make seed in
  let n = cfg.n_nodes in
  let hotspots, others =
    let h = Rng.make cfg.topology_seed in
    let fixed =
      Array.init 30 (fun _ ->
          let s = Rng.below h n in
          (s, (s + 1 + Rng.below h (n - 1)) mod n))
    in
    (Array.sub fixed 0 6, Array.sub fixed 6 24)
  in
  let factors = [| 0.5; 0.75; 1.25; 1.5; 2.0 |] in
  let n_live = ref 0 in
  Array.init cfg.ops_per_instance (fun _ ->
      let draws =
        [ (Admit, Rng.exponential g cfg.arrival_rate);
          (Query, Rng.exponential g cfg.query_rate);
          (Whatif, Rng.exponential g 0.12);
          (Prices, Rng.exponential g 0.08);
          (Release,
           if !n_live = 0 then infinity
           else Rng.exponential g (cfg.release_rate *. float_of_int !n_live)) ]
      in
      let kind, _ =
        List.fold_left (fun (k, t) (k', t') -> if t' < t then (k', t') else (k, t))
          (List.hd draws) (List.tl draws)
      in
      (match kind with Admit -> incr n_live | Release -> decr n_live | _ -> ());
      let source, target = Rng.pick g (if Rng.float g < 0.7 then hotspots else others) in
      let demand = 0.25 *. float_of_int (1 + Rng.below g 12) in
      let with_demand = Rng.float g < 0.5 in
      let pick = Rng.below g 1_000_000 in
      let factor = Rng.pick g factors in
      { kind; source; target; demand; with_demand; pick; factor })

let op_digest ops =
  Workload.digest_strings
    (Array.to_list
       (Array.map
          (fun o ->
            Printf.sprintf "%s %d %d %h %b %d %h" (kind_name o.kind) o.source o.target o.demand
              o.with_demand o.pick o.factor)
          ops))

let query_line o =
  if o.with_demand then
    Printf.sprintf {|{"op":"query","source":%d,"target":%d,"demand_mbps":%.3f}|} o.source
      o.target o.demand
  else Printf.sprintf {|{"op":"query","source":%d,"target":%d}|} o.source o.target

(* The request the client sends for [o] given the flows it holds
   (oldest first) and the pairs it knows to be routable (newest first),
   and the kind actually sent.  At the holding cap an admit becomes a
   release; a release or whatif with nothing held becomes a query.  The
   server refuses congestion prices for a pair it cannot route, so the
   client asks for prices only on a pair an answer has shown a route
   for under the current flow set: the drawn pair if it is one, else
   the newest such pair, else it queries the drawn pair instead. *)
let request_line cfg o ~held ~routable =
  let nh = List.length held in
  match o.kind with
  | Admit when nh >= cfg.max_held ->
    (Printf.sprintf {|{"op":"release","flow":%d}|} (List.nth held (o.pick mod nh)), Release)
  | Admit ->
    ( Printf.sprintf {|{"op":"admit","source":%d,"target":%d,"demand_mbps":%.3f}|} o.source
        o.target o.demand,
      Admit )
  | Release when nh > 0 ->
    (Printf.sprintf {|{"op":"release","flow":%d}|} (List.nth held (o.pick mod nh)), Release)
  | Whatif when nh > 0 ->
    ( Printf.sprintf {|{"op":"whatif","source":%d,"target":%d,"flow":%d,"factor":%.2f}|}
        o.source o.target (List.nth held (o.pick mod nh)) o.factor,
      Whatif )
  | Prices when routable <> [] ->
    let source, target =
      if List.mem (o.source, o.target) routable then (o.source, o.target) else List.hd routable
    in
    (Printf.sprintf {|{"op":"prices","source":%d,"target":%d}|} source target, Prices)
  | Query | Release | Whatif | Prices -> (query_line o, Query)

(* How a response reads: an answer ([ok:true]), a refusal ([ok:false],
   which counts as a failed request), or neither — not JSON, or no
   [ok] flag — which no correct server writes, so the oracle rejects
   it whatever the request was. *)
type reading = Answer of Json.t | Refused | Malformed

let read response =
  match Json.parse response with
  | Error _ -> Malformed
  | Ok j -> (
    match Json.member "ok" j with
    | Some (Json.Bool true) -> Answer j
    | Some (Json.Bool false) -> Refused
    | _ -> Malformed)

(* The oracle for every answer, whatever the request: it must read as
   JSON with an [ok] flag.  That rules out non-finite figures, which the
   wire writes as [nan] and [inf]. *)
let answer_problem line response =
  match read response with
  | Malformed -> Some (Printf.sprintf "%s -> unreadable %s" line response)
  | Answer _ | Refused -> None

(* What one instance left behind, in a size that does not grow with the
   number of requests, so a run's peak resident set does not either:
   the request count by kind, a digest of the admit, query and release
   answers (which a Cold replay must reproduce), a digest of every
   answer (which the traced repeat must reproduce) and the problems
   {!answer_problem} found. *)
type executed = {
  instance : int;
  requests : int;
  sent_by_kind : int array;  (** Indexed like {!kinds}. *)
  contract_digest : string;
  all_digest : string;
  problems : string list;
}

let kind_index = function Admit -> 0 | Query -> 1 | Release -> 2 | Whatif -> 3 | Prices -> 4

type instance = { index : int; session : Session.t; ops : op array }

let setup ?(mode = Session.Warm) cfg ~run_seed index =
  let ops = generate_ops cfg (Rng.derive run_seed "serve_mix.trace" index) in
  let scenario =
    Spans.with_span "net.generate" ~op:index (fun () -> RS.generate ~seed:cfg.topology_seed ())
  in
  let session = Session.create ~mode ~topo:scenario.RS.topology ~model:scenario.RS.model () in
  { index; session; ops }

(* Drive one instance through its stream.  Returns what was executed,
   the per-request service times, the failure count (refusals:
   [ok:false] answers and exceptions) and the timed wall. *)
let drive cfg inst =
  let held = ref [] and routable = ref [] in
  let lat = ref [] and failed = ref 0 and spent = ref 0.0 and problems = ref [] in
  let sent_by_kind = Array.make (List.length kinds) 0 in
  let contract = Buffer.create 65536 and all = Buffer.create 65536 in
  let i = ref 0 in
  while !i < Array.length inst.ops do
    let o = inst.ops.(!i) in
    let line, kind = request_line cfg o ~held:!held ~routable:!routable in
    let id = !i + 1 in
    let op = (inst.index * cfg.ops_per_instance) + !i in
    let t0 = Unix.gettimeofday () in
    let response =
      Spans.with_span "serve.request" ~op (fun () ->
          match Spans.with_span "server.parse" ~op (fun () -> Protocol.parse_request line) with
          | Error reason -> Protocol.error_response ~id reason
          | Ok (_, request) -> (
            try
              Spans.with_span ("server." ^ kind_name kind) ~op (fun () ->
                  Session.handle inst.session ~id request)
            with e -> Protocol.error_response ~id (Printexc.to_string e)))
    in
    let dt = Unix.gettimeofday () -. t0 in
    spent := !spent +. dt;
    lat := dt :: !lat;
    Option.iter (fun p -> problems := p :: !problems) (answer_problem line response);
    (match read response with
     | Malformed -> ()
     | Refused -> incr failed
     | Answer j -> (
       (* Routes change only with the flow set: a granted admit or a
          release forgets every known route. *)
       let saw_route () =
         match Json.member "path" j with
         | Some (Json.List (_ :: _)) ->
           routable := (o.source, o.target) :: List.filter (( <> ) (o.source, o.target)) !routable
         | _ -> ()
       in
       match kind with
       | Admit -> (
         match (Json.member "admitted" j, Option.bind (Json.member "flow" j) Json.to_int) with
         | Some (Json.Bool true), Some fid ->
           held := !held @ [ fid ];
           routable := []
         | _ -> saw_route ())
       | Release -> (
         match Option.bind (Json.member "flow" j) Json.to_int with
         | Some fid ->
           held := List.filter (( <> ) fid) !held;
           routable := []
         | None -> ())
       | Query -> saw_route ()
       | Whatif | Prices -> ()));
    sent_by_kind.(kind_index kind) <- sent_by_kind.(kind_index kind) + 1;
    let record b =
      Buffer.add_string b response;
      Buffer.add_char b '\n'
    in
    (match kind with Admit | Query | Release -> record contract | Whatif | Prices -> ());
    record all;
    incr i
  done;
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  ( { instance = inst.index;
      requests = !i;
      sent_by_kind;
      contract_digest = digest contract;
      all_digest = digest all;
      problems = List.rev !problems },
    Array.of_list (List.rev !lat),
    !failed,
    !spent )

(* Oracle: a Cold session (full enumeration per request, no reuse) fed
   the same client must give byte-identical admit, query and release
   answers.  The client's requests depend only on those answers, so the
   Cold replay sends the same requests as long as they agree.  whatif
   and prices sit outside that contract; {!answer_problem} checked
   their answers when they came.  A refusal is counted as a failed
   request, not as a wrong answer. *)
let cold_mismatches cfg ~run_seed (e : executed) =
  let inst = setup ~mode:Session.Cold cfg ~run_seed e.instance in
  let c, _, _, _ = drive cfg inst in
  e.problems
  @
  if c.requests = e.requests && String.equal c.contract_digest e.contract_digest then []
  else
    [ Printf.sprintf "instance %d: admit/query/release answers differ from a Cold replay"
        e.instance ]

let run ?(cfg = default) ~seed ~budget ~trace () =
  let first = Array.make cfg.instances None and digests = Array.make cfg.instances "" in
  let peak_rss_mb =
    Workload.probe_peak_rss_mb ~units:cfg.instances (fun i ->
        ignore (drive cfg (setup cfg ~run_seed:seed i)))
  in
  (* One repetition of instance [index]; the first one (lane 0, round
     0) is kept for the oracle. *)
  let once index =
    (* Every repetition starts from a collected heap. *)
    Gc.full_major ();
    let inst, dt = Workload.time (fun () -> setup cfg ~run_seed:seed index) in
    let e, l, f, spent = drive cfg inst in
    if Option.is_none first.(index) then begin
      first.(index) <- Some e;
      digests.(index) <- Printf.sprintf "%Ld %s" cfg.topology_seed (op_digest inst.ops)
    end;
    Workload.rep ~unit_index:index ~setup_s:dt ~spent ~ops_s:l ~n_ops:e.requests ~n_failed:f
      e.all_digest
  in
  let l = Workload.rounds ~lanes:2 budget ~units:cfg.instances (fun ~round:_ index -> once index) in
  let reps = l.Workload.reps in
  let run_peak_rss_mb = Host.peak_rss_mb () in
  let executed = Array.to_list (Array.map Option.get first) in
  (* Each request's service time is its fastest repetition's. *)
  let fastest = Workload.fastest_ops ~units:cfg.instances reps in
  let sum_all a = Array.fold_left (fun s l -> Array.fold_left ( +. ) s l) 0.0 a in
  let traced =
    if not trace then None
    else begin
      (* A few more rounds on fresh instances, traced, in this process. *)
      let t, alloc_bytes, major_collections =
        Workload.traced_pass @@ fun () ->
        Workload.rounds (Workload.Rounds Workload.traced_rounds) ~units:cfg.instances
          (fun ~round:_ index -> once index)
      in
      let same =
        List.for_all
          (fun (r : Workload.rep) -> String.equal r.digest (Option.get first.(r.unit_index)).all_digest)
          t.Workload.reps
      in
      if not same then prerr_endline "serve_mix: traced transcript differs from untraced";
      Some
        ( same,
          { Workload.traced_s = sum_all (Workload.fastest_ops ~units:cfg.instances t.Workload.reps);
            untraced_s = sum_all fastest;
            traced_ops = Workload.sum_int (fun r -> r.Workload.n_ops) t.Workload.reps;
            traced_setups = List.length t.Workload.reps;
            extra_layers = [];
            alloc_bytes;
            major_collections } )
    end
  in
  let mismatches = List.concat_map (cold_mismatches cfg ~run_seed:seed) executed in
  let count k =
    List.fold_left (fun a (e : executed) -> a + e.sent_by_kind.(kind_index k)) 0 executed
  in
  let latencies_s = Array.concat (Array.to_list fastest) in
  let best_s = Array.fold_left ( +. ) 0.0 latencies_s in
  let failed = Workload.sum_int (fun r -> r.Workload.n_failed) reps
  and sent_total = Workload.sum_int (fun r -> r.Workload.n_ops) reps
  and spent_total = Workload.sum (fun r -> r.Workload.spent) reps
  and repeats_differ = Workload.repeats_differ reps in
  let n = Array.length latencies_s in
  let checks =
    [ Workload.check "serve_mix.cold_replay" (mismatches = [])
        (Printf.sprintf
           "%d problems in %d instances of %d requests (an instance whose admit/query/release \
            answers differ from a Cold replay; an answer that does not read as JSON)%s"
           (List.length mismatches) (List.length executed) cfg.ops_per_instance
           (match mismatches with [] -> "" | m :: _ -> "; first: " ^ m));
      Workload.check "serve_mix.repeats" (repeats_differ = 0)
        (Printf.sprintf "%d of %d repetitions answer otherwise than their instance's first"
           repeats_differ
           (List.length reps - List.length executed));
      Workload.lanes_check "serve_mix" l ]
    @ (match traced with
        | Some (same, _) ->
          [ Workload.check "serve_mix.traced_transcript" same
              "traced repeat answers byte-identically" ]
        | None -> [])
  in
  let ms p = Stats.percentile latencies_s p *. 1000.0 in
  let metrics =
    [ Workload.metric "requests_per_s" (float_of_int n /. best_s) "1/s";
      Workload.metric "request_p50_ms" (ms 50.0) "ms";
      Workload.metric "request_p99_ms" (ms 99.0) "ms";
      Workload.metric "failed_share"
        (Stats.ratio (float_of_int failed) (float_of_int sent_total)) "ratio";
      Workload.metric "requests_per_s_all_repetitions"
        (float_of_int sent_total /. spent_total) "1/s";
      Workload.metric "peak_rss_mb_run" run_peak_rss_mb "MB";
      Workload.metric "samples" (float_of_int n) "count";
      Workload.metric "instances" (float_of_int (List.length executed)) "count";
      Workload.metric "rounds" (float_of_int (List.fold_left ( + ) 0 l.Workload.rounds_per_lane)) "count" ]
    @ List.map (fun k -> Workload.metric ("sent." ^ kind_name k) (float_of_int (count k)) "count") kinds
  in
  { Workload.op_name = "request";
    attempted = sent_total;
    failed;
    lanes = l.Workload.lanes;
    timed_s = spent_total;
    best_s;
    latencies_s;
    tail_percentile = 99.0;
    setups_s = Workload.fastest_setup ~units:cfg.instances reps;
    throughput = float_of_int n /. best_s;
    checks;
    metrics;
    inputs_digest = Workload.digest_strings (Array.to_list digests);
    peak_rss_mb;
    traced = Option.map snd traced }
