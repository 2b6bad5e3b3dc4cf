(* What every workload hands back to the report.  Timed regions cover
   only the library calls; set-up, answer checks and the client's own
   bookkeeping stay outside them.

   A run measures a fixed set of units drawn from the seed (a request
   stream, a query, a simulated day), round after round: every unit
   once per round, until the budget is spent.  A unit's figures come
   from its fastest repetition (on serve_mix, each request's).  Other
   tenants of a shared host slow identical work by up to 1.9x, each
   virtual CPU on its own and at its own times: stretches of a fraction
   of a second to over a minute.  A unit repeated many times, on every
   CPU the run may use, almost always meets one quiet moment, so its
   fastest repetition measures the program, not the neighbours. *)

type budget =
  | Seconds of float  (** Rounds until this much timed work is done; at least one. *)
  | Rounds of int  (** Exactly this many rounds (tests, the traced pass). *)

(* What one repetition of one unit measured. *)
type rep = {
  unit_index : int;
  lane : int;  (** The lane ({!rounds}) that ran it. *)
  setup_s : float;  (** Wall of the unit's set-up. *)
  spent : float;  (** Timed wall. *)
  ops_s : float array;  (** Per-operation service times, in order; empty where not kept. *)
  digest : string;  (** Of the answers: every repetition of a unit must give the same. *)
  n_ops : int;  (** Operations attempted. *)
  n_failed : int;  (** Of which failed. *)
}

type lanes = {
  reps : rep list;  (** Lane 0's repetitions in order, then lane 1's. *)
  lanes : int;
  rounds_per_lane : int list;
  lane_errors : string list;  (** A lane that returned no repetitions, and why. *)
}

(* One lane: call [f ~round i] for every unit [i] of every round until
   [budget] is spent.  A [Seconds] budget always completes the first
   round, then may stop between any two units. *)
let run_lane budget ~units ~lane f =
  let spent = ref 0.0 and round = ref 0 and i = ref 0 and reps = ref [] in
  let finished () =
    match budget with
    | Seconds s -> !round >= 1 && !spent >= s
    | Rounds r -> !round >= r
  in
  while not (finished ()) do
    let r = { (f ~round:!round !i) with lane } in
    reps := r :: !reps;
    spent := !spent +. r.spent;
    incr i;
    if !i = units then begin
      i := 0;
      incr round
    end
  done;
  (List.rev !reps, !round + if !i > 0 then 1 else 0)

(* Run the rounds on up to [lanes] (at most 2) lanes at once, each
   pinned to its own CPU: lane 0 in this process, lane 1 in a forked
   child that runs the same units and hands back what it measured
   (marshalled over a pipe).  The two CPUs of a 2-core VM slow at
   uncorrelated times (correlation 0.1 between the walls of identical
   work run side by side), and running side by side does not slow
   either: the same soak day read 0.166-0.168 s at best pinned alone and
   side by side in one quiet stretch.  So every unit is measured on
   both CPUs through the whole run, with twice the repetitions.  A
   process, not a second domain: two OCaml domains share stop-the-world
   minor collections, which slowed a serve_mix stream's fastest
   repetition by 10-20%.  One lane, unpinned, where fewer than two CPUs
   are allowed.  [f] runs in both processes: its side effects are kept
   only in lane 0's.  The process's own CPU set is restored at the end,
   and the child is always waited for. *)
let rounds ?(lanes = 1) budget ~units f =
  let cpus = Host.allowed_cpus () in
  if lanes < 2 || Array.length cpus < 2 then begin
    let reps, n = run_lane budget ~units ~lane:0 f in
    { reps; lanes = 1; rounds_per_lane = [ n ]; lane_errors = [] }
  end
  else begin
    flush stdout;
    flush stderr;
    let r, w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      let code =
        try
          Host.die_with_parent ();
          ignore (Host.set_cpus [| cpus.(1) |]);
          let reps = run_lane budget ~units ~lane:1 f in
          let oc = Unix.out_channel_of_descr w in
          Marshal.to_channel oc (reps : rep list * int) [];
          close_out oc;
          0
        with _ -> 1
      in
      Unix._exit code
    | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let reaped = ref false in
      let reap () =
        if not !reaped then begin
          reaped := true;
          ignore (Unix.waitpid [] pid)
        end
      in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          if not !reaped then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap ();
          ignore (Host.set_cpus cpus))
        (fun () ->
          ignore (Host.set_cpus [| cpus.(0) |]);
          let mine, n0 = run_lane budget ~units ~lane:0 f in
          let theirs =
            match (Marshal.from_channel ic : rep list * int) with
            | v -> Ok v
            | exception (End_of_file | Failure _) -> Error "lane 1 returned nothing"
          in
          reap ();
          match theirs with
          | Ok (reps, n1) ->
            { reps = mine @ reps; lanes = 2; rounds_per_lane = [ n0; n1 ]; lane_errors = [] }
          | Error e -> { reps = mine; lanes = 2; rounds_per_lane = [ n0 ]; lane_errors = [ e ] })
  end

let rep ?(ops_s = [||]) ?(n_ops = 1) ?(n_failed = 0) ~unit_index ~setup_s ~spent digest =
  { unit_index; lane = 0; setup_s; spent; ops_s; digest; n_ops; n_failed }

(* The run's memory figure: the median, over up to twelve evenly spaced
   units, of the peak resident set of a fresh child process that runs
   that unit alone ({!Host.isolated_peak_rss_mb}).  The peak of the whole
   run is an extreme value: one rare request that enumerates a large
   conflict graph grows the heap by 6 MB, and whether a seed's streams
   hold one moved serve_mix's run peak between 16 and 24 MB. *)
let probe_peak_rss_mb ~units run_unit =
  let probes = min units 12 in
  Stats.median
    (Array.init probes (fun j -> Host.isolated_peak_rss_mb (fun () -> run_unit (j * units / probes))))

(* Per unit, the smallest [field] over its repetitions. *)
let fastest ~units field reps =
  let a = Array.make units infinity in
  List.iter (fun r -> a.(r.unit_index) <- Float.min a.(r.unit_index) (field r)) reps;
  a

let fastest_spent ~units reps = fastest ~units (fun r -> r.spent) reps

(* The fastest set-up of each unit. *)
let fastest_setup ~units reps = fastest ~units (fun r -> r.setup_s) reps

(* Each operation's fastest time over the repetitions of its unit, unit
   by unit.  Every repetition of a unit runs the same operations (the
   workloads check that their answers repeat), so the times line up. *)
let fastest_ops ~units reps =
  let mins = Array.make units [||] in
  List.iter
    (fun r ->
      let m = mins.(r.unit_index) in
      if Array.length m = 0 then mins.(r.unit_index) <- Array.copy r.ops_s
      else if Array.length m <> Array.length r.ops_s then invalid_arg "fastest_ops: operation count"
      else Array.iteri (fun k x -> if x < m.(k) then m.(k) <- x) r.ops_s)
    reps;
  mins

(* Repetitions whose answers differ from their unit's first repetition. *)
let repeats_differ reps =
  let first = Hashtbl.create 64 in
  List.fold_left
    (fun n r ->
      match Hashtbl.find_opt first r.unit_index with
      | None ->
        Hashtbl.add first r.unit_index r.digest;
        n
      | Some d -> if String.equal d r.digest then n else n + 1)
    0 reps

let sum f reps = List.fold_left (fun a r -> a +. f r) 0.0 reps

let sum_int f reps = List.fold_left (fun a r -> a + f r) 0 reps

type check = { name : string; ok : bool; detail : string }

type metric = { m_name : string; value : float; unit : string }

type outcome = {
  op_name : string;  (** What one operation is: request, query, day. *)
  attempted : int;
  failed : int;
  lanes : int;  (** Processes the untraced rounds ran in at once ({!rounds}). *)
  timed_s : float;  (** Timed wall of every repetition. *)
  best_s : float;  (** Sum over units of their fastest repetition's timed wall. *)
  latencies_s : float array;  (** One per operation of each unit's fastest repetition. *)
  tail_percentile : float;
      (** The percentile reported as the latency tail: fixed per workload,
          the highest that leaves about ten samples beyond it in a run. *)
  setups_s : float array;  (** Each unit's fastest set-up in the untraced pass. *)
  throughput : float;  (** Workload units per second of the fastest repetitions. *)
  checks : check list;
  metrics : metric list;  (** The workload's own end-to-end figures. *)
  inputs_digest : string;  (** Digest of every generated input. *)
  peak_rss_mb : float;  (** {!probe_peak_rss_mb} *)
  traced : traced option;
}

and traced = {
  traced_s : float;
      (** Timed wall of the {!traced_rounds} traced rounds, figured as
          [best_s] is: the sum of each unit's (on serve_mix each
          request's) fastest repetition. *)
  untraced_s : float;  (** [best_s] of the untraced rounds. *)
  traced_ops : int;
  traced_setups : int;
  extra_layers : (string * float) list;  (** Workload-specific per-layer totals. *)
  alloc_bytes : float;  (** Allocated during the traced pass. *)
  major_collections : float;
}

(* Rounds of the traced pass.  One traced round would be one sample set
   against the untraced rounds' fastest repetitions; a few, figured the
   same way, compare like with like. *)
let traced_rounds = 3

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run [f] with the library registry and the benchmark's spans on,
   from a clean slate; returns its result with the bytes allocated and
   major collections it caused.  The registry keeps its values for the
   snapshot taken after. *)
let traced_pass f =
  Wsn_telemetry.Registry.reset ();
  Spans.reset ();
  Wsn_telemetry.Registry.set_enabled true;
  Spans.enabled := true;
  let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Spans.enabled := false;
        Wsn_telemetry.Registry.set_enabled false)
      f
  in
  (r, Gc.allocated_bytes () -. a0, float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0))

let check name ok detail = { name; ok; detail }

(* Every lane must have handed back its repetitions. *)
let lanes_check workload l =
  check (workload ^ ".lanes") (l.lane_errors = [])
    (match l.lane_errors with
     | [] -> Printf.sprintf "%d lanes, rounds %s" l.lanes
               (String.concat "+" (List.map string_of_int l.rounds_per_lane))
     | e :: _ -> e)

let metric m_name value unit = { m_name; value; unit }

let digest_strings parts = Digest.to_hex (Digest.string (String.concat "\n" parts))
