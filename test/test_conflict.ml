(* Tests for Wsn_conflict: conflict models, independent-set enumeration,
   cliques — including the paper's Section 3.1 worked examples. *)

module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Clique = Wsn_conflict.Clique
module Rate = Wsn_radio.Rate
module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Pcg32 = Wsn_prng.Pcg32
module S2 = Wsn_workload.Scenarios.Scenario_ii

let check = Alcotest.check

let r54 = S2.rate_54

let r36 = S2.rate_36

(* --- declared model: the four-link chain --------------------------- *)

let test_s2_alone_rates () =
  check (Alcotest.list Alcotest.int) "both rates, fastest first" [ r54; r36 ]
    (Model.alone_rates S2.model 0);
  check (Alcotest.option Alcotest.int) "best" (Some r54) (Model.alone_best S2.model 0)

let test_s2_interference_table () =
  let i a b = Model.interferes S2.model a b in
  check Alcotest.bool "0-1 interfere" true (i (0, r54) (1, r54));
  check Alcotest.bool "1-3 interfere" true (i (1, r36) (3, r36));
  check Alcotest.bool "0-3 interfere at 54" true (i (0, r54) (3, r54));
  check Alcotest.bool "0-3 free at 36" false (i (0, r36) (3, r54));
  check Alcotest.bool "symmetric" true (i (3, r54) (0, r54));
  check Alcotest.bool "symmetric relief" false (i (3, r54) (0, r36));
  check Alcotest.bool "same link" true (i (2, r54) (2, r36))

let test_s2_feasibility () =
  check Alcotest.bool "singleton" true (Model.feasible S2.model [ (0, r54) ]);
  check Alcotest.bool "0@36 with 3@54" true (Model.feasible S2.model [ (0, r36); (3, r54) ]);
  check Alcotest.bool "0@54 with 3@54" false (Model.feasible S2.model [ (0, r54); (3, r54) ]);
  check Alcotest.bool "0-1 never" false (Model.feasible S2.model [ (0, r36); (1, r36) ])

let test_s2_feasible_validation () =
  Alcotest.check_raises "repeated link" (Invalid_argument "Model.feasible: repeated link")
    (fun () -> ignore (Model.feasible S2.model [ (0, r54); (0, r36) ]));
  Alcotest.check_raises "bad link" (Invalid_argument "Model.feasible: link out of range")
    (fun () -> ignore (Model.feasible S2.model [ (9, r54) ]))

let test_s2_independent_sets () =
  let sets = Independent.enumerate_sets S2.model ~universe:[ 0; 1; 2; 3 ] in
  (* Singletons {0},{1},{2},{3} and the pair {0,3}. *)
  check Alcotest.int "five independent sets" 5 (List.length sets);
  check Alcotest.bool "pair {0,3} present" true (List.mem [ 0; 3 ] sets)

let test_s2_maximal_sets () =
  let maximal = Independent.maximal_sets S2.model ~universe:[ 0; 1; 2; 3 ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "maximal sets"
    [ [ 0; 3 ]; [ 1 ]; [ 2 ] ]
    (List.sort compare maximal)

let test_s2_pareto_vectors () =
  (* {0,3}: (36,54) wins; (36,36) dominated; 54 on link 0 infeasible. *)
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "pareto of {0,3}"
    [ [ r36; r54 ] ]
    (Independent.pareto_vectors S2.model [ 0; 3 ]);
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "pareto of singleton" [ [ r54 ] ]
    (Independent.pareto_vectors S2.model [ 1 ])

let test_s2_columns () =
  let columns = Independent.columns S2.model ~universe:[ 0; 1; 2; 3 ] in
  check Alcotest.int "four non-dominated columns" 4 (List.length columns);
  let has links mbps =
    List.exists
      (fun (c : Independent.column) -> c.Independent.links = links && c.Independent.mbps = mbps)
      columns
  in
  check Alcotest.bool "{0} at 54" true (has [ 0 ] [| 54.0; 0.0; 0.0; 0.0 |]);
  check Alcotest.bool "{0,3} at (36,54)" true (has [ 0; 3 ] [| 36.0; 0.0; 0.0; 54.0 |])

let test_s2_columns_unfiltered () =
  let columns = Independent.columns ~filter_dominated:false S2.model ~universe:[ 0; 1; 2; 3 ] in
  (* All five sets contribute a Pareto vector. *)
  check Alcotest.int "five raw columns" 5 (List.length columns)

(* --- paper's Section 3.1 clique examples --------------------------- *)

let test_s2_clique_examples () =
  let is_clique c = Clique.is_clique S2.model c in
  check Alcotest.bool "{1@54,2@54,3@54} is a clique" true
    (is_clique [ (0, r54); (1, r54); (2, r54) ]);
  check Alcotest.bool "{1@36,2@36,3@36} is a clique" true
    (is_clique [ (0, r36); (1, r36); (2, r36) ]);
  check Alcotest.bool "all four at 54 is a clique" true
    (is_clique [ (0, r54); (1, r54); (2, r54); (3, r54) ]);
  check Alcotest.bool "{1@36,...,4@54} not a clique (0-3 do not interfere)" false
    (is_clique [ (0, r36); (1, r54); (2, r54); (3, r54) ])

let test_s2_maximality_examples () =
  let universe = [ 0; 1; 2; 3 ] in
  let is_max c = Clique.is_maximal_clique S2.model ~universe c in
  (* {(L1,54),(L2,54),(L3,54)} is a clique but NOT maximal: (L4,54) can
     join. *)
  check Alcotest.bool "54^3 not maximal" false (is_max [ (0, r54); (1, r54); (2, r54) ]);
  (* {(L1,36),(L2,36),(L3,36)} IS maximal: L4 interferes with 2,3 but
     not with L1@36, so it cannot join. *)
  check Alcotest.bool "36^3 maximal" true (is_max [ (0, r36); (1, r36); (2, r36) ]);
  (* Both paper examples of maximal cliques with maximum rates. *)
  check Alcotest.bool "54^4 maximal" true (is_max [ (0, r54); (1, r54); (2, r54); (3, r54) ]);
  check Alcotest.bool "(36,54,54) maximal" true (is_max [ (0, r36); (1, r54); (2, r54) ])

let test_s2_max_rate_cliques () =
  let max_rates = Clique.with_maximum_rates S2.model ~universe:[ 0; 1; 2; 3 ] in
  (* The paper names two: {(L1,54),(L2,54),(L3,54),(L4,54)} and
     {(L1,36),(L2,54),(L3,54)}.  (Cliques within {1,2,3} i.e. links
     2,3,4 at max rates are covered by the all-54 clique.) *)
  check Alcotest.bool "all-54 clique is max-rates" true
    (List.mem [ (0, r54); (1, r54); (2, r54); (3, r54) ] max_rates);
  check Alcotest.bool "(L1@36,L2@54,L3@54) is max-rates" true
    (List.mem [ (0, r36); (1, r54); (2, r54) ] max_rates);
  (* And the non-example: 36^3 is maximal but not max-rates. *)
  check Alcotest.bool "36^3 absent" false (List.mem [ (0, r36); (1, r36); (2, r36) ] max_rates)

let test_s2_maximal_cliques_at_fixed_rates () =
  let at rate_of = Clique.maximal_cliques_at S2.model ~links:[ 0; 1; 2; 3 ] ~rate_of in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "all at 54: one clique" [ [ 0; 1; 2; 3 ] ]
    (at (fun _ -> r54));
  let r2 l = if l = 0 then r36 else r54 in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "R2: two cliques"
    [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ]
    (List.sort compare (at r2))

let test_s2_local_cliques () =
  let rate_of _ = r54 in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "whole chain at 54" [ [ 0; 1; 2; 3 ] ]
    (Clique.local_cliques S2.model ~path_links:[ 0; 1; 2; 3 ] ~rate_of);
  let r2 l = if l = 0 then r36 else r54 in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "R2 windows"
    [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ]
    (Clique.local_cliques S2.model ~path_links:[ 0; 1; 2; 3 ] ~rate_of:r2)

(* --- physical model ------------------------------------------------ *)

let line_topology spacing n =
  Topology.create (Array.init n (fun i -> Point.make (spacing *. float_of_int i) 0.0))

let test_physical_half_duplex () =
  let topo = line_topology 50.0 3 in
  let model = Model.physical topo in
  (* Links 0->1 and 1->2 share node 1: never concurrent. *)
  let l01 =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:0 ~dst:1 with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  let l12 =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:1 ~dst:2 with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  check Alcotest.bool "shared node blocks concurrency" false (Model.independent model [ l01; l12 ]);
  check Alcotest.bool "unique max model" true (Model.has_unique_max model)

let test_physical_far_links_concurrent () =
  (* Two pairs 1000 m apart: fully independent at top rate. *)
  let topo =
    Topology.create
      [|
        Point.make 0.0 0.0; Point.make 50.0 0.0; Point.make 1000.0 0.0; Point.make 1050.0 0.0;
      |]
  in
  let model = Model.physical topo in
  let find s d =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:s ~dst:d with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  let a = find 0 1 and b = find 2 3 in
  (match Model.max_vector model [ a; b ] with
   | Some rates -> check (Alcotest.array Alcotest.int) "both at 54" [| 0; 0 |] rates
   | None -> Alcotest.fail "far links should be independent");
  check Alcotest.bool "feasible at top rates" true (Model.feasible model [ (a, 0); (b, 0) ])

let test_physical_rate_vector_antimonotone () =
  (* Adding a link can only hold or lower every other link's max rate. *)
  let rng = Pcg32.create 21L in
  for _ = 1 to 20 do
    let positions =
      Array.init 8 (fun _ -> Point.make (Pcg32.uniform rng 0.0 400.0) (Pcg32.uniform rng 0.0 400.0))
    in
    let topo = Topology.create positions in
    let model = Model.physical topo in
    let n = Topology.n_links topo in
    if n >= 3 then begin
      let l1 = Pcg32.next_below rng n and l2 = Pcg32.next_below rng n and l3 = Pcg32.next_below rng n in
      if l1 <> l2 && l2 <> l3 && l1 <> l3 then
        match (Model.max_vector model [ l1; l2 ], Model.max_vector model [ l1; l2; l3 ]) with
        | Some small, Some big ->
          (* rate indices: bigger index = slower *)
          if small.(0) > big.(0) || small.(1) > big.(1) then
            Alcotest.fail "adding a link raised a max rate"
        | _, None | None, _ -> ()
    end
  done

let qcheck_independence_antimonotone =
  QCheck.Test.make ~name:"subsets of independent sets are independent" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let positions =
        Array.init 8 (fun _ -> Point.make (Pcg32.uniform rng 0.0 500.0) (Pcg32.uniform rng 0.0 500.0))
      in
      let topo = Topology.create positions in
      let model = Model.physical topo in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let sets = try Independent.enumerate_sets ~max_sets:20_000 model ~universe with Failure _ -> [] in
      List.for_all
        (fun set ->
          match set with
          | [] | [ _ ] -> true
          | _ :: rest -> Model.independent model rest)
        sets)

let qcheck_columns_are_feasible =
  QCheck.Test.make ~name:"every column is a feasible assignment" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let positions =
        Array.init 7 (fun _ -> Point.make (Pcg32.uniform rng 0.0 400.0) (Pcg32.uniform rng 0.0 400.0))
      in
      let topo = Topology.create positions in
      let model = Model.physical topo in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let columns = try Independent.columns ~max_sets:20_000 model ~universe with Failure _ -> [] in
      List.for_all
        (fun (c : Independent.column) ->
          Model.feasible model (List.combine c.Independent.links c.Independent.rates))
        columns)

let test_enumerate_guard () =
  Alcotest.check_raises "set explosion guard"
    (Failure "Independent.enumerate_sets: too many independent sets") (fun () ->
      (* A model where everything is independent: 2^12 sets exceeds 100. *)
      let free =
        Model.declared ~n_links:12 ~rates:Rate.chain_36_54
          ~alone_rates:(fun _ -> [ r54 ])
          ~interferes:(fun (a, _) (b, _) -> a = b)
      in
      ignore (Independent.enumerate_sets ~max_sets:100 free ~universe:(List.init 12 Fun.id)))

let suite =
  [
    Alcotest.test_case "s2 alone rates" `Quick test_s2_alone_rates;
    Alcotest.test_case "s2 interference table" `Quick test_s2_interference_table;
    Alcotest.test_case "s2 feasibility" `Quick test_s2_feasibility;
    Alcotest.test_case "s2 feasible validation" `Quick test_s2_feasible_validation;
    Alcotest.test_case "s2 independent sets" `Quick test_s2_independent_sets;
    Alcotest.test_case "s2 maximal sets" `Quick test_s2_maximal_sets;
    Alcotest.test_case "s2 pareto vectors" `Quick test_s2_pareto_vectors;
    Alcotest.test_case "s2 columns" `Quick test_s2_columns;
    Alcotest.test_case "s2 columns unfiltered" `Quick test_s2_columns_unfiltered;
    Alcotest.test_case "s2 clique examples (paper 3.1)" `Quick test_s2_clique_examples;
    Alcotest.test_case "s2 maximality examples (paper 3.1)" `Quick test_s2_maximality_examples;
    Alcotest.test_case "s2 max-rate cliques (paper 3.1)" `Quick test_s2_max_rate_cliques;
    Alcotest.test_case "s2 cliques at fixed rates" `Quick test_s2_maximal_cliques_at_fixed_rates;
    Alcotest.test_case "s2 local cliques" `Quick test_s2_local_cliques;
    Alcotest.test_case "physical half duplex" `Quick test_physical_half_duplex;
    Alcotest.test_case "physical far links" `Quick test_physical_far_links_concurrent;
    Alcotest.test_case "physical antimonotone rates" `Quick test_physical_rate_vector_antimonotone;
    QCheck_alcotest.to_alcotest qcheck_independence_antimonotone;
    QCheck_alcotest.to_alcotest qcheck_columns_are_feasible;
    Alcotest.test_case "enumeration guard" `Quick test_enumerate_guard;
  ]


(* --- Proposition 3: the column set spans the feasible region --------- *)

let qcheck_proposition3_equivalence =
  (* The LP over dominance-filtered Pareto columns must equal the LP
     over the raw columns of every independent set — the executable form
     of Proposition 3 (only maximal sets with maximum rate vectors are
     needed). *)
  QCheck.Test.make ~name:"proposition 3: filtered columns lose nothing" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let model = Wsn_experiments.Hypothesis.random_model rng ~n_links:4 in
      let path = [ 0; 1; 2; 3 ] in
      let filtered =
        (Wsn_availbw.Path_bandwidth.path_capacity model ~path)
          .Wsn_availbw.Path_bandwidth.bandwidth_mbps
      in
      let unfiltered =
        match
          Wsn_availbw.Bounds.lower_bound_restricted
            ~keep:(fun _ -> true)
            model ~background:[] ~path
        with
        | Some v -> v
        | None -> nan
      in
      Float.abs (filtered -. unfiltered) < 1e-6)

let prop3_suite = [ QCheck_alcotest.to_alcotest qcheck_proposition3_equivalence ]

let suite = suite @ prop3_suite

(* --- greedy max_vector witness on declared models --------------------- *)

let test_declared_max_vector_witness () =
  (* {0,3}: the witness must be the Pareto vector (36, 54). *)
  (match Model.max_vector S2.model [ 0; 3 ] with
   | Some v -> check (Alcotest.array Alcotest.int) "witness (36,54)" [| r36; r54 |] v
   | None -> Alcotest.fail "independent set");
  check Alcotest.bool "conflicting set refused" true (Model.max_vector S2.model [ 0; 1 ] = None)

let witness_suite = [ Alcotest.test_case "declared max_vector witness" `Quick test_declared_max_vector_witness ]

let suite = suite @ witness_suite

(* --- conflict kernel vs. naive reference ---------------------------- *)

(* The bitset kernel behind [Model.physical] must be behaviourally
   invisible: on the same topology every query answers exactly as the
   from-scratch [Model.physical_naive] oracle — including the floats
   behind the rate decisions, so the comparisons are exact, not
   tolerant. *)

let random_topology rng ~nodes ~side =
  let positions =
    Array.init nodes (fun _ -> Point.make (Pcg32.uniform rng 0.0 side) (Pcg32.uniform rng 0.0 side))
  in
  Topology.create positions

let qcheck_kernel_queries_match_naive =
  QCheck.Test.make ~name:"kernel independent/max_vector/feasible = naive" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:8 ~side:450.0 in
      let fast = Model.physical topo in
      let naive = Model.physical_naive topo in
      let n = Topology.n_links topo in
      if n = 0 then true
      else begin
        let ok = ref true in
        for _ = 1 to 50 do
          let size = 1 + Pcg32.next_below rng (min n 5) in
          let set =
            List.sort_uniq compare (List.init size (fun _ -> Pcg32.next_below rng n))
          in
          if Model.independent fast set <> Model.independent naive set then ok := false;
          if Model.max_vector fast set <> Model.max_vector naive set then ok := false;
          let assignment =
            List.map
              (fun l ->
                match Model.alone_rates naive l with
                | [] -> (l, 0)
                | rs -> (l, List.nth rs (Pcg32.next_below rng (List.length rs))))
              set
          in
          if
            List.for_all (fun (l, _) -> Model.alone_rates naive l <> []) assignment
            && Model.feasible fast assignment <> Model.feasible naive assignment
          then ok := false
        done;
        !ok
      end)

let qcheck_kernel_enumeration_matches_naive =
  QCheck.Test.make ~name:"kernel enumerate/maximal/columns = naive" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:7 ~side:450.0 in
      let fast = Model.physical topo in
      let naive = Model.physical_naive topo in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let catching f = try Ok (f ()) with Failure m -> Error m in
      let eq_columns a b =
        match (a, b) with
        | Ok a, Ok b ->
          List.length a = List.length b
          && List.for_all2
               (fun (x : Independent.column) (y : Independent.column) ->
                 x.Independent.links = y.Independent.links
                 && x.Independent.rates = y.Independent.rates
                 && x.Independent.mbps = y.Independent.mbps)
               a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      catching (fun () -> Independent.enumerate_sets ~max_sets:20_000 fast ~universe)
      = catching (fun () -> Independent.enumerate_sets ~max_sets:20_000 naive ~universe)
      && catching (fun () -> Independent.maximal_sets ~max_sets:20_000 fast ~universe)
         = catching (fun () -> Independent.maximal_sets ~max_sets:20_000 naive ~universe)
      && eq_columns
           (catching (fun () -> Independent.columns ~max_sets:20_000 fast ~universe))
           (catching (fun () -> Independent.columns ~max_sets:20_000 naive ~universe))
      && catching (fun () -> List.sort compare (Clique.maximal_rate_coupled_cliques fast ~universe))
         = catching (fun () -> List.sort compare (Clique.maximal_rate_coupled_cliques naive ~universe)))

(* Rates of an [Inc] state against the memoised whole-set answer. *)
let inc_agrees k st =
  let module Inc = Wsn_conflict.Kernel.Inc in
  let members = Inc.members st in
  match Wsn_conflict.Kernel.max_vector k members with
  | None -> members = []
  | Some v -> List.for_all Fun.id (List.mapi (fun p _ -> v.(p) = Inc.max_rate st p) members)

(* A random walk of [add]s and undos (one step in three, after [grow]
   adds-only steps); after every step the add verdict and the
   incremental rates must equal the whole-set answer.  Returns the
   verdict and the largest set reached. *)
let inc_free_walk k rng ~grow ~steps =
  let module Inc = Wsn_conflict.Kernel.Inc in
  let n = Wsn_conflict.Kernel.n_links k in
  let st = Inc.start k in
  let ok = ref true and peak = ref 0 in
  for step = 1 to steps do
    (if step > grow && Pcg32.next_below rng 3 = 0 && Inc.size st > 0 then Inc.undo st
     else
       let l = Pcg32.next_below rng n in
       let before = Inc.members st in
       let added = Inc.add st l in
       let expect = Wsn_conflict.Kernel.max_vector k (before @ [ l ]) in
       if added <> (expect <> None && not (List.mem l before)) then ok := false);
    peak := max !peak (Inc.size st);
    if not (inc_agrees k st) then ok := false
  done;
  (!ok, !peak)

let qcheck_kernel_inc_add_undo =
  QCheck.Test.make ~name:"Kernel.Inc add/undo agrees with whole-set queries" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:8 ~side:450.0 in
      let model = Model.physical topo in
      match Model.kernel model with
      | None -> false
      | Some k -> Wsn_conflict.Kernel.n_links k = 0 || fst (inc_free_walk k rng ~grow:0 ~steps:60))

(* Sender/receiver pairs on a jittered 400 m grid: no link joins two
   pairs, so independent sets grow well past [Inc]'s initial capacity
   of 8 members, while the other pairs' interference still costs
   members rate under SINR and the pair's reverse link is a half-duplex
   rejection. *)
let sparse_pairs_topology rng ~pairs =
  let positions = Array.make (2 * pairs) (Point.make 0.0 0.0) in
  for i = 0 to pairs - 1 do
    let x = (float_of_int (i mod 5) *. 400.0) +. Pcg32.uniform rng 0.0 60.0 in
    let y = (float_of_int (i / 5) *. 400.0) +. Pcg32.uniform rng 0.0 60.0 in
    positions.(2 * i) <- Point.make x y;
    positions.((2 * i) + 1) <- Point.make (x +. Pcg32.uniform rng 10.0 150.0) y
  done;
  Topology.create positions

let qcheck_kernel_inc_growth =
  (* Walks that build sets past the builder's initial capacity, through
     [add] and through [add_sorted]; each starts with adds only, so it
     reaches a maximal set before undos mix in.  The ascending walk
     runs twice on one kernel: the first pass populates the whole-set
     memo (misses), the second replays the same sets from it (cache
     hits). *)
  QCheck.Test.make ~name:"Kernel.Inc grows past its initial capacity: add/add_sorted/undo = whole-set"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = sparse_pairs_topology rng ~pairs:20 in
      match Model.kernel (Model.physical topo) with
      | None -> false
      | Some k ->
        let module Inc = Wsn_conflict.Kernel.Inc in
        let n = Wsn_conflict.Kernel.n_links k in
        let free_ok, free_peak = inc_free_walk k rng ~grow:60 ~steps:260 in
        (* Ascending walk: the next link is one to three ids past the
           last member; after the growth phase, undo one step in four
           and whenever the ids run out. *)
        let steps =
          List.init 300 (fun i -> (i >= 40 && Pcg32.next_below rng 4 = 0, 1 + Pcg32.next_below rng 3))
        in
        let ascending_pass () =
          let st = Inc.start k in
          List.map
            (fun (undo, gap) ->
              let last = if Inc.size st = 0 then -1 else Inc.member st (Inc.size st - 1) in
              let l = last + gap in
              (if (undo || l >= n) && Inc.size st > 0 then Inc.undo st
               else if l < n then ignore (Inc.add_sorted st l : bool));
              (inc_agrees k st, Inc.members st, List.init (Inc.size st) (Inc.max_rate st)))
            steps
        in
        let misses = ascending_pass () in
        let hits = ascending_pass () in
        let asc_peak = List.fold_left (fun acc (_, ms, _) -> max acc (List.length ms)) 0 misses in
        free_ok
        && List.for_all (fun (agrees, _, _) -> agrees) misses
        && misses = hits && free_peak > 8 && asc_peak > 8)

let qcheck_bitset_iter_union =
  (* iter_union must visit exactly the union's members, ascending, each
     once — it is the MAC simulator's busy-accounting walk. *)
  QCheck.Test.make ~name:"Bitset.iter_union = union, ascending, no repeats" ~count:200
    QCheck.(
      pair
        (pair (int_range 1 130) (int_bound 10_000))
        (pair (list_of_size Gen.(int_bound 40) (int_bound 129))
           (list_of_size Gen.(int_bound 40) (int_bound 129))))
    (fun ((universe, _), (xs, ys)) ->
      let module B = Wsn_conflict.Bitset in
      let clip = List.filter (fun v -> v < universe) in
      let xs = clip xs and ys = clip ys in
      let a = B.of_list universe xs and b = B.of_list universe ys in
      let seen = ref [] in
      B.iter_union (fun v -> seen := v :: !seen) a b;
      let got = List.rev !seen in
      let want = List.sort_uniq compare (xs @ ys) in
      got = want)

let kernel_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_kernel_queries_match_naive;
    QCheck_alcotest.to_alcotest qcheck_kernel_enumeration_matches_naive;
    QCheck_alcotest.to_alcotest qcheck_kernel_inc_add_undo;
    QCheck_alcotest.to_alcotest qcheck_kernel_inc_growth;
    QCheck_alcotest.to_alcotest qcheck_bitset_iter_union;
  ]

let suite = suite @ kernel_suite
