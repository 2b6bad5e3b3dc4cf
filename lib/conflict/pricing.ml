module Rate = Wsn_radio.Rate
module Pool = Wsn_parallel.Pool

(* The branch-and-bound forest splits into one subtree per root
   candidate — the first candidate (in decreasing best-case-value
   order) the assignment includes — so subtrees can be searched on
   separate domains.  Determinism does not depend on the interleaving:

   - Recording is strict ([value > best], no epsilon), so each subtree
     returns the first-in-its-DFS-order occurrence of its maximum, and
     folding the subtree results in root order with the same strict
     compare yields the first-in-global-DFS-order occurrence of the
     global maximum — exactly what a sequential strict-recording run
     computes.
   - The shared incumbent bound only ever holds the value of some
     explored assignment, hence is [<=] the global maximum, and a
     branch is cut only when its optimistic potential is strictly
     below the bound — such a branch cannot contain any occurrence of
     the maximum, so pruning (however the domains race) never changes
     which occurrence wins. *)

let max_weight_independent ?(eps = 1e-9) model ~weights ~universe =
  Wsn_telemetry.Span.with_span "pricing.exact" @@ fun () ->
  let tbl = Model.rates model in
  let mbps r = Rate.mbps tbl r in
  (* Candidates: positive-weight live links, best-case value first. *)
  let candidates =
    List.filter_map
      (fun l ->
        if weights l <= eps then None
        else
          match Model.alone_best model l with
          | None -> None
          | Some best -> Some (l, weights l, weights l *. mbps best))
      (List.sort_uniq compare universe)
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    |> Array.of_list
  in
  let n = Array.length candidates in
  if n = 0 then None
  else begin
    (* suffix_potential.(i) = best additional value collectable from
       candidates i.. if they were all independent at top rate. *)
    let suffix_potential = Array.make (n + 1) 0.0 in
    for i = n - 1 downto 0 do
      let _, _, potential = candidates.(i) in
      suffix_potential.(i) <- suffix_potential.(i + 1) +. potential
    done;
    (* Monotone incumbent value, shared across subtrees for pruning. *)
    let bound = Atomic.make 0.0 in
    let rec publish v =
      let cur = Atomic.get bound in
      if v > cur && not (Atomic.compare_and_set bound cur v) then publish v
    in
    (* Search one subtree: all assignments whose first included
       candidate is [root].  [try_rates] enumerates the feasible rates
       of candidate [i] given the search state and runs [enter] on
       each; state save/restore brackets the recursion. *)
    let subtree ~try_rates root =
      let best_value = ref 0.0 in
      let best_assignment = ref [] in
      let record assignment value =
        if value > !best_value then begin
          best_value := value;
          best_assignment := List.rev assignment;
          publish value
        end
      in
      let rec branch i assignment value =
        record assignment value;
        if
          i < n
          && value +. suffix_potential.(i) > !best_value
          && value +. suffix_potential.(i) >= Atomic.get bound
        then begin
          let l, w, _ = candidates.(i) in
          try_rates i (fun r -> branch (i + 1) ((l, r) :: assignment) (value +. (w *. mbps r)));
          (* Or skip it. *)
          branch (i + 1) assignment value
        end
      in
      (* A whole subtree strictly below the incumbent cannot contain
         any occurrence of the maximum. *)
      if suffix_potential.(root) >= Atomic.get bound then begin
        let l, w, _ = candidates.(root) in
        try_rates root (fun r -> branch (root + 1) [ (l, r) ] (w *. mbps r))
      end;
      (!best_value, !best_assignment)
    in
    let roots = Array.init n (fun i -> i) in
    let results =
      match Model.kernel model with
      | Some k ->
        (* Incremental search: one [Inc.add] per candidate link serves
           every rate branch (interference is rate-independent).  A
           chosen-rate vector over the current set is feasible iff the
           set is independent and each chosen rate is no faster than
           the member's current maximum — exactly what the naive
           path's per-rate [Model.feasible] calls establish, so both
           paths explore identical branches in identical order.
           [Inc.add] touches only its own state and the kernel's
           read-only tables (never the shared memo), so subtrees with
           per-domain states search one kernel concurrently. *)
        Pool.map (Pool.global ())
          (fun root ->
            let st = Kernel.Inc.start k in
            let chosen = Array.make n 0 in
            let try_rates i enter =
              let l, _, _ = candidates.(i) in
              if Kernel.Inc.add st l then begin
                let sz = Kernel.Inc.size st in
                let members_still_support_chosen =
                  let ok = ref true in
                  for p = 0 to sz - 2 do
                    if chosen.(p) < Kernel.Inc.max_rate st p then ok := false
                  done;
                  !ok
                in
                if members_still_support_chosen then begin
                  let rmin = Kernel.Inc.last_max_rate st in
                  List.iter
                    (fun r ->
                      if r >= rmin then begin
                        chosen.(sz - 1) <- r;
                        enter r
                      end)
                    (Model.alone_rates model l)
                end;
                Kernel.Inc.undo st
              end
            in
            subtree ~try_rates root)
          roots
      | None ->
        (* Arbitrary user models carry closures of unknown
           thread-safety; search their subtrees on the caller only. *)
        Array.map
          (fun root ->
            let rev_assignment = ref [] in
            let try_rates i enter =
              let l, _, _ = candidates.(i) in
              List.iter
                (fun r ->
                  let extended = (l, r) :: !rev_assignment in
                  if Model.feasible model (List.rev extended) then begin
                    rev_assignment := extended;
                    enter r;
                    rev_assignment := List.tl !rev_assignment
                  end)
                (Model.alone_rates model l)
            in
            subtree ~try_rates root)
          roots
    in
    let best_value = ref 0.0 in
    let best_assignment = ref [] in
    Array.iter
      (fun (v, a) ->
        if v > !best_value then begin
          best_value := v;
          best_assignment := a
        end)
      results;
    if !best_assignment = [] then None else Some (!best_assignment, !best_value)
  end
