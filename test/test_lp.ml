(* Tests for Wsn_lp: hand-built LPs with known optima, pathological
   cases, and a brute-force vertex-enumeration oracle on random small
   problems. *)

module Problem = Wsn_lp.Problem
module Tableau = Wsn_lp.Tableau
module Types = Wsn_lp.Types
module Matrix = Wsn_linalg.Matrix
module Vector = Wsn_linalg.Vector

let check = Alcotest.check

let float_tol = Alcotest.float 1e-6

let solve_simple () =
  (* max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12 *)
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:3.0 "x" in
  let y = Problem.add_var lp ~obj:2.0 "y" in
  Problem.add_constraint lp [ (x, 1.0); (y, 1.0) ] Types.Le 4.0;
  Problem.add_constraint lp [ (x, 1.0); (y, 3.0) ] Types.Le 6.0;
  match Problem.solve lp with
  | Problem.Solution s ->
    check float_tol "objective" 12.0 s.Problem.objective;
    check float_tol "x" 4.0 (s.Problem.values x);
    check float_tol "y" 0.0 (s.Problem.values y)
  | _ -> Alcotest.fail "expected optimal"

let solve_with_ge_and_eq () =
  (* min 2x + 3y  s.t. x + y = 10, x >= 4 -> x=10? obj 2*10=20 wait y>=0:
     best y=0, x=10 -> 20.  With x >= 4 not binding. *)
  let lp = Problem.create Types.Minimize in
  let x = Problem.add_var lp ~obj:2.0 "x" in
  let y = Problem.add_var lp ~obj:3.0 "y" in
  Problem.add_constraint lp [ (x, 1.0); (y, 1.0) ] Types.Eq 10.0;
  Problem.add_constraint lp [ (x, 1.0) ] Types.Ge 4.0;
  match Problem.solve lp with
  | Problem.Solution s ->
    check float_tol "objective" 20.0 s.Problem.objective;
    check float_tol "x" 10.0 (s.Problem.values x)
  | _ -> Alcotest.fail "expected optimal"

let solve_infeasible () =
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:1.0 "x" in
  Problem.add_constraint lp [ (x, 1.0) ] Types.Le 1.0;
  Problem.add_constraint lp [ (x, 1.0) ] Types.Ge 2.0;
  match Problem.solve lp with
  | Problem.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let solve_unbounded () =
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:1.0 "x" in
  let y = Problem.add_var lp ~obj:0.0 "y" in
  Problem.add_constraint lp [ (x, 1.0); (y, -1.0) ] Types.Le 1.0;
  match Problem.solve lp with
  | Problem.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let solve_with_upper_bound () =
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:1.0 ~upper:3.0 "x" in
  ignore x;
  match Problem.solve lp with
  | Problem.Solution s -> check float_tol "upper bound binds" 3.0 s.Problem.objective
  | _ -> Alcotest.fail "expected optimal"

let solve_with_lower_bound () =
  (* min x with 2 <= x <= 5 -> 2 *)
  let lp = Problem.create Types.Minimize in
  let x = Problem.add_var lp ~obj:1.0 ~lower:2.0 ~upper:5.0 "x" in
  ignore x;
  match Problem.solve lp with
  | Problem.Solution s -> check float_tol "lower bound binds" 2.0 s.Problem.objective
  | _ -> Alcotest.fail "expected optimal"

let solve_with_free_variable () =
  (* min x  s.t. x >= -7 encoded via free var and Ge row -> -7 *)
  let lp = Problem.create Types.Minimize in
  let x = Problem.add_var lp ~obj:1.0 ~lower:Float.neg_infinity "x" in
  Problem.add_constraint lp [ (x, 1.0) ] Types.Ge (-7.0);
  match Problem.solve lp with
  | Problem.Solution s -> check float_tol "free variable" (-7.0) s.Problem.objective
  | _ -> Alcotest.fail "expected optimal"

let solve_degenerate () =
  (* Degenerate vertex: three constraints through one point. *)
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:1.0 "x" in
  let y = Problem.add_var lp ~obj:1.0 "y" in
  Problem.add_constraint lp [ (x, 1.0); (y, 1.0) ] Types.Le 2.0;
  Problem.add_constraint lp [ (x, 1.0) ] Types.Le 1.0;
  Problem.add_constraint lp [ (y, 1.0) ] Types.Le 1.0;
  match Problem.solve lp with
  | Problem.Solution s -> check float_tol "degenerate optimum" 2.0 s.Problem.objective
  | _ -> Alcotest.fail "expected optimal"

let solve_duplicate_terms () =
  (* Terms on the same variable must accumulate: x + x <= 4 -> x <= 2. *)
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:1.0 "x" in
  Problem.add_constraint lp [ (x, 1.0); (x, 1.0) ] Types.Le 4.0;
  match Problem.solve lp with
  | Problem.Solution s -> check float_tol "accumulated" 2.0 s.Problem.objective
  | _ -> Alcotest.fail "expected optimal"

let solve_negative_rhs () =
  (* -x <= -3 is x >= 3; min x -> 3. *)
  let lp = Problem.create Types.Minimize in
  let x = Problem.add_var lp ~obj:1.0 "x" in
  Problem.add_constraint lp [ (x, -1.0) ] Types.Le (-3.0);
  match Problem.solve lp with
  | Problem.Solution s -> check float_tol "negative rhs" 3.0 s.Problem.objective
  | _ -> Alcotest.fail "expected optimal"

let add_var_validation () =
  let lp = Problem.create Types.Maximize in
  Alcotest.check_raises "upper < lower" (Invalid_argument "Problem.add_var: upper < lower")
    (fun () -> ignore (Problem.add_var lp ~lower:2.0 ~upper:1.0 "bad"))

(* --- brute-force oracle ---------------------------------------------

   For max c.x s.t. Ax <= b, x >= 0 (all-Le, bounded by construction),
   the optimum sits at a vertex: the intersection of n linearly
   independent active constraints drawn from the rows of A and the axes.
   Enumerate all such intersections, keep the feasible ones, take the
   best objective. *)

let gauss_solve a b =
  (* Solve a (n x n) system; None if singular. *)
  let n = Array.length b in
  let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  let rec elim col =
    if col = n then true
    else begin
      let pivot = ref (-1) in
      for i = col to n - 1 do
        if !pivot = -1 && Float.abs m.(i).(col) > 1e-9 then pivot := i
      done;
      if !pivot = -1 then false
      else begin
        let tmp = m.(col) in
        m.(col) <- m.(!pivot);
        m.(!pivot) <- tmp;
        for i = 0 to n - 1 do
          if i <> col then begin
            let f = m.(i).(col) /. m.(col).(col) in
            for j = col to n do
              m.(i).(j) <- m.(i).(j) -. (f *. m.(col).(j))
            done
          end
        done;
        elim (col + 1)
      end
    end
  in
  if elim 0 then Some (Array.init n (fun i -> m.(i).(n) /. m.(i).(i))) else None

let rec choose k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest -> List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

let brute_force_max ~a ~b ~c =
  let m = Array.length a and n = Array.length c in
  (* Constraint rows: A rows (= b) and axes (x_j = 0). *)
  let rows = Array.to_list (Array.mapi (fun i row -> (row, b.(i))) a) in
  let axes = List.init n (fun j -> (Array.init n (fun k -> if k = j then 1.0 else 0.0), 0.0)) in
  let feasible x =
    Array.for_all (fun v -> v >= -1e-7) x
    && List.for_all
         (fun i ->
           let lhs = ref 0.0 in
           Array.iteri (fun j v -> lhs := !lhs +. (a.(i).(j) *. v)) x;
           !lhs <= b.(i) +. 1e-7)
         (List.init m Fun.id)
  in
  let best = ref None in
  List.iter
    (fun combo ->
      let sys_a = Array.of_list (List.map fst combo) in
      let sys_b = Array.of_list (List.map snd combo) in
      match gauss_solve sys_a sys_b with
      | None -> ()
      | Some x ->
        if feasible x then begin
          let obj = ref 0.0 in
          Array.iteri (fun j v -> obj := !obj +. (c.(j) *. v)) x;
          match !best with
          | Some b when b >= !obj -> ()
          | _ -> best := Some !obj
        end)
    (choose n (rows @ axes));
  !best

let qcheck_vs_brute_force =
  (* Random bounded LPs: 3 vars, 3 random Le rows plus a box row. *)
  let gen =
    QCheck.Gen.(
      let coeff = float_range (-3.0) 5.0 in
      let row = array_size (return 3) coeff in
      tup3 (array_size (return 3) row) (array_size (return 3) (float_range 1.0 10.0))
        (array_size (return 3) coeff))
  in
  QCheck.Test.make ~name:"simplex matches vertex enumeration" ~count:300
    (QCheck.make gen) (fun (a_rand, b_rand, c) ->
      (* Add sum(x) <= 20 so the region is bounded. *)
      let a = Array.append a_rand [| [| 1.0; 1.0; 1.0 |] |] in
      let b = Array.append b_rand [| 20.0 |] in
      let senses = Array.make 4 Types.Le in
      let matrix = Matrix.of_rows a in
      match Tableau.solve ~a:matrix ~b ~c ~senses with
      | Tableau.Unbounded -> false (* impossible: region is bounded *)
      | Tableau.Infeasible -> false (* impossible: origin is feasible (b >= 1) *)
      | Tableau.Optimal { objective; x; _ } ->
        let feas =
          Array.for_all (fun v -> v >= -1e-7) x
          && Array.for_all2
               (fun row rhs -> Vector.dot row x <= rhs +. 1e-6)
               (Array.init 4 (fun i -> Matrix.row matrix i))
               b
        in
        feas
        &&
        (match brute_force_max ~a ~b ~c with
         | Some best -> Float.abs (objective -. best) < 1e-5
         | None -> false))

let qcheck_minimize_is_negated_maximize =
  let gen = QCheck.Gen.(array_size (return 2) (float_range (-5.0) 5.0)) in
  QCheck.Test.make ~name:"min c.x = -max (-c).x" ~count:100 (QCheck.make gen) (fun c ->
      let build objective c =
        let lp = Problem.create objective in
        let x = Problem.add_var lp ~obj:c.(0) "x" in
        let y = Problem.add_var lp ~obj:c.(1) "y" in
        Problem.add_constraint lp [ (x, 1.0); (y, 1.0) ] Types.Le 7.0;
        Problem.add_constraint lp [ (x, 1.0) ] Types.Le 4.0;
        Problem.add_constraint lp [ (y, 1.0) ] Types.Le 5.0;
        Problem.solve lp
      in
      match (build Types.Minimize c, build Types.Maximize (Array.map Float.neg c)) with
      | Problem.Solution a, Problem.Solution b ->
        Float.abs (a.Problem.objective +. b.Problem.objective) < 1e-6
      | _ -> false)

let suite =
  [
    Alcotest.test_case "simple maximize" `Quick solve_simple;
    Alcotest.test_case "ge and eq rows" `Quick solve_with_ge_and_eq;
    Alcotest.test_case "infeasible" `Quick solve_infeasible;
    Alcotest.test_case "unbounded" `Quick solve_unbounded;
    Alcotest.test_case "upper bound" `Quick solve_with_upper_bound;
    Alcotest.test_case "lower bound" `Quick solve_with_lower_bound;
    Alcotest.test_case "free variable" `Quick solve_with_free_variable;
    Alcotest.test_case "degenerate vertex" `Quick solve_degenerate;
    Alcotest.test_case "duplicate terms accumulate" `Quick solve_duplicate_terms;
    Alcotest.test_case "negative rhs normalisation" `Quick solve_negative_rhs;
    Alcotest.test_case "add_var validation" `Quick add_var_validation;
    QCheck_alcotest.to_alcotest qcheck_vs_brute_force;
    QCheck_alcotest.to_alcotest qcheck_minimize_is_negated_maximize;
  ]

(* --- standard form and duality --------------------------------------- *)

module Standard_form = Wsn_lp.Standard_form

let test_standard_form_roundtrip () =
  let sf =
    Standard_form.of_canonical
      ~a:[| [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |]
      ~b:[| 4.0; 6.0 |] ~c:[| 3.0; 2.0 |] ~senses:[ Types.Le; Types.Le ]
  in
  match Standard_form.solve sf with
  | Tableau.Optimal { objective; _ } -> check float_tol "same optimum as builder" 12.0 objective
  | _ -> Alcotest.fail "expected optimal"

let test_dual_of_known_lp () =
  (* Primal optimum 12; dual must agree. *)
  let sf =
    Standard_form.of_canonical
      ~a:[| [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |]
      ~b:[| 4.0; 6.0 |] ~c:[| 3.0; 2.0 |] ~senses:[ Types.Le; Types.Le ]
  in
  match Standard_form.duality_gap sf with
  | Some gap -> check (Alcotest.float 1e-6) "no duality gap" 0.0 gap
  | None -> Alcotest.fail "both sides solvable"

let test_dual_rejects_eq () =
  let sf =
    Standard_form.of_canonical ~a:[| [| 1.0 |] |] ~b:[| 1.0 |] ~c:[| 1.0 |] ~senses:[ Types.Eq ]
  in
  Alcotest.check_raises "Eq rejected"
    (Invalid_argument "Standard_form.dual: Eq rows need free duals") (fun () ->
      ignore (Standard_form.dual sf))

let qcheck_strong_duality =
  (* Random bounded-feasible primals: strong duality must hold. *)
  let gen =
    QCheck.Gen.(
      let coeff = float_range 0.1 4.0 in
      tup2 (array_size (return 3) (array_size (return 3) coeff))
        (array_size (return 3) coeff))
  in
  QCheck.Test.make ~name:"strong duality on random LPs" ~count:200 (QCheck.make gen)
    (fun (a, c) ->
      (* Non-negative coefficients and positive rhs: primal is feasible
         (origin) and bounded (every variable appears with a positive
         coefficient in some row). *)
      let sf =
        Standard_form.of_canonical ~a ~b:[| 5.0; 7.0; 9.0 |] ~c
          ~senses:[ Types.Le; Types.Le; Types.Le ]
      in
      match Standard_form.duality_gap sf with
      | Some gap -> gap < 1e-5
      | None -> false)

let duality_suite =
  [
    Alcotest.test_case "standard form roundtrip" `Quick test_standard_form_roundtrip;
    Alcotest.test_case "dual of known LP" `Quick test_dual_of_known_lp;
    Alcotest.test_case "dual rejects Eq" `Quick test_dual_rejects_eq;
    QCheck_alcotest.to_alcotest qcheck_strong_duality;
  ]

let suite = suite @ duality_suite

(* --- dual values from the tableau ------------------------------------ *)

let test_duals_known_lp () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6: optimum (4, 0), the
     second row is slack, so y = (3, 0). *)
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:3.0 "x" in
  let y = Problem.add_var lp ~obj:2.0 "y" in
  ignore x;
  ignore y;
  Problem.add_constraint lp [ (x, 1.0); (y, 1.0) ] Types.Le 4.0;
  Problem.add_constraint lp [ (x, 1.0); (y, 3.0) ] Types.Le 6.0;
  match Problem.solve lp with
  | Problem.Solution s ->
    check float_tol "dual of binding row" 3.0 s.Problem.row_duals.(0);
    check float_tol "dual of slack row" 0.0 s.Problem.row_duals.(1);
    check float_tol "strong duality y.b"
      s.Problem.objective
      ((s.Problem.row_duals.(0) *. 4.0) +. (s.Problem.row_duals.(1) *. 6.0))
  | _ -> Alcotest.fail "expected optimal"

let qcheck_duals_certify_optimum =
  (* On random bounded LPs: y >= 0, y.b = objective and A'y >= c. *)
  let gen =
    QCheck.Gen.(
      let coeff = float_range 0.1 4.0 in
      tup2 (array_size (return 3) (array_size (return 3) coeff)) (array_size (return 3) coeff))
  in
  QCheck.Test.make ~name:"tableau duals certify optimality" ~count:200 (QCheck.make gen)
    (fun (a, c) ->
      let b = [| 5.0; 7.0; 9.0 |] in
      let senses = Array.make 3 Types.Le in
      match Tableau.solve ~a:(Matrix.of_rows a) ~b ~c ~senses with
      | Tableau.Optimal { objective; duals; _ } ->
        let yb = Vector.dot duals b in
        Array.for_all (fun yi -> yi >= -1e-7) duals
        && Float.abs (yb -. objective) < 1e-5
        && List.for_all
             (fun j ->
               let col = Array.map (fun row -> row.(j)) a in
               Vector.dot duals col >= c.(j) -. 1e-6)
             [ 0; 1; 2 ]
      | _ -> false)

let qcheck_duals_with_ge_rows =
  (* Mixed senses: min-like structure via Ge rows, still certified. *)
  QCheck.Test.make ~name:"duals certify with Ge rows" ~count:200
    QCheck.(pair (float_range 0.5 3.0) (float_range 0.5 3.0))
    (fun (p, q) ->
      (* max -x - y  s.t. x + y >= p, x >= q  -> x = max q p? optimum
         x = max q (p - y)... solved by solver; we only check the
         certificate. *)
      let a = [| [| 1.0; 1.0 |]; [| 1.0; 0.0 |] |] in
      let b = [| p; q |] in
      let c = [| -1.0; -1.0 |] in
      let senses = [| Types.Ge; Types.Ge |] in
      match Tableau.solve ~a:(Matrix.of_rows a) ~b ~c ~senses with
      | Tableau.Optimal { objective; duals; _ } ->
        (* For Ge rows in a maximisation, duals are <= 0. *)
        Array.for_all (fun yi -> yi <= 1e-7) duals
        && Float.abs (Vector.dot duals b -. objective) < 1e-6
      | _ -> false)

let dual_value_suite =
  [
    Alcotest.test_case "duals of known LP" `Quick test_duals_known_lp;
    QCheck_alcotest.to_alcotest qcheck_duals_certify_optimum;
    QCheck_alcotest.to_alcotest qcheck_duals_with_ge_rows;
  ]

let suite = suite @ dual_value_suite

let test_problem_introspection () =
  let lp = Problem.create ~name:"demo" Types.Maximize in
  let x = Problem.add_var lp ~obj:1.0 "speed" in
  Problem.add_constraint lp ~name:"cap" [ (x, 1.0) ] Types.Le 3.0;
  check Alcotest.string "problem name" "demo" (Problem.name lp);
  check Alcotest.string "var name" "speed" (Problem.var_name lp x);
  check Alcotest.int "n_vars" 1 (Problem.n_vars lp);
  check Alcotest.int "n_constraints" 1 (Problem.n_constraints lp);
  let rendered = Format.asprintf "%a" Problem.pp lp in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "pp mentions the variable" true (contains rendered "speed")

let introspection_suite = [ Alcotest.test_case "problem introspection" `Quick test_problem_introspection ]

let suite = suite @ introspection_suite

(* --- flat-layout parity: row-major rewrite vs the Matrix tableau ----- *)

(* Verbatim core of the previous Matrix-backed Tableau (telemetry
   stripped).  The flat rewrite claims *bit-identical* floats, not just
   equal optima, because it preserves the order of every float op; this
   reference pins that claim against the old layout. *)
module Ref_tableau = struct
  type result =
    | Optimal of { x : Vector.t; objective : float; duals : Vector.t }
    | Unbounded
    | Infeasible

  let eps = 1e-9

  type tab = {
    mutable t : Matrix.t;
    m : int;
    mutable ncols : int;
    mutable cap : int;
    basis : int array;
    n_struct : int;
    n_art : int;
  }

  let rhs tab i = Matrix.get tab.t i tab.cap
  let reduced_cost tab j = Matrix.get tab.t tab.m j
  let is_artificial tab j = j >= tab.n_struct && j < tab.n_struct + tab.n_art

  let price_out tab =
    for i = 0 to tab.m - 1 do
      let j = tab.basis.(i) in
      let r = reduced_cost tab j in
      if Float.abs r > 0.0 then Matrix.add_scaled_row tab.t ~src:i ~dst:tab.m (-.r)
    done

  let pivot tab ~row ~col =
    let p = Matrix.get tab.t row col in
    Matrix.scale_row tab.t row (1.0 /. p);
    for i = 0 to tab.m do
      if i <> row then begin
        let coeff = Matrix.get tab.t i col in
        if Float.abs coeff > 0.0 then Matrix.add_scaled_row tab.t ~src:row ~dst:i (-.coeff)
      end
    done;
    tab.basis.(row) <- col

  let entering tab ~allowed ~bland =
    if bland then begin
      let found = ref None in
      (try
         for j = 0 to tab.ncols - 1 do
           if allowed j && reduced_cost tab j < -.eps then begin
             found := Some j;
             raise Exit
           end
         done
       with Exit -> ());
      !found
    end
    else begin
      let best = ref None in
      for j = 0 to tab.ncols - 1 do
        if allowed j then begin
          let r = reduced_cost tab j in
          if r < -.eps then
            match !best with Some (_, rb) when rb <= r -> () | _ -> best := Some (j, r)
        end
      done;
      Option.map fst !best
    end

  let leaving tab ~col =
    let best = ref None in
    for i = 0 to tab.m - 1 do
      let a = Matrix.get tab.t i col in
      if a > eps then begin
        let ratio = rhs tab i /. a in
        match !best with
        | None -> best := Some (i, ratio)
        | Some (bi, br) ->
          if ratio < br -. eps || (ratio < br +. eps && tab.basis.(i) < tab.basis.(bi)) then
            best := Some (i, ratio)
      end
    done;
    Option.map fst !best

  type phase_outcome = Finished | Unbounded_phase

  let optimise tab ~allowed =
    let max_iters = 200 * (tab.m + tab.ncols + 10) in
    let bland_after = 20 * (tab.m + tab.ncols + 10) in
    let rec loop iter =
      if iter > max_iters then failwith "Ref_tableau.optimise: iteration cap exceeded";
      match entering tab ~allowed ~bland:(iter > bland_after) with
      | None -> Finished
      | Some col -> (
        match leaving tab ~col with
        | None -> Unbounded_phase
        | Some row ->
          pivot tab ~row ~col;
          loop (iter + 1))
    in
    loop 0

  type state = {
    tab : tab;
    n : int;
    first_appended : int;
    flip : float array;
    sig_col : int array;
    mutable appended : int;
  }

  let extract st =
    let tab = st.tab in
    let x = Vector.zeros (st.n + st.appended) in
    for i = 0 to tab.m - 1 do
      let j = tab.basis.(i) in
      if j < st.n then x.(j) <- rhs tab i
      else if j >= st.first_appended then x.(st.n + (j - st.first_appended)) <- rhs tab i
    done;
    let duals = Vector.init tab.m (fun i -> st.flip.(i) *. Matrix.get tab.t tab.m st.sig_col.(i)) in
    Optimal { x; objective = Matrix.get tab.t tab.m tab.cap; duals }

  let solve_raw ~a ~b ~c ~senses =
    let m = Matrix.rows a in
    let n = Matrix.cols a in
    let rows = Array.init m (fun i -> Matrix.row a i) in
    let rhs0 = Array.init m (fun i -> b.(i)) in
    let senses = Array.copy senses in
    let flip = Array.make m 1.0 in
    for i = 0 to m - 1 do
      if rhs0.(i) < 0.0 || (rhs0.(i) = 0.0 && senses.(i) = Types.Ge) then begin
        rows.(i) <- Vector.scale (-1.0) rows.(i);
        rhs0.(i) <- (if rhs0.(i) = 0.0 then 0.0 else -.rhs0.(i));
        flip.(i) <- -1.0;
        senses.(i) <-
          (match senses.(i) with Types.Le -> Types.Ge | Types.Ge -> Types.Le | Types.Eq -> Types.Eq)
      end
    done;
    let n_slack =
      Array.fold_left (fun k s -> match s with Types.Le | Types.Ge -> k + 1 | Types.Eq -> k) 0 senses
    in
    let n_art =
      Array.fold_left (fun k s -> match s with Types.Ge | Types.Eq -> k + 1 | Types.Le -> k) 0 senses
    in
    let n_struct = n + n_slack in
    let ncols = n_struct + n_art in
    let t = Matrix.zeros (m + 1) (ncols + 1) in
    let basis = Array.make m (-1) in
    let slack_cursor = ref n in
    let art_cursor = ref n_struct in
    let sig_col = Array.make m (-1) in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        Matrix.set t i j rows.(i).(j)
      done;
      Matrix.set t i ncols rhs0.(i);
      (match senses.(i) with
       | Types.Le ->
         Matrix.set t i !slack_cursor 1.0;
         basis.(i) <- !slack_cursor;
         sig_col.(i) <- !slack_cursor;
         incr slack_cursor
       | Types.Ge ->
         Matrix.set t i !slack_cursor (-1.0);
         incr slack_cursor;
         Matrix.set t i !art_cursor 1.0;
         basis.(i) <- !art_cursor;
         sig_col.(i) <- !art_cursor;
         incr art_cursor
       | Types.Eq ->
         Matrix.set t i !art_cursor 1.0;
         basis.(i) <- !art_cursor;
         sig_col.(i) <- !art_cursor;
         incr art_cursor)
    done;
    let tab = { t; m; ncols; cap = ncols; basis; n_struct; n_art } in
    if n_art > 0 then begin
      for j = n_struct to ncols - 1 do
        Matrix.set t m j 1.0
      done;
      price_out tab;
      (match optimise tab ~allowed:(fun j -> j < tab.ncols) with
       | Unbounded_phase -> failwith "Ref_tableau.solve: phase 1 unbounded (impossible)"
       | Finished -> ());
      let phase1_value = -.rhs tab m in
      if phase1_value > 1e-7 then raise Exit
    end;
    for i = 0 to m - 1 do
      if is_artificial tab tab.basis.(i) then begin
        let found = ref None in
        for j = 0 to n_struct - 1 do
          if !found = None && Float.abs (Matrix.get t i j) > eps then found := Some j
        done;
        match !found with Some j -> pivot tab ~row:i ~col:j | None -> ()
      end
    done;
    for j = 0 to tab.cap do
      Matrix.set t m j 0.0
    done;
    for j = 0 to n - 1 do
      Matrix.set t m j (-.c.(j))
    done;
    price_out tab;
    let st = { tab; n; first_appended = n_struct + n_art; flip; sig_col; appended = 0 } in
    match optimise tab ~allowed:(fun j -> not (is_artificial tab j)) with
    | Unbounded_phase -> (Unbounded, None)
    | Finished -> (extract st, Some st)

  let solve_open ~a ~b ~c ~senses = try solve_raw ~a ~b ~c ~senses with Exit -> (Infeasible, None)

  let add_column st ~coeffs ~cost =
    let tab = st.tab in
    if tab.ncols >= tab.cap then begin
      let cap' = (2 * tab.cap) + 8 in
      let t' = Matrix.zeros (tab.m + 1) (cap' + 1) in
      for i = 0 to tab.m do
        for j = 0 to tab.ncols - 1 do
          Matrix.set t' i j (Matrix.get tab.t i j)
        done;
        Matrix.set t' i cap' (Matrix.get tab.t i tab.cap)
      done;
      tab.t <- t';
      tab.cap <- cap'
    end;
    let j = tab.ncols in
    tab.ncols <- j + 1;
    let a' = Array.make tab.m 0.0 in
    List.iter
      (fun (i, v) ->
        if i < 0 || i >= tab.m then invalid_arg "Ref_tableau.add_column: row out of range";
        a'.(i) <- a'.(i) +. (st.flip.(i) *. v))
      coeffs;
    for i = 0 to tab.m - 1 do
      if a'.(i) <> 0.0 then begin
        let s = st.sig_col.(i) in
        for r = 0 to tab.m do
          Matrix.set tab.t r j (Matrix.get tab.t r j +. (a'.(i) *. Matrix.get tab.t r s))
        done
      end
    done;
    Matrix.set tab.t tab.m j (Matrix.get tab.t tab.m j -. cost);
    let xi = st.n + st.appended in
    st.appended <- st.appended + 1;
    xi

  let reoptimize st =
    let tab = st.tab in
    match optimise tab ~allowed:(fun j -> not (is_artificial tab j)) with
    | Unbounded_phase -> Unbounded
    | Finished -> extract st
end

let results_bit_identical r_new r_old =
  match (r_new, r_old) with
  | Tableau.Unbounded, Ref_tableau.Unbounded -> true
  | Tableau.Infeasible, Ref_tableau.Infeasible -> true
  | ( Tableau.Optimal { x; objective; duals },
      Ref_tableau.Optimal { x = rx; objective = robj; duals = rduals } ) ->
    Float.equal objective robj
    && Array.length x = Array.length rx
    && Array.for_all2 Float.equal x rx
    && Array.for_all2 Float.equal duals rduals
  | _ -> false

let parity_gen =
  QCheck.Gen.(
    let coeff = float_range (-3.0) 4.0 in
    tup4
      (array_size (return 3) (array_size (return 3) coeff))
      (array_size (return 3) (float_range (-4.0) 8.0))
      (array_size (return 3) (oneofl [ Types.Le; Types.Ge; Types.Eq ]))
      (array_size (return 3) coeff))

let qcheck_flat_parity_solve =
  (* Mixed senses and negative right-hand sides exercise phase 1, row
     flips and the artificial drive-out on both layouts. *)
  QCheck.Test.make ~name:"flat tableau bit-identical to Matrix layout" ~count:500
    (QCheck.make parity_gen) (fun (rows, b, senses, c) ->
      let a = Matrix.of_rows rows in
      results_bit_identical (Tableau.solve ~a ~b ~c ~senses)
        (fst (Ref_tableau.solve_open ~a ~b ~c ~senses)))

let qcheck_flat_parity_warm =
  (* The warm path covers add_column's grow-and-blit (appending 9
     columns forces at least one reallocation on both layouts). *)
  QCheck.Test.make ~name:"warm add_column/reoptimize bit-identical to Matrix layout" ~count:200
    (QCheck.make parity_gen) (fun (rows, b, senses, c) ->
      let a = Matrix.of_rows rows in
      match
        ( Tableau.solve_open ~pricing:Tableau.Dantzig ~perturb:false ~a ~b ~c ~senses (),
          Ref_tableau.solve_open ~a ~b ~c ~senses )
      with
      | (_, Some st_new), (_, Some st_old) ->
        let ok = ref true in
        for k = 0 to 8 do
          let coeffs = [ (0, 1.0 +. float_of_int k); (2, -0.5) ] in
          let cost = 1.0 +. (0.25 *. float_of_int k) in
          let i_new = Tableau.add_column st_new ~coeffs ~cost in
          let i_old = Ref_tableau.add_column st_old ~coeffs ~cost in
          if i_new <> i_old then ok := false;
          if not (results_bit_identical (Tableau.reoptimize st_new) (Ref_tableau.reoptimize st_old))
          then ok := false
        done;
        !ok
      | (_, None), (_, None) -> true
      | _ -> false)

let parity_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_flat_parity_solve;
    QCheck_alcotest.to_alcotest qcheck_flat_parity_warm;
  ]

(* --- Devex pricing and perturbation vs the Dantzig reference -------- *)

module Registry = Wsn_telemetry.Registry

let objectives_agree r_a r_b =
  match (r_a, r_b) with
  | Tableau.Unbounded, Tableau.Unbounded -> true
  | Tableau.Infeasible, Tableau.Infeasible -> true
  | Tableau.Optimal { objective = o1; _ }, Tableau.Optimal { objective = o2; _ } ->
    Float.abs (o1 -. o2) <= 1e-6 *. (1.0 +. Float.abs o2)
  | _ -> false

let qcheck_devex_parity =
  (* Devex pricing plus degenerate-pivot perturbation may walk a
     different vertex sequence than Dantzig, but the clean-up pass
     guarantees an exact optimum of the same problem: objectives must
     agree on the cold solve and on every warm resolve. *)
  QCheck.Test.make ~name:"Devex+perturb warm path matches Dantzig objectives" ~count:200
    (QCheck.make parity_gen) (fun (rows, b, senses, c) ->
      let a = Matrix.of_rows rows in
      match
        ( Tableau.solve_open ~pricing:Tableau.Devex ~perturb:true ~a ~b ~c ~senses (),
          Tableau.solve_open ~pricing:Tableau.Dantzig ~perturb:false ~a ~b ~c ~senses () )
      with
      | (r1, Some st1), (r2, Some st2) ->
        let ok = ref (objectives_agree r1 r2) in
        for k = 0 to 8 do
          let coeffs = [ (0, 1.0 +. float_of_int k); (2, -0.5) ] in
          let cost = 1.0 +. (0.25 *. float_of_int k) in
          ignore (Tableau.add_column st1 ~coeffs ~cost);
          ignore (Tableau.add_column st2 ~coeffs ~cost);
          if not (objectives_agree (Tableau.reoptimize st1) (Tableau.reoptimize st2)) then
            ok := false
        done;
        !ok
      | (r1, None), (r2, None) -> objectives_agree r1 r2
      | _ -> false)

(* A deliberately degenerate covering master in the Eq. 6 shape:
   [m] unit-capacity rows, singleton seed columns worth 1.0 each, then
   24 warm-appended 3-subset columns with slowly increasing worth.
   Every append prices in against rows that are already tight, so the
   ratio test ties three ways and the basis stays massively
   degenerate — the regime Devex + perturbation exists for. *)
let degenerate_cover_master ~pricing ~perturb =
  let m = 10 in
  let rows = Array.init m (fun i -> Array.init m (fun j -> if i = j then 1.0 else 0.0)) in
  let a = Matrix.of_rows rows in
  let b = Array.make m 1.0 in
  let senses = Array.make m Types.Le in
  let c = Array.make m 1.0 in
  match Tableau.solve_open ~pricing ~perturb ~a ~b ~c ~senses () with
  | _, None -> Alcotest.fail "cover master: expected a warm state"
  | _, Some st ->
    let final = ref Tableau.Infeasible in
    for k = 0 to 23 do
      let base = k * 7 in
      let coeffs =
        [ (base mod m, 1.0); ((base + 3) mod m, 1.0); ((base + 5) mod m, 1.0) ]
      in
      ignore (Tableau.add_column st ~coeffs ~cost:(3.0 +. (0.1 *. float_of_int (k + 1))));
      final := Tableau.reoptimize st
    done;
    !final

let cover_pivot_regression () =
  let pivots = Registry.counter "lp.pivots" in
  let was = Registry.is_enabled () in
  Registry.set_enabled true;
  let measure ~pricing ~perturb =
    let before = Registry.counter_value pivots in
    let r = degenerate_cover_master ~pricing ~perturb in
    (r, Registry.counter_value pivots - before)
  in
  let r_stab, p_stab = measure ~pricing:Tableau.Devex ~perturb:true in
  let r_ref, p_ref = measure ~pricing:Tableau.Dantzig ~perturb:false in
  Registry.set_enabled was;
  (match (r_stab, r_ref) with
   | Tableau.Optimal { objective = o1; _ }, Tableau.Optimal { objective = o2; _ } ->
     check float_tol "same optimum" o2 o1
   | _ -> Alcotest.fail "cover master: expected optimal on both arms");
  if p_stab > p_ref then
    Alcotest.failf "stabilised arm pivoted more (%d) than the Dantzig reference (%d)"
      p_stab p_ref;
  (* Pinned ceiling: the stabilised arm currently needs well under this
     many pivots across the 24 resolves; a breach means a pricing or
     perturbation regression, not noise (the instance is fixed). *)
  if p_stab > 120 then
    Alcotest.failf "stabilised pivot count regressed: %d > 120" p_stab

let stabilisation_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_devex_parity;
    Alcotest.test_case "degenerate cover master: pivot regression" `Quick
      cover_pivot_regression;
  ]

(* --- Sensitivity: duals, ranging, and basis-reuse predictions ------- *)

(* max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6: optimum x=4, y=0, obj 12,
   duals (3, 0).  The hand-checkable anchor for every sensitivity
   entry point. *)
let sens_anchor () =
  let lp = Problem.create Types.Maximize in
  let x = Problem.add_var lp ~obj:3.0 "x" in
  let y = Problem.add_var lp ~obj:2.0 "y" in
  Problem.add_constraint lp [ (x, 1.0); (y, 1.0) ] Types.Le 4.0;
  Problem.add_constraint lp [ (x, 1.0); (y, 3.0) ] Types.Le 6.0;
  match Problem.solve_warm lp with
  | Problem.Solution s, Some w -> (lp, x, y, s, w)
  | _ -> Alcotest.fail "sens anchor: expected optimal"

let sens_duals_and_reduced_costs () =
  let _, x, y, s, w = sens_anchor () in
  let d = Problem.warm_duals w in
  check float_tol "dual row 0" 3.0 d.(0);
  check float_tol "dual row 1" 0.0 d.(1);
  check float_tol "warm_duals = row_duals (0)" s.Problem.row_duals.(0) d.(0);
  check float_tol "warm_duals = row_duals (1)" s.Problem.row_duals.(1) d.(1);
  check float_tol "basic x has zero reduced cost" 0.0 (Problem.warm_reduced_cost w x);
  (* z_y = y·a_y - c_y = (3·1 + 0·3) - 2 = 1. *)
  check float_tol "nonbasic y prices at 1" 1.0 (Problem.warm_reduced_cost w y)

let sens_rhs_ranging_and_predict () =
  let _, _, _, _, w = sens_anchor () in
  let dir = [ (0, 1.0) ] in
  let lo, hi = Problem.rhs_ranging w ~dir in
  (* b0 + t: x tracks it until row 1 binds at x = 6 (t = 2); shrinking
     empties x at t = -4. *)
  check float_tol "rhs range lo" (-4.0) lo;
  check float_tol "rhs range hi" 2.0 hi;
  (* Inside the range: linear in the dual, no pivots. *)
  let p = Problem.predict_rhs_delta w ~dir ~t:1.0 in
  Alcotest.(check bool) "in-range is pure basis reuse" false p.Problem.repivoted;
  check float_tol "in-range objective" 15.0 (Problem.objective_exn p.Problem.predicted);
  (* Outside: the dual-simplex fallback must find the true optimum
     (b0 = 7 leaves row 1 binding: x = 6, obj 18). *)
  let p = Problem.predict_rhs_delta w ~dir ~t:3.0 in
  Alcotest.(check bool) "out-of-range repivots" true p.Problem.repivoted;
  check float_tol "out-of-range objective" 18.0 (Problem.objective_exn p.Problem.predicted);
  (* Prediction never mutates the warm state. *)
  check float_tol "warm state rolled back" 12.0 (Problem.objective_exn (Problem.resolve w))

let sens_obj_predict () =
  let _, x, _, _, w = sens_anchor () in
  (* In range: x stays basic at 4, the objective moves by 4δ. *)
  let p = Problem.predict_obj_delta w x ~delta:(-0.5) in
  Alcotest.(check bool) "in-range obj move reuses basis" false p.Problem.repivoted;
  check float_tol "objective moves by x·delta" 10.0 (Problem.objective_exn p.Problem.predicted);
  (match p.Problem.predicted with
   | Problem.Solution s -> check float_tol "x unchanged in range" 4.0 (s.Problem.values x)
   | _ -> Alcotest.fail "expected solution");
  (* Far out of range (c_x = 0.5): the optimum flips to y = 2, obj 4. *)
  let p = Problem.predict_obj_delta w x ~delta:(-2.5) in
  Alcotest.(check bool) "out-of-range obj move repivots" true p.Problem.repivoted;
  check float_tol "repivoted objective" 4.0 (Problem.objective_exn p.Problem.predicted);
  check float_tol "warm state rolled back" 12.0 (Problem.objective_exn (Problem.resolve w))

(* Random Eq.6-shaped cover masters at the Problem layer: m unit rows,
   singleton seeds, then a chain of add_column/resolve appends — the
   exact usage pattern of Column_gen's warm loop.  Every resolve's
   duals must satisfy the conventions problem.mli documents, because
   the whole sensitivity layer leans on them. *)
type rand_master = {
  rm_b : float array;
  rm_cols : (Problem.var * (int * float) list) list;  (* in append order *)
  rm_objs : float list;  (* objective coefficient per column, same order *)
  rm_warm : Problem.warm;
  rm_outcome : Problem.outcome;
}

let build_random_master seed =
  let rng = Random.State.make [| seed; 0x5e45 |] in
  let m = 4 + Random.State.int rng 5 in
  let b = Array.init m (fun _ -> 0.5 +. Random.State.float rng 2.0) in
  let lp = Problem.create Types.Maximize in
  let singles =
    List.init m (fun i -> (Problem.add_var lp ~obj:1.0 (Printf.sprintf "x%d" i), [ (i, 1.0) ]))
  in
  Array.iteri
    (fun i bi ->
      Problem.add_constraint lp
        (List.filter_map (fun (v, t) -> if List.mem_assoc i t then Some (v, 1.0) else None) singles)
        Types.Le bi)
    b;
  match Problem.solve_warm lp with
  | outcome, Some w ->
    let cols = ref (List.rev singles) and objs = ref (List.rev_map (fun _ -> 1.0) singles) in
    let outcome = ref outcome in
    let n_appends = 4 + Random.State.int rng 9 in
    for _ = 1 to n_appends do
      let r1 = Random.State.int rng m in
      let r2 = (r1 + 1 + Random.State.int rng (m - 1)) mod m in
      let r3 = (r2 + 1 + Random.State.int rng (m - 1)) mod m in
      let terms =
        List.sort_uniq compare [ r1; r2; r3 ]
        |> List.map (fun i -> (i, 0.5 +. Random.State.float rng 1.5))
      in
      let obj = 1.5 +. Random.State.float rng 2.5 in
      let v = Problem.add_column w ~obj terms in
      cols := (v, terms) :: !cols;
      objs := obj :: !objs;
      outcome := Problem.resolve w
    done;
    {
      rm_b = b;
      rm_cols = List.rev !cols;
      rm_objs = List.rev !objs;
      rm_warm = w;
      rm_outcome = !outcome;
    }
  | _ -> Alcotest.fail "random master: expected a warm state"

let dual_conventions_hold rm =
  match rm.rm_outcome with
  | Problem.Unbounded | Problem.Infeasible -> false
  | Problem.Solution s ->
    let m = Array.length rm.rm_b in
    let duals = Problem.warm_duals rm.rm_warm in
    let tol = 1e-6 *. (1.0 +. Float.abs s.Problem.objective) in
    (* Strong duality: Σ duals·b = objective (maximisation form,
       zero constant term). *)
    let yb = ref 0.0 in
    Array.iteri (fun i bi -> yb := !yb +. (duals.(i) *. bi)) rm.rm_b;
    Float.abs (!yb -. s.Problem.objective) <= tol
    && Array.for_all2 Float.equal duals s.Problem.row_duals
    (* Complementary slackness on rows: positive dual ⇒ tight row. *)
    && (let activity = Array.make m 0.0 in
        List.iter
          (fun (v, terms) ->
            let x = s.Problem.values v in
            if x <> 0.0 then
              List.iter (fun (i, a) -> activity.(i) <- activity.(i) +. (a *. x)) terms)
          rm.rm_cols;
        Array.for_all
          (fun i ->
            let slack = rm.rm_b.(i) -. activity.(i) in
            duals.(i) >= -1e-7 && Float.abs (duals.(i) *. slack) <= 1e-6)
          (Array.init m Fun.id))
    (* Dual feasibility + complementary slackness on columns. *)
    && List.for_all
         (fun (v, _) ->
           let rc = Problem.warm_reduced_cost rm.rm_warm v in
           rc >= -1e-7 && Float.abs (rc *. s.Problem.values v) <= 1e-6)
         rm.rm_cols

let qcheck_dual_conventions =
  QCheck.Test.make ~name:"strong duality + complementary slackness on random warm masters"
    ~count:150
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed -> dual_conventions_hold (build_random_master seed))

(* Fresh cold solve of a random master with perturbed data, the oracle
   for both prediction paths. *)
let resolve_fresh rm ~db =
  let lp = Problem.create Types.Maximize in
  let fresh =
    List.map2
      (fun (_, terms) obj -> (Problem.add_var lp ~obj "c", terms))
      rm.rm_cols rm.rm_objs
  in
  Array.iteri
    (fun i bi ->
      Problem.add_constraint lp
        (List.filter_map
           (fun (v, terms) ->
             match List.assoc_opt i terms with Some a -> Some (v, a) | None -> None)
           fresh)
        Types.Le (bi +. db.(i)))
    rm.rm_b;
  Problem.solve lp

let qcheck_predict_rhs_matches_resolve =
  QCheck.Test.make
    ~name:"predict_rhs_delta matches a fresh re-solve, inside and outside the range"
    ~count:150
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let rm = build_random_master seed in
      match rm.rm_outcome with
      | Problem.Unbounded | Problem.Infeasible -> false
      | Problem.Solution s ->
        let rng = Random.State.make [| seed; 0xd14 |] in
        let m = Array.length rm.rm_b in
        let r1 = Random.State.int rng m in
        let r2 = (r1 + 1 + Random.State.int rng (m - 1)) mod m in
        let dir = [ (r1, 1.0); (r2, -0.5) ] in
        let lo, hi = Problem.rhs_ranging rm.rm_warm ~dir in
        let agree t want_repivot =
          let p = Problem.predict_rhs_delta rm.rm_warm ~dir ~t in
          let db = Array.make m 0.0 in
          List.iter (fun (i, d) -> db.(i) <- db.(i) +. (t *. d)) dir;
          let fresh = resolve_fresh rm ~db in
          (match want_repivot with
           | Some expect when p.Problem.repivoted <> expect -> false
           | _ -> true)
          &&
          match (p.Problem.predicted, fresh) with
          | Problem.Infeasible, Problem.Infeasible -> true
          | Problem.Solution ps, Problem.Solution fs ->
            Float.abs (ps.Problem.objective -. fs.Problem.objective)
            <= 1e-6 *. (1.0 +. Float.abs fs.Problem.objective)
          | _ -> false
        in
        let inside =
          (* A step strictly inside the stability interval must come
             off the factorized basis, no pivots. *)
          let t =
            if Float.is_finite hi then 0.7 *. hi
            else if Float.is_finite lo then 0.7 *. lo
            else 0.0
          in
          agree t (Some false)
        in
        let outside =
          (* Past the interval the dual-simplex fallback must still
             land on the true optimum of the perturbed problem. *)
          (not (Float.is_finite hi)) || agree ((2.0 *. hi) +. 1.0) None
        in
        let outside_down =
          (not (Float.is_finite lo)) || agree ((2.0 *. lo) -. 1.0) None
        in
        (* And the warm master is untouched by all of the above. *)
        let unchanged =
          match Problem.resolve rm.rm_warm with
          | Problem.Solution s' ->
            Float.abs (s'.Problem.objective -. s.Problem.objective)
            <= 1e-9 *. (1.0 +. Float.abs s.Problem.objective)
          | _ -> false
        in
        inside && outside && outside_down && unchanged)

(* The rollback buffer a warm state owns is shared by the perturbation
   rollback of [reoptimize] and the re-pivots of [predict_rhs] /
   [predict_cost], and must follow the tableau through capacity
   growths.  Two states built from one solve and fed the same appends
   must agree bit for bit on every resolve, though one of them runs
   out-of-range predictions (save, re-pivot, restore) in between.  The
   master is a unit-capacity cover (heavily degenerate, so perturbation
   fires) with 2m + 12 appends: the tableau starts at 2m columns and
   grows at 2m and at 4m + 8, so every chain crosses two growths. *)
let qcheck_rollback_buffer_chain =
  QCheck.Test.make ~name:"rollback buffer: predictions between resolves leave the chain bit-identical"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0x70b |] in
      let m = 5 + Random.State.int rng 6 in
      let a = Matrix.of_rows (Array.init m (fun i -> Array.init m (fun j -> if i = j then 1.0 else 0.0))) in
      let b = Array.make m 1.0 and c = Array.make m 1.0 in
      let senses = Array.make m Types.Le in
      let open_state () =
        match Tableau.solve_open ~pricing:Tableau.Devex ~perturb:true ~a ~b ~c ~senses () with
        | _, Some st -> st
        | _, None -> QCheck.Test.fail_report "cover master: expected a warm state"
      in
      let plain = open_state () and probed = open_state () in
      let identical r1 r2 =
        match (r1, r2) with
        | Tableau.Optimal o1, Tableau.Optimal o2 ->
          Float.equal o1.objective o2.objective
          && Array.length o1.x = Array.length o2.x
          && Array.for_all2 Float.equal o1.x o2.x
          && Array.for_all2 Float.equal o1.duals o2.duals
        | Tableau.Unbounded, Tableau.Unbounded | Tableau.Infeasible, Tableau.Infeasible -> true
        | _ -> false
      in
      (* Step just past a finite end of the optimality range, so the
         prediction re-pivots behind the snapshot. *)
      let outside (lo, hi) = if Float.is_finite hi then hi +. 0.5 else lo -. 0.5 in
      let ok = ref true in
      let n_cols = ref m in
      for _ = 1 to (2 * m) + 12 do
        let rows = List.init (2 + Random.State.int rng 3) (fun _ -> Random.State.int rng m) in
        let coeffs = List.map (fun i -> (i, 1.0)) (List.sort_uniq compare rows) in
        let cost = 1.5 +. Random.State.float rng 2.0 in
        ignore (Tableau.add_column plain ~coeffs ~cost);
        ignore (Tableau.add_column probed ~coeffs ~cost);
        incr n_cols;
        let dir = [ (Random.State.int rng m, 1.0) ] in
        let rhs_range = Tableau.rhs_ranging probed ~dir in
        if Float.is_finite (fst rhs_range) || Float.is_finite (snd rhs_range) then
          ignore (Tableau.predict_rhs probed ~dir ~t:(outside rhs_range));
        let col = Random.State.int rng !n_cols in
        let cost_range = Tableau.cost_ranging probed col in
        if Float.is_finite (fst cost_range) || Float.is_finite (snd cost_range) then
          ignore (Tableau.predict_cost probed ~col ~delta:(outside cost_range));
        if not (identical (Tableau.reoptimize plain) (Tableau.reoptimize probed)) then
          ok := false
      done;
      !ok)

let sensitivity_suite =
  [
    Alcotest.test_case "sensitivity: duals and reduced costs" `Quick sens_duals_and_reduced_costs;
    Alcotest.test_case "sensitivity: rhs ranging and prediction" `Quick
      sens_rhs_ranging_and_predict;
    Alcotest.test_case "sensitivity: objective-coefficient prediction" `Quick sens_obj_predict;
    QCheck_alcotest.to_alcotest qcheck_dual_conventions;
    QCheck_alcotest.to_alcotest qcheck_predict_rhs_matches_resolve;
    QCheck_alcotest.to_alcotest qcheck_rollback_buffer_chain;
  ]

let suite = suite @ parity_suite @ stabilisation_suite @ sensitivity_suite
