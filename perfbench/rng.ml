(* SplitMix64: the benchmark's own input generator, so the inputs a
   seed names do not move when the library's PRNGs change. *)

type t = { mutable s : int64 }

let make seed = { s = seed }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let below t n = min (n - 1) (int_of_float (float t *. float_of_int n))

let exponential t rate = -.log (1.0 -. float t) /. rate

let pick t a = a.(below t (Array.length a))

(* Seed of the [k]-th instance of a workload: a pure function of the
   run seed, the workload name and [k]. *)
let derive seed name k =
  let g = make (Int64.logxor seed (Int64.of_int (Hashtbl.hash name))) in
  for _ = 0 to k do ignore (next g) done;
  Int64.logand (next g) 0x3FFF_FFFF_FFFFL
