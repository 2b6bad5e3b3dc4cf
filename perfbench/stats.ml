let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]; [nan] on no samples. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

(* How many samples lie above the [p]th nearest-rank percentile. *)
let beyond a p =
  let n = Array.length a in
  n - min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let median a = percentile a 50.0

let ratio num den = if den <= 0.0 then 0.0 else num /. den
