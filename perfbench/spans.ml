(* The benchmark's own spans, recorded around the library calls it
   makes.  Off by default; the traced run switches them on together
   with the library's registry.  Spans stay in memory and are written
   out once, at the end of the run. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at the root. *)
  op : int;  (** Request, query or day id the span belongs to. *)
  start_s : float;
  end_s : float;
}

let enabled = ref false

let recorded : span list ref = ref []

let stack : int list ref = ref []

let next_id = ref 0

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let with_span name ~op f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_s = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let end_s = Unix.gettimeofday () in
        stack := List.tl !stack;
        recorded := { id; name; parent; op; start_s; end_s } :: !recorded)
      f
  end

(* In start order: a span's id is taken when it opens. *)
let all () = List.sort (fun a b -> compare a.id b.id) !recorded

let duration s = s.end_s -. s.start_s

(* Total duration of every span named [name]. *)
let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 !recorded

let to_jsonl oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"op\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
        s.id s.name s.parent s.op s.start_s s.end_s)
    (all ())
