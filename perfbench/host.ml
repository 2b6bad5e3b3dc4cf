(* Facts about the machine a result was measured on, so walls from
   different hosts or batches can be put side by side. *)

let read_file path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

let field_of text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | Some text -> Option.value (field_of text "model name") ~default:"unknown"
  | None -> "unknown"

let nproc () = Domain.recommended_domain_count ()

(* Peak resident set of this process in MB (VmHWM); falls back to the
   OCaml major heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    match read_file "/proc/self/status" with
    | None -> None
    | Some text -> (
      match field_of text "VmHWM" with
      | Some v -> (
        match String.split_on_char ' ' v |> List.filter (( <> ) "") with
        | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
        | [] -> None)
      | None -> None)
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Peak resident set of a child process that runs [f] alone: the
   pages it shares with this process when forked plus what [f] adds.
   This process's own peak is untouched, and the figure does not depend
   on what ran before: the OCaml 5.1 runtime keeps the heap it has grown,
   so in one process every later peak would include the largest earlier
   one.  [nan] when [f] raises.  Call with no other domain running. *)
let isolated_peak_rss_mb f =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v = try f (); peak_rss_mb () with _ -> nan in
    let s = Printf.sprintf "%h" v in
    ignore (Unix.write_substring w s 0 (String.length s));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let s = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Option.value (float_of_string_opt s) ~default:nan

(* Two fixed loops whose wall times rate the host at the moment of the
   run: an integer/float loop (core speed) and a dependent random walk
   over 32 MB (memory latency, which neighbours on a shared host move
   far more than core speed).  Median of five each. *)
let calibration_mem_s () =
  let n = 1 lsl 22 in
  let next = Array.init n (fun i -> (i * 2654435761 + 12345) land (n - 1)) in
  let once () =
    let t0 = Unix.gettimeofday () in
    let j = ref 0 in
    for _ = 1 to 1_000_000 do
      j := Array.unsafe_get next !j
    done;
    ignore (Sys.opaque_identity !j);
    Unix.gettimeofday () -. t0
  in
  Stats.median (Array.init 5 (fun _ -> once ()))

let calibration_s () =
  let once () =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 and x = ref 1.0 in
    for i = 1 to 20_000_000 do
      acc := (!acc * 1103515245 + i) land 0xFFFFFFF;
      x := !x +. (float_of_int (!acc land 1023) *. 1e-9)
    done;
    ignore (Sys.opaque_identity !x);
    Unix.gettimeofday () -. t0
  in
  Stats.median (Array.init 5 (fun _ -> once ()))

(* The CPUs this process may run on, ascending; empty where affinity is
   not available. *)
external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"

(* Restrict the calling thread to [cpus]; false when refused. *)
external set_cpus : int array -> bool = "perfbench_set_cpus"

(* Have the kernel kill this (forked) process when its parent ends;
   nothing where that is not available. *)
external die_with_parent : unit -> unit = "perfbench_die_with_parent"
