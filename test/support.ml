(* Helpers shared by the test modules: files, shell commands, the built
   CLI, and pinned or captured tracing. *)

(* The built CLI, relative to the directory dune runs the tests in. *)
let cli_exe = "../bin/tfiris_cli.exe"

(* Run a shell command; its exit code. *)
let sh fmt = Printf.ksprintf (fun cmd -> Sys.command cmd) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A deterministic clock: first reading is [start], then +[step] per
   reading; restored afterwards. *)
let with_pinned_clock ?(start = 0) ?(step = 1000) f =
  let t = ref (Int64.of_int (start - step)) in
  Tfiris.Obs.Trace.set_clock (fun () ->
      t := Int64.add !t (Int64.of_int step);
      !t);
  Fun.protect f ~finally:Tfiris.Obs.Trace.reset_clock

(* Run [f] with tracing routed into a fresh memory sink, restoring the
   previous sink/enabled state afterwards; returns (result, events). *)
let with_memory_trace ?capacity f =
  let sink, contents = Tfiris.Obs.Trace.memory_sink ?capacity () in
  let prev = Tfiris.Obs.Trace.install sink in
  let r = Fun.protect ~finally:(fun () -> Tfiris.Obs.Trace.restore prev) f in
  (r, contents ())
