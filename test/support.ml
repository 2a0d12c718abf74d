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

(* Remove a file, or a directory and everything under it. *)
let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

(* Run [f] on a fresh empty directory, removed with its contents
   afterwards. *)
let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* Run the built CLI with [args] (shell syntax); its exit code, stdout
   and stderr. *)
let run_cli args =
  let out = Filename.temp_file "tfiris_cli" ".out" in
  let err = Filename.temp_file "tfiris_cli" ".err" in
  let code =
    sh "%s %s > %s 2> %s" cli_exe args (Filename.quote out) (Filename.quote err)
  in
  let read f =
    let text = read_file f in
    Sys.remove f;
    text
  in
  (code, read out, read err)

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
