(* perfbench: the repository's end-to-end and per-layer benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Run from the repository root (perfbench/run.sh builds first).  The
   last line of stdout is the result object; the lines before it give
   the run's context and its raw, uncalibrated record. *)

let workloads = [ "cli-scaled"; "serve-cold"; "fleet-warm" ]

exception Watchdog

let usage () =
  prerr_endline
    "usage: perfbench --workload (cli-scaled|serve-cold|fleet-warm) --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some traced when List.mem !workload workloads && seconds > 0. ->
    (!workload, seed, seconds, traced)
  | _ -> usage ()

(* Digest of every source file under lib/, in path order. *)
let lib_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  files "lib"
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let commit () =
  match String.trim (Util.read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown (not a git checkout)"
  | head -> (
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      try String.trim (Util.read_file (Filename.concat ".git" r)) with Sys_error _ -> head)
    | _ -> head)

let () =
  let workload, seed, seconds, traced = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  if not (Calib.pinned_digest_ok ~source:"perfbench/refkernel.ml" ~pin:"perfbench/refkernel.digest")
  then begin
    prerr_endline
      "perfbench: perfbench/refkernel.ml does not match its pinned digest; an edited reference \
       kernel would silently rescale every calibrated number";
    exit 2
  end;
  let tool = Filename.concat (Sys.getcwd ()) "_build/default/bin/cec_tool.exe" in
  if not (Sys.file_exists tool) then begin
    prerr_endline ("perfbench: missing " ^ tool ^ " (run perfbench/run.sh)");
    exit 2
  end;
  Obs.Clock.set Unix.gettimeofday;
  let state = ".bench_work" in
  let work = Filename.concat state (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Util.mkdir_p work;
  let cleanup () =
    Procs.kill_all ();
    Util.rm_rf work
  in
  at_exit cleanup;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Watchdog));
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Watchdog)))
    [ Sys.sigint; Sys.sigterm ];
  ignore (Unix.alarm 170);
  let build =
    Digest.to_hex (Digest.string (Digest.file Sys.executable_name ^ Digest.file tool))
  in
  let env = { Common.workload; seed; seconds; traced; work; state; tool; build } in
  let o = Common.outcome () in
  let result =
    try
      Calib.measure ();
      Ok
        (match workload with
        | "cli-scaled" -> Cli_scaled.run env o
        | "serve-cold" -> Serve_cold.run env o
        | _ -> Fleet_warm.run env o)
    with
    | Watchdog -> Error "watchdog: the run exceeded its time limit"
    | e -> Error (Printexc.to_string e)
  in
  ignore (Unix.alarm 0);
  let result =
    match result with
    | Ok _ when o.Common.attempted = 0 -> Error "the run attempted no request"
    | r -> r
  in
  match result with
  | Error msg ->
    cleanup ();
    prerr_endline ("perfbench: " ^ msg);
    exit 3
  | Ok res ->
    let ref_ms = Calib.raw_ms () in
    let lo, hi = Calib.factor_range () in
    let context =
      Util.obj
        [
          ("nproc", string_of_int nproc);
          ("ocaml", Util.str Sys.ocaml_version);
          ("commit", Util.str (commit ()));
          ("lib_digest", Util.str (lib_digest ()));
          ("kernel_digest", Util.str (Digest.to_hex (Digest.file "perfbench/refkernel.ml")));
          ("ref_kernel_ms", Util.num (Util.median ref_ms));
          ("r0_ms", Util.num Calib.r0_ms);
        ]
    in
    print_endline ("context: " ^ context);
    let metrics, record =
      match res with
      | `E2e (metrics, raws, tail_note) ->
        ( metrics,
          [
            ("raw", Util.obj (List.map (fun (k, v) -> (k, Util.num v)) raws));
            ("tail", Util.str tail_note);
          ] )
      | `Layers values ->
        let path = Filename.concat state (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
        Trace.write path;
        ( Common.layers (("host.ref_ms", Util.median ref_ms) :: values),
          [ ("spans", Util.str path) ] )
    in
    let record =
      Util.obj
        ([
           ("workload", Util.str workload);
           ("seed", string_of_int seed);
           ("traced", string_of_bool traced);
           ( "calibrated",
             Util.obj (List.map (fun (k, v, _) -> (k, Util.num v)) metrics) );
         ]
        @ record
        @ [
            ("r0_over_r", Printf.sprintf "[%s, %s]" (Util.num lo) (Util.num hi));
            ("host.ref_ms", Util.num (Util.median ref_ms));
            ("ref_ms_samples", string_of_int (Array.length ref_ms));
            ( "ref_ms_quartiles",
              Printf.sprintf "[%s, %s, %s]"
                (Util.num (Util.quantile ref_ms 0.25))
                (Util.num (Util.quantile ref_ms 0.5))
                (Util.num (Util.quantile ref_ms 0.75)) );
            ("notes", "[" ^ String.concat ", " (List.map Util.str (List.rev o.Common.notes)) ^ "]");
          ])
    in
    print_endline ("record: " ^ record);
    let correct = o.Common.wrong = 0 && o.Common.drift = 0 in
    print_endline
      (Util.obj
         [
           ("correct", string_of_bool correct);
           ("attempted", string_of_int o.Common.attempted);
           ("failed", string_of_int o.Common.failed);
           ( "metrics",
             Util.obj
               (List.map
                  (fun (k, v, u) -> (k, Util.obj [ ("value", Util.num v); ("unit", Util.str u) ]))
                  metrics) );
         ])
