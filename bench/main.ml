(* Experiment harness: regenerates every table (T1-T4) and figure
   series (F1-F4) documented in EXPERIMENTS.md, plus one Bechamel
   micro-benchmark per experiment.

   Usage:
     dune exec bench/main.exe            run all experiments + bechamel
     dune exec bench/main.exe t1 f3 ...  run selected experiments
     dune exec bench/main.exe bechamel   run only the micro-benchmarks *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel
module Simclass = Cec_core.Simclass
module Pstats = Proof.Pstats

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let sweeping_engine = Cec.Sweeping Sweep.default_config

let check_case engine case =
  let miter = Circuits.Suite.miter_of case in
  time (fun () -> Cec.check_miter engine miter)

let cert_of report =
  match report.Cec.verdict with
  | Cec.Equivalent cert -> cert
  | Cec.Inequivalent _ -> failwith "benchmark case inequivalent (bug)"
  | Cec.Undecided -> failwith "benchmark case undecided"

(* Collected certificates feed F2 (check time vs proof size). *)
let collected_certificates : (string * Cec.certificate) list ref = ref []

let remember name cert = collected_certificates := (name, cert) :: !collected_certificates

(* --- T1: benchmark characteristics --- *)

let t1 () =
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let miter = Aig.Miter.build golden revised in
        [
          case.Circuits.Suite.name;
          string_of_int (Aig.num_inputs golden);
          string_of_int (Aig.num_outputs golden);
          string_of_int (Aig.num_ands golden);
          string_of_int (Aig.num_ands revised);
          string_of_int (Aig.num_ands miter);
          string_of_int (Aig.depth miter);
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T1: benchmark suite characteristics"
    ~columns:[ "case"; "PIs"; "POs"; "golden ANDs"; "revised ANDs"; "miter ANDs"; "depth" ]
    ~rows

(* --- T2: engine comparison (time, SAT calls, conflicts, merges) --- *)

let t2 () =
  let rows =
    List.map
      (fun case ->
        let mono, mono_t = check_case Cec.Monolithic case in
        let sweep, sweep_t = check_case sweeping_engine case in
        let s = Option.get sweep.Cec.sweep_stats in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms mono_t;
          string_of_int mono.Cec.solver_conflicts;
          Tables.fmt_ms sweep_t;
          string_of_int sweep.Cec.sat_calls;
          string_of_int sweep.Cec.solver_conflicts;
          string_of_int (s.Sweep.merges + s.Sweep.const_merges);
          string_of_int s.Sweep.cex;
          Tables.fmt_ratio mono_t sweep_t;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T2: CEC engines (mono vs sweeping; time in ms)"
    ~columns:
      [
        "case"; "mono ms"; "mono conf"; "sweep ms"; "calls"; "sweep conf"; "merges"; "cex";
        "speedup";
      ]
    ~rows

(* --- T2h: hard instances (time and proof size, both engines) --- *)

let t2h () =
  let rows =
    List.map
      (fun case ->
        let mono, mono_t = check_case Cec.Monolithic case in
        let sweep, sweep_t = check_case sweeping_engine case in
        let ms = Pstats.of_root (cert_of mono).Cec.proof ~root:(cert_of mono).Cec.root in
        let ss = Pstats.of_root (cert_of sweep).Cec.proof ~root:(cert_of sweep).Cec.root in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms mono_t;
          Tables.fmt_ms sweep_t;
          Tables.fmt_ratio mono_t sweep_t;
          string_of_int ms.Pstats.resolutions;
          string_of_int ss.Pstats.resolutions;
          Tables.fmt_ratio (float_of_int ms.Pstats.resolutions) (float_of_int ss.Pstats.resolutions);
        ])
      Circuits.Suite.hard
  in
  Tables.print ~title:"T2h: hard instances (Booth multiplier pairs)"
    ~columns:
      [ "case"; "mono ms"; "sweep ms"; "speedup"; "mono res"; "sweep res"; "proof ratio" ]
    ~rows

(* --- T3: resolution proof sizes, both engines, checker pass --- *)

let t3 () =
  let rows =
    List.map
      (fun case ->
        let name = case.Circuits.Suite.name in
        let mono, _ = check_case Cec.Monolithic case in
        let sweep, _ = check_case sweeping_engine case in
        let mono_cert = cert_of mono and sweep_cert = cert_of sweep in
        remember (name ^ "/mono") mono_cert;
        remember (name ^ "/sweep") sweep_cert;
        let ms = Pstats.of_root mono_cert.Cec.proof ~root:mono_cert.Cec.root in
        let ss = Pstats.of_root sweep_cert.Cec.proof ~root:sweep_cert.Cec.root in
        let checked cert =
          match Cec_core.Certify.validate cert with
          | Ok _ -> "ok"
          | Error _ -> "FAIL"
        in
        [
          name;
          string_of_int ms.Pstats.chains;
          string_of_int ms.Pstats.resolutions;
          string_of_int ss.Pstats.chains;
          string_of_int ss.Pstats.resolutions;
          Tables.fmt_ratio (float_of_int ms.Pstats.resolutions) (float_of_int ss.Pstats.resolutions);
          checked mono_cert;
          checked sweep_cert;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T3: resolution proof size (chains / resolution steps)"
    ~columns:
      [ "case"; "mono chains"; "mono res"; "sweep chains"; "sweep res"; "mono/sweep"; "chk-m"; "chk-s" ]
    ~rows

(* --- T4: trimming the sweeping proofs --- *)

let t4 () =
  (* The monolithic store keeps a chain per learned clause, most of
     which never feed the empty clause; the sweeping store keeps lemma
     derivations, some of which the final refutation never needs.
     Trimming measures both kinds of dead weight. *)
  let trim_stats cert =
    let reachable, total = Proof.Trim.sizes cert.Cec.proof ~root:cert.Cec.root in
    let (trimmed, troot), trim_t =
      time (fun () -> Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root)
    in
    let check_result, check_t =
      time (fun () -> Proof.Checker.check trimmed ~root:troot ~formula:cert.Cec.formula ())
    in
    let ok = match check_result with Ok _ -> "ok" | Error _ -> "FAIL" in
    let pct = 100.0 *. float_of_int (total - reachable) /. float_of_int (max total 1) in
    (total, reachable, pct, trim_t, check_t, ok)
  in
  let rows =
    List.map
      (fun case ->
        let mono, _ = check_case Cec.Monolithic case in
        let sweep, _ = check_case sweeping_engine case in
        let m_total, m_reach, m_pct, _, _, m_ok = trim_stats (cert_of mono) in
        let s_total, s_reach, s_pct, trim_t, check_t, s_ok = trim_stats (cert_of sweep) in
        [
          case.Circuits.Suite.name;
          Printf.sprintf "%d/%d" m_reach m_total;
          Printf.sprintf "%.1f%%" m_pct;
          Printf.sprintf "%d/%d" s_reach s_total;
          Printf.sprintf "%.1f%%" s_pct;
          Tables.fmt_ms trim_t;
          Tables.fmt_ms check_t;
          (if m_ok = "ok" && s_ok = "ok" then "ok" else "FAIL");
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T4: proof trimming (live nodes / store nodes, % trimmed)"
    ~columns:
      [ "case"; "mono live/all"; "mono cut"; "sweep live/all"; "sweep cut"; "trim ms"; "check ms"; "ok" ]
    ~rows

(* --- F1: proof size vs circuit size (adder width sweep) --- *)

let f1_widths = [ 2; 4; 8; 12; 16; 24; 32 ]

let f1 () =
  let rows =
    List.map
      (fun width ->
        let miter =
          Aig.Miter.build (Circuits.Adder.ripple_carry width) (Circuits.Adder.carry_lookahead width)
        in
        let mono, mono_t = time (fun () -> Cec.check_miter Cec.Monolithic miter) in
        let sweep, sweep_t = time (fun () -> Cec.check_miter sweeping_engine miter) in
        let mono_cert = cert_of mono and sweep_cert = cert_of sweep in
        remember (Printf.sprintf "add%d/mono" width) mono_cert;
        remember (Printf.sprintf "add%d/sweep" width) sweep_cert;
        let ms = Pstats.of_root mono_cert.Cec.proof ~root:mono_cert.Cec.root in
        let ss = Pstats.of_root sweep_cert.Cec.proof ~root:sweep_cert.Cec.root in
        [
          string_of_int width;
          string_of_int (Aig.num_ands miter);
          string_of_int ms.Pstats.resolutions;
          string_of_int ss.Pstats.resolutions;
          Tables.fmt_ms mono_t;
          Tables.fmt_ms sweep_t;
        ])
      f1_widths
  in
  Tables.print
    ~title:"F1: proof size scaling on add-rc vs add-cla miters (series: mono, sweep)"
    ~columns:[ "width"; "miter ANDs"; "mono res"; "sweep res"; "mono ms"; "sweep ms" ]
    ~rows

(* --- F2: proof check time vs proof size --- *)

let f2 () =
  if !collected_certificates = [] then
    (* Standalone invocation: gather a few certificates first. *)
    List.iter
      (fun case ->
        let sweep, _ = check_case sweeping_engine case in
        remember case.Circuits.Suite.name (cert_of sweep))
      Circuits.Suite.small;
  let rows =
    List.rev_map
      (fun (name, cert) ->
        let s = Pstats.of_root cert.Cec.proof ~root:cert.Cec.root in
        let result, check_t =
          time (fun () ->
              Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root ~formula:cert.Cec.formula ())
        in
        let ok = match result with Ok _ -> "ok" | Error _ -> "FAIL" in
        [
          name;
          string_of_int s.Pstats.chains;
          string_of_int s.Pstats.resolutions;
          Tables.fmt_ms check_t;
          (if s.Pstats.resolutions = 0 then "-"
           else Printf.sprintf "%.2f" (1e6 *. check_t /. float_of_int s.Pstats.resolutions));
          ok;
        ])
      !collected_certificates
  in
  Tables.print ~title:"F2: proof check time vs proof size (series over all certificates)"
    ~columns:[ "certificate"; "chains"; "resolutions"; "check ms"; "us/res"; "ok" ]
    ~rows

(* --- F3: simulation budget vs SAT calls (ablation) --- *)

let f3 () =
  let miter = Aig.Miter.build (Circuits.Multiplier.array 4) (Circuits.Multiplier.shift_add 4) in
  let rows =
    List.map
      (fun words ->
        let cfg = { Sweep.default_config with Sweep.words } in
        let (outcome, stats), t = time (fun () -> Sweep.run miter cfg) in
        let verdict =
          match outcome with
          | Sweep.Proved _ -> "proved"
          | Sweep.Disproved _ -> "CEX?"
          | Sweep.Unresolved -> "budget"
        in
        let classes, members =
          let simc = Simclass.create miter ~words ~seed:Sweep.default_config.Sweep.seed in
          Simclass.class_stats simc
        in
        [
          string_of_int words;
          string_of_int (64 * words);
          string_of_int classes;
          string_of_int members;
          string_of_int stats.Sweep.sat_calls;
          string_of_int stats.Sweep.cex;
          Tables.fmt_ms t;
          verdict;
        ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Tables.print ~title:"F3: simulation budget vs SAT effort (mul4 array-vs-shift/add)"
    ~columns:[ "words"; "patterns"; "classes"; "members"; "sat calls"; "cex"; "ms"; "verdict" ]
    ~rows

(* --- F4: lemma reuse ablation --- *)

let f4_budget = 20_000

let f4 () =
  let rows =
    List.map
      (fun case ->
        let run lemma_reuse =
          (* The no-lemmas arm can blow up by orders of magnitude, so
             the final call gets a conflict budget; budgeted rows are
             marked and report a lower bound. *)
          let cfg =
            { Sweep.default_config with Sweep.lemma_reuse; max_conflicts = Some f4_budget }
          in
          check_case (Cec.Sweeping cfg) case
        in
        let with_l, t_with = run true in
        let without_l, t_without = run false in
        let conflicts r = r.Cec.solver_conflicts in
        let budgeted = match without_l.Cec.verdict with Cec.Undecided -> ">" | _ -> "" in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms t_with;
          string_of_int (conflicts with_l);
          Tables.fmt_ms t_without;
          budgeted ^ string_of_int (conflicts without_l);
          budgeted
          ^ Tables.fmt_ratio
              (float_of_int (conflicts without_l))
              (float_of_int (max 1 (conflicts with_l)));
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"F4: lemma reuse ablation (sweeping engine)"
    ~columns:[ "case"; "lemmas ms"; "lemmas conf"; "no-lemmas ms"; "no-lemmas conf"; "conf blowup" ]
    ~rows


(* --- T5: fraig functional reduction (the engine as synthesis) --- *)

let t5 () =
  let rows =
    List.map
      (fun case ->
        (* Fraig the structurally inflated (revised) version alone. *)
        let inflated = case.Circuits.Suite.revised () in
        let (reduced, stats), t = time (fun () -> Sweep.fraig inflated Sweep.default_config) in
        [
          case.Circuits.Suite.name;
          string_of_int (Aig.num_ands inflated);
          string_of_int (Aig.num_ands reduced);
          Printf.sprintf "%.1f%%"
            (100.0
            *. float_of_int (Aig.num_ands inflated - Aig.num_ands reduced)
            /. float_of_int (max 1 (Aig.num_ands inflated)));
          string_of_int (stats.Sweep.merges + stats.Sweep.const_merges);
          string_of_int stats.Sweep.sat_calls;
          Tables.fmt_ms t;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T5: fraig functional reduction of the revised netlists"
    ~columns:[ "case"; "ANDs before"; "ANDs after"; "reduction"; "merges"; "sat calls"; "ms" ]
    ~rows

(* --- T7: certified synthesis pipeline (restructure -> cutsweep -> fraig) --- *)

let t7 () =
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () in
        let inflated = case.Circuits.Suite.revised () in
        let swept = Synth.Cutsweep.reduce inflated in
        let fraiged, _ = Sweep.fraig swept Sweep.default_config in
        let fraiged = Aig.cleanup fraiged in
        let certified =
          match (Cec.check sweeping_engine golden fraiged).Cec.verdict with
          | Cec.Equivalent cert -> (
            match Cec_core.Certify.validate_against cert golden fraiged with
            | Ok _ -> "ok"
            | Error _ -> "FAIL")
          | Cec.Inequivalent _ -> "NEQ"
          | Cec.Undecided -> "budget"
        in
        [
          case.Circuits.Suite.name;
          string_of_int (Aig.num_ands golden);
          string_of_int (Aig.num_ands inflated);
          string_of_int (Aig.num_ands swept);
          string_of_int (Aig.num_ands fraiged);
          Printf.sprintf "%.1f%%"
            (100.0
            *. float_of_int (Aig.num_ands inflated - Aig.num_ands fraiged)
            /. float_of_int (max 1 (Aig.num_ands inflated)));
          certified;
        ])
      Circuits.Suite.default
  in
  Tables.print
    ~title:"T7: certified optimization pipeline (revised -> cutsweep -> fraig, checked vs golden)"
    ~columns:[ "case"; "golden"; "revised"; "cutsweep"; "fraig"; "reduction"; "cert" ]
    ~rows

(* --- T6: BDD baseline across the suite --- *)

let t6 () =
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let report, bdd_t = time (fun () -> Bdd.Equiv.check ~max_nodes:1_000_000 golden revised) in
        let verdict =
          match report.Bdd.Equiv.verdict with
          | Bdd.Equiv.Equivalent -> "eq"
          | Bdd.Equiv.Inequivalent _ -> "NEQ"
          | Bdd.Equiv.Blowup -> "BLOWUP"
        in
        let _, sweep_t = check_case sweeping_engine case in
        [
          case.Circuits.Suite.name;
          verdict;
          string_of_int report.Bdd.Equiv.bdd_nodes;
          Tables.fmt_ms bdd_t;
          Tables.fmt_ms sweep_t;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T6: BDD baseline vs sweeping (node cap 1M)"
    ~columns:[ "case"; "bdd verdict"; "bdd nodes"; "bdd ms"; "sweep ms" ]
    ~rows

(* --- F6: where BDDs fall off a cliff (multiplier width sweep) --- *)

let f6 () =
  let rows =
    List.map
      (fun width ->
        let golden = Circuits.Multiplier.array width in
        let revised = Circuits.Rewrite.restructure (Support.Rng.create 5) golden in
        let report, bdd_t = time (fun () -> Bdd.Equiv.check ~max_nodes:1_000_000 golden revised) in
        let bdd_verdict =
          match report.Bdd.Equiv.verdict with
          | Bdd.Equiv.Equivalent -> "eq"
          | Bdd.Equiv.Inequivalent _ -> "NEQ"
          | Bdd.Equiv.Blowup -> "BLOWUP"
        in
        let sweep, sweep_t =
          time (fun () -> Cec.check (Cec.Sweeping Sweep.default_config) golden revised)
        in
        let sweep_verdict, proof_res =
          match sweep.Cec.verdict with
          | Cec.Equivalent cert ->
            let s = Pstats.of_root cert.Cec.proof ~root:cert.Cec.root in
            ("eq+proof", string_of_int s.Pstats.resolutions)
          | Cec.Inequivalent _ -> ("NEQ", "-")
          | Cec.Undecided -> ("budget", "-")
        in
        [
          string_of_int width;
          bdd_verdict;
          string_of_int report.Bdd.Equiv.bdd_nodes;
          Tables.fmt_ms bdd_t;
          sweep_verdict;
          Tables.fmt_ms sweep_t;
          proof_res;
        ])
      [ 4; 6; 8; 10 ]
  in
  Tables.print
    ~title:"F6: BDD cliff on multipliers (mulN array vs restructured; BDD cap 1M nodes)"
    ~columns:[ "width"; "bdd"; "bdd nodes"; "bdd ms"; "sweep"; "sweep ms"; "sweep proof res" ]
    ~rows

(* --- F7: engine-mode ablation (fresh solvers + lifting vs one
       incremental solver with native assumptions) ------------------- *)

let f7 () =
  let rows =
    List.map
      (fun case ->
        let run mode = check_case (Cec.Sweeping { Sweep.default_config with Sweep.mode }) case in
        let fresh, t_fresh = run Sweep.Perpair in
        let inc, t_inc = run Sweep.Incremental in
        let proof_res report =
          let cert = cert_of report in
          (Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Pstats.resolutions
        in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms t_fresh;
          string_of_int fresh.Cec.solver_conflicts;
          string_of_int (proof_res fresh);
          Tables.fmt_ms t_inc;
          string_of_int inc.Cec.solver_conflicts;
          string_of_int (proof_res inc);
          Tables.fmt_ratio t_fresh t_inc;
        ])
      (Circuits.Suite.default @ Circuits.Suite.hard)
  in
  Tables.print
    ~title:"F7: engine mode (fresh solvers + lift vs incremental native assumptions)"
    ~columns:
      [ "case"; "fresh ms"; "fresh conf"; "fresh res"; "inc ms"; "inc conf"; "inc res"; "speedup" ]
    ~rows

(* --- F8: bounded sequential equivalence scaling over frames -------- *)

let f8 () =
  let a = Circuits.Counters.gray_output_binary_counter 6 in
  let b = Circuits.Counters.gray_state_counter 6 in
  let rows =
    List.map
      (fun frames ->
        let ua = Aig.Seq.unroll a ~frames and ub = Aig.Seq.unroll b ~frames in
        let miter_ands = Aig.num_ands (Aig.Miter.build ua ub) in
        let run engine = time (fun () -> Cec.check_bounded ~frames engine a b) in
        let mono, mono_t = run Cec.Monolithic in
        let sweep, sweep_t =
          run (Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental })
        in
        let res report =
          match report.Cec.verdict with
          | Cec.Equivalent cert ->
            string_of_int
              (Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Pstats.resolutions
          | Cec.Inequivalent _ -> "NEQ"
          | Cec.Undecided -> "budget"
        in
        [
          string_of_int frames;
          string_of_int miter_ands;
          Tables.fmt_ms mono_t;
          res mono;
          Tables.fmt_ms sweep_t;
          res sweep;
        ])
      [ 2; 4; 8; 16; 32 ]
  in
  Tables.print
    ~title:"F8: bounded sequential equivalence (6-bit gray counter pair, frames sweep)"
    ~columns:[ "frames"; "miter ANDs"; "mono ms"; "mono res"; "sweep ms"; "sweep res" ]
    ~rows

(* --- P1: parallel partitioned CEC (domain scaling + stitched proofs) --- *)

let p1 () =
  let parallel_cfg num_domains = { Parallel.default_config with Parallel.num_domains } in
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let sweep, sweep_t = check_case sweeping_engine case in
        let run nd = time (fun () -> Parallel.check ~config:(parallel_cfg nd) golden revised) in
        let p1r, t1 = run 1 in
        let _, t2 = run 2 in
        let _, t4 = run 4 in
        let stitched =
          match p1r.Parallel.verdict with
          | Cec.Equivalent cert -> Pstats.of_root cert.Cec.proof ~root:cert.Cec.root
          | Cec.Inequivalent _ | Cec.Undecided -> failwith "benchmark case not proved (bug)"
        in
        let sweep_res =
          (let cert = cert_of sweep in
           Pstats.of_root cert.Cec.proof ~root:cert.Cec.root)
            .Pstats.resolutions
        in
        [
          case.Circuits.Suite.name;
          string_of_int (Array.length p1r.Parallel.stats.Parallel.partitions);
          Tables.fmt_ms sweep_t;
          Tables.fmt_ms t1;
          Tables.fmt_ms t2;
          Tables.fmt_ms t4;
          Tables.fmt_ratio t1 t4;
          string_of_int sweep_res;
          string_of_int stitched.Pstats.resolutions;
        ])
      Circuits.Suite.default
  in
  Tables.print
    ~title:
      "P1: parallel partitioned CEC (per-output jobs, stitched certificate; 1/2/4 domains vs \
       sequential sweeping)"
    ~columns:
      [
        "case"; "parts"; "seq ms"; "1-dom ms"; "2-dom ms"; "4-dom ms"; "scaling"; "seq res";
        "stitched res";
      ]
    ~rows

(* --- P2: certificate store, cold solve vs warm hit --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let p2 () =
  let dir = Filename.temp_file "cecd-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Service.Store.create ~dir () in
  let engine = Service.Engine.default_config in
  let rows =
    List.map
      (fun case ->
        let golden = Service.Key.normalize (case.Circuits.Suite.golden ()) in
        let revised = Service.Key.normalize (case.Circuits.Suite.revised ()) in
        let key = Service.Key.of_pair golden revised in
        (* Cold: the full service path on an empty store — miss, solve,
           persist the certificate. *)
        let result, cold_t =
          time (fun () ->
              match Service.Store.find store key ~golden ~revised with
              | Some _ -> failwith "store not cold (bug)"
              | None ->
                let result = Service.Engine.solve engine golden revised in
                Service.Store.store store key result.Service.Engine.verdict;
                result)
        in
        (* Warm: the same request again — load, reparse and (paranoid
           mode) re-validate the stored certificate. *)
        let reloaded, warm_t = time (fun () -> Service.Store.find store key ~golden ~revised) in
        let status =
          match reloaded with
          | Some (Cec.Equivalent _) -> "equivalent"
          | Some (Cec.Inequivalent _) -> "inequivalent"
          | Some Cec.Undecided | None -> "MISS (bug)"
        in
        let bytes =
          match Unix.stat (Service.Store.entry_path store key) with
          | { Unix.st_size; _ } -> st_size
          | exception Unix.Unix_error _ -> 0
        in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms cold_t;
          Tables.fmt_ms warm_t;
          Tables.fmt_ratio cold_t warm_t;
          status;
          string_of_int bytes;
          string_of_int result.Service.Engine.stats.Cec_core.Parallel.conflicts;
        ])
      Circuits.Suite.default
  in
  Tables.print
    ~title:
      "P2: certificate store, cold solve vs warm paranoid hit (find+solve+store vs \
       find+reparse+revalidate)"
    ~columns:[ "case"; "cold ms"; "warm ms"; "speedup"; "status"; "cert bytes"; "conflicts" ]
    ~rows;
  Format.printf "store: %a@." Service.Store.pp_stats (Service.Store.stats store)

(* --- P3: observability — registry export + instrumentation overhead --- *)

let p3 () =
  (* The p1 workload (4-domain partitioned check over the suite), once
     per case under a fresh registry.  The instrumentation cannot be
     compiled out, so the overhead column is analytic: a micro-timed
     [Counter.incr] cost times the number of counter ticks the case
     recorded, as a share of the case's wall time.  The merged registry
     is exported to BENCH_p3.json so the perf trajectory is tracked in
     machine-readable form from this PR on. *)
  let incr_ns =
    let reg = Obs.Registry.create () in
    let c = Obs.Registry.counter reg "bench.calibrate" in
    let n = 5_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      Obs.Counter.incr c
    done;
    1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let merged = Obs.Registry.create () in
  let config = { Parallel.default_config with Parallel.num_domains = 4 } in
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let reg = Obs.Registry.create () in
        let report, t =
          Obs.with_ambient reg (fun () -> time (fun () -> Parallel.check ~config golden revised))
        in
        (match report.Parallel.verdict with
        | Cec.Equivalent _ -> ()
        | Cec.Inequivalent _ | Cec.Undecided -> failwith "benchmark case not proved (bug)");
        let counters = Obs.Registry.counters reg in
        let value name = try List.assoc name counters with Not_found -> 0 in
        let ticks = List.fold_left (fun acc (_, v) -> acc + v) 0 counters in
        let overhead = 100.0 *. (float_of_int ticks *. incr_ns /. 1e9) /. t in
        Obs.Gauge.set
          (Obs.Registry.gauge merged ("bench.p3." ^ case.Circuits.Suite.name ^ "_ms"))
          (1000.0 *. t);
        Obs.Registry.merge_into ~into:merged reg;
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms t;
          string_of_int (value "sat.conflicts");
          string_of_int (value "sat.propagations");
          string_of_int (value "sweep.sat_calls");
          string_of_int (value "proof.chains");
          string_of_int ticks;
          Printf.sprintf "%.2f%%" overhead;
        ])
      Circuits.Suite.default
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "P3: observability registry over the p1 workload (4 domains; Counter.incr ~ %.1f ns, \
          overhead = ticks x incr / wall)"
         incr_ns)
    ~columns:
      [ "case"; "ms"; "conflicts"; "props"; "SAT calls"; "chains"; "obs ticks"; "overhead" ]
    ~rows;
  Out_channel.with_open_text "BENCH_p3.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p3.json (%d counters)\n"
    (List.length (Obs.Registry.counters merged))

(* --- P5: availability under injected faults --- *)

let p5 () =
  (* A live daemon (2 workers) replays a fixed mix of check requests
     through the retrying client while lib/fault injects crashes and
     store write failures at the configured rates.  Per spec: request
     success rate, p50/p99 client-observed latency, degraded
     (uncertified) answers, typed errors, worker retries, and what a
     post-mortem fsck of the store finds.  Any wrong verdict (a suite
     pair reported anything but equivalent/uncertified) aborts the
     benchmark.  Gauges go to BENCH_p5.json. *)
  let requests = 200 in
  let specs =
    [
      ("clean", "none", None);
      ("worker crash 5%", "worker_crash", Some "worker.crash:0.05@seed=42");
      (* The replay is hit-dominated, so store writes are rare; high
         rates are needed to actually exercise the write-failure path. *)
      ("store faults 50%", "store_write", Some "store.write:0.5,store.torn_write:0.25@seed=42");
      ("combined 5%", "combined", Some "worker.crash:0.05,store.write:0.05@seed=42");
    ]
  in
  let cases = List.filteri (fun i _ -> i < 2) Circuits.Suite.small in
  let merged = Obs.Registry.create () in
  let rows =
    List.map
      (fun (label, slug, spec) ->
        let dir = Filename.temp_file "cecd-p5" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        Fun.protect ~finally:(fun () ->
            Fault.disable ();
            rm_rf dir)
        @@ fun () ->
        let paths =
          List.map
            (fun case ->
              let g = Filename.concat dir (case.Circuits.Suite.name ^ "-g.aig") in
              let r = Filename.concat dir (case.Circuits.Suite.name ^ "-r.aig") in
              Aig.Aiger.write_file g (case.Circuits.Suite.golden ());
              Aig.Aiger.write_file r (case.Circuits.Suite.revised ());
              (g, r))
            cases
        in
        (match spec with
        | None -> Fault.disable ()
        | Some s -> (
          match Fault.parse s with
          | Ok sp -> Fault.install sp
          | Error e -> failwith ("p5: bad fault spec: " ^ e)));
        let socket_path = Filename.concat dir "cecd.sock" in
        let store_dir = Filename.concat dir "store" in
        let cfg =
          {
            (Service.Server.default_config ~socket_path ~store_dir) with
            Service.Server.log = false;
            Service.Server.workers = 2;
          }
        in
        let server = Domain.spawn (fun () -> Service.Server.run cfg) in
        let client = { Service.Client.default_config with Service.Client.base_delay_ms = 10.0 } in
        let rec wait n =
          if n = 0 then failwith "p5: server did not come up"
          else
            match Service.Server.request ~socket_path "ping" with
            | Ok _ -> ()
            | Error _ ->
              Unix.sleepf 0.02;
              wait (n - 1)
        in
        wait 250;
        let lat = Array.make requests 0.0 in
        let succeeded = ref 0 and uncertified = ref 0 and errors = ref 0 in
        for i = 0 to requests - 1 do
          let g, r = List.nth paths (i mod List.length paths) in
          let line = Printf.sprintf "check %s %s" g r in
          let t0 = Unix.gettimeofday () in
          (match Service.Client.request ~config:client ~socket_path line with
          | Ok response -> (
            match Service.Protocol.field "status" response with
            | Some "equivalent" -> incr succeeded
            | Some "uncertified" -> incr uncertified
            | Some other -> failwith (Printf.sprintf "p5: wrong verdict %S under faults" other)
            | None -> incr errors (* typed error response, e.g. worker_crashed *))
          | Error _ -> incr errors);
          lat.(i) <- 1000.0 *. (Unix.gettimeofday () -. t0)
        done;
        ignore (Service.Client.request ~config:client ~socket_path "shutdown");
        let metrics, _store_stats = Domain.join server in
        Fault.disable ();
        let store = Service.Store.create ~startup_fsck:false ~dir:store_dir () in
        let fsck = Service.Store.fsck store in
        Array.sort compare lat;
        let pct p = lat.(min (requests - 1) (int_of_float (p *. float_of_int requests))) in
        let rate = 100.0 *. float_of_int !succeeded /. float_of_int requests in
        let gauge suffix v = Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p5." ^ slug ^ suffix)) v in
        gauge "_success_rate" rate;
        gauge "_p50_ms" (pct 0.50);
        gauge "_p99_ms" (pct 0.99);
        gauge "_uncertified" (float_of_int !uncertified);
        gauge "_errors" (float_of_int !errors);
        gauge "_retried" (float_of_int metrics.Service.Metrics.retried);
        gauge "_quarantined" (float_of_int fsck.Service.Store.quarantined);
        [
          label;
          Printf.sprintf "%.1f%%" rate;
          string_of_int !uncertified;
          string_of_int !errors;
          Tables.fmt_ms (pct 0.50 /. 1000.0);
          Tables.fmt_ms (pct 0.99 /. 1000.0);
          string_of_int metrics.Service.Metrics.retried;
          string_of_int fsck.Service.Store.orphan_tmp;
          string_of_int fsck.Service.Store.quarantined;
        ])
      specs
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "P5: availability under injected faults (%d requests, 2 workers, retrying client; \
          success = equivalent, wrong verdicts abort)"
         requests)
    ~columns:
      [
        "faults"; "success"; "uncert"; "errors"; "p50"; "p99"; "retried"; "orphan tmp";
        "quarantined";
      ]
    ~rows;
  Out_channel.with_open_text "BENCH_p5.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p5.json (%d gauges)\n" (List.length (Obs.Registry.gauges merged))

let p6 () =
  (* Per-pair vs single-instance incremental sweeping on the SAT-bound
     rows of the suite (the mul*/add32 cases that dominate BENCH_p3).
     Each case runs the 4-domain partitioned check once per mode under
     a fresh registry; wall time, SAT calls, conflicts, the queries
     settled by root-fact reuse and the learned clauses carried across
     queries land side by side, and per-case gauges (including the
     speedup) go to BENCH_p6.json. *)
  let merged = Obs.Registry.create () in
  let sat_bound =
    List.filter
      (fun case ->
        let n = case.Circuits.Suite.name in
        String.starts_with ~prefix:"mul" n || String.starts_with ~prefix:"add32" n)
      Circuits.Suite.default
  in
  let config mode =
    {
      Parallel.default_config with
      Parallel.num_domains = 4;
      engine = Cec.Sweeping { Sweep.default_config with Sweep.mode };
    }
  in
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let run mode =
          let reg = Obs.Registry.create () in
          let report, t =
            Obs.with_ambient reg (fun () ->
                time (fun () -> Parallel.check ~config:(config mode) golden revised))
          in
          (match report.Parallel.verdict with
          | Cec.Equivalent _ -> ()
          | Cec.Inequivalent _ | Cec.Undecided -> failwith "benchmark case not proved (bug)");
          (reg, t)
        in
        let reg_pp, t_pp = run Sweep.Perpair in
        let reg_incr, t_incr = run Sweep.Incremental in
        let value reg name = try List.assoc name (Obs.Registry.counters reg) with Not_found -> 0 in
        let speedup = t_pp /. t_incr in
        let name = case.Circuits.Suite.name in
        Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p6." ^ name ^ "_perpair_ms")) (1000.0 *. t_pp);
        Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p6." ^ name ^ "_incr_ms")) (1000.0 *. t_incr);
        Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p6." ^ name ^ "_speedup")) speedup;
        Obs.Registry.merge_into ~into:merged reg_incr;
        [
          name;
          Tables.fmt_ms t_pp;
          Tables.fmt_ms t_incr;
          Printf.sprintf "%.1fx" speedup;
          string_of_int (value reg_pp "sweep.sat_calls");
          string_of_int (value reg_incr "sweep.sat_calls");
          string_of_int (value reg_incr "sweep.incremental_reuse");
          string_of_int (value reg_pp "sat.conflicts");
          string_of_int (value reg_incr "sat.conflicts");
          string_of_int (value reg_incr "sat.clauses_carried");
        ])
      sat_bound
  in
  Tables.print
    ~title:
      "P6: per-pair vs incremental sweeping on the SAT-bound rows (4 domains; one persistent \
       solver per partition in incr mode)"
    ~columns:
      [
        "case"; "perpair ms"; "incr ms"; "speedup"; "calls pp"; "calls incr"; "reused";
        "confl pp"; "confl incr"; "carried";
      ]
    ~rows;
  Out_channel.with_open_text "BENCH_p6.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p6.json (%d gauges)\n" (List.length (Obs.Registry.gauges merged))

(* --- P7: fleet load generator (sharding, zipf skew, failover) --- *)

(* Closed-loop load generation against an in-process fleet: K TCP
   shards behind the router, a pool of distinct pairs whose popularity
   is zipf-skewed (a few hot keys, a long tail — the
   millions-of-users shape), a cold warm-up pass and a measured warm
   phase.  Shard service time is dominated by the [peer.slow] fault
   (50ms stall per accepted connection), which models an I/O-bound
   shard: on any core count the fleet's throughput is then set by how
   well the router spreads connections over shards, which is exactly
   the property under test — warm-hit CPU cost would make the numbers
   core-count-dependent instead.  Wrong verdicts abort the benchmark.
   Results (p50/p99/p999, saturation throughput for 1/2/4 shards, and
   a kill-one-shard failover scenario) go to BENCH_p7.json. *)

let p7_with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () -> f dir

let p7_zipf_cdf n s =
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  Array.map
    (fun w ->
      acc := !acc +. (w /. total);
      !acc)
    weights

let p7_sample rng cdf =
  let u = Support.Rng.float rng in
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 || cdf.(i) >= u then i else go (i + 1) in
  go 0

(* [num] pairs with distinct structural keys; every fourth pair is
   inequivalent so verdict correctness is actually observable. *)
let p7_pairs dir num =
  List.init num (fun i ->
      let width = 4 + i in
      let golden = Circuits.Datapath.parity width in
      let revised = Circuits.Rewrite.double_negate (Circuits.Datapath.parity width) in
      let expected =
        if i mod 4 = 3 then begin
          Aig.set_output revised 0 (Aig.Lit.neg (Aig.output revised 0));
          "inequivalent"
        end
        else "equivalent"
      in
      let g = Filename.concat dir (Printf.sprintf "p7-g%d.aig" i) in
      let r = Filename.concat dir (Printf.sprintf "p7-r%d.aig" i) in
      Aig.Aiger.write_file g golden;
      Aig.Aiger.write_file r revised;
      (Printf.sprintf "check %s %s" g r, expected))
  |> Array.of_list

let p7_await_addr cell what =
  let rec go n =
    if n = 0 then failwith ("p7: no address from " ^ what)
    else
      match Atomic.get cell with
      | Some addr -> addr
      | None ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 500

let p7_start_shard dir id =
  let cell = Atomic.make None in
  let cfg =
    {
      (Service.Server.default_config ~socket_path:"unused"
         ~store_dir:(Filename.concat dir ("store-" ^ id)))
      with
      Service.Server.listen = [ Service.Addr.Tcp ("127.0.0.1", 0) ];
      log = false;
      on_listen = (fun addrs -> Atomic.set cell (Some (List.hd addrs)));
    }
  in
  let domain = Domain.spawn (fun () -> Service.Server.run cfg) in
  (id, p7_await_addr cell ("shard " ^ id), domain)

let p7_start_router ~shards ~replicas =
  let cell = Atomic.make None in
  let cfg =
    {
      (Fleet.Router.default_config
         ~listen:(Service.Addr.Tcp ("127.0.0.1", 0))
         ~shards:(List.map (fun (id, addr, _) -> { Fleet.Router.id; addr }) shards))
      with
      Fleet.Router.replicas;
      workers = 8;
      probe_interval_ms = 200.;
      connect_timeout_ms = 2000.;
      log = false;
      on_listen = (fun addr -> Atomic.set cell (Some addr));
    }
  in
  let domain = Domain.spawn (fun () -> Fleet.Router.run cfg) in
  (p7_await_addr cell "router", domain)

type p7_outcome = {
  latencies : float array;  (* ms, one per answered request *)
  answered : int;
  no_response : int;
  degraded : int;
  typed_errors : int;
  wrong : int;
}

(* [clients] closed-loop generators share one request counter; each
   draws keys from its own seeded zipf stream. *)
let p7_closed_loop ?config ~router ~pairs ~cdf ~clients ~total () =
  let client_cfg =
    match config with
    | Some c -> c
    | None ->
      {
        Service.Client.default_config with
        Service.Client.retries = 3;
        base_delay_ms = 5.0;
        connect_timeout_ms = Some 2000.;
      }
  in
  let next = Atomic.make 0 in
  let run_client c =
    let rng = Support.Rng.create (7701 + c) in
    let lat = ref [] and answered = ref 0 and no_response = ref 0 in
    let degraded = ref 0 and typed = ref 0 and wrong = ref 0 in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let line, expected = pairs.(p7_sample rng cdf) in
        let t0 = Unix.gettimeofday () in
        (match Service.Client.request_to ~config:client_cfg [ router ] line with
        | Error _ -> incr no_response
        | Ok response ->
          incr answered;
          lat := (1000.0 *. (Unix.gettimeofday () -. t0)) :: !lat;
          (match Service.Protocol.field "status" response with
          | Some s when s = expected -> ()
          | Some ("uncertified" | "timeout") -> incr degraded
          | Some _ -> incr wrong
          | None -> incr typed (* typed error: worker_crashed, overloaded, ... *)));
        loop ()
      end
    in
    loop ();
    (!lat, !answered, !no_response, !degraded, !typed, !wrong)
  in
  let domains = List.init clients (fun c -> Domain.spawn (fun () -> run_client c)) in
  let parts = List.map Domain.join domains in
  let latencies =
    Array.of_list (List.concat_map (fun (l, _, _, _, _, _) -> l) parts)
  in
  Array.sort compare latencies;
  let sum f = List.fold_left (fun acc part -> acc + f part) 0 parts in
  {
    latencies;
    answered = sum (fun (_, a, _, _, _, _) -> a);
    no_response = sum (fun (_, _, n, _, _, _) -> n);
    degraded = sum (fun (_, _, _, d, _, _) -> d);
    typed_errors = sum (fun (_, _, _, _, t, _) -> t);
    wrong = sum (fun (_, _, _, _, _, w) -> w);
  }

let p7_pct latencies p =
  let n = Array.length latencies in
  if n = 0 then 0.0 else latencies.(min (n - 1) (int_of_float (p *. float_of_int n)))

let p7 () =
  let num_keys = 16 and zipf_s = 1.1 and clients = 8 and warm_requests = 150 in
  let merged = Obs.Registry.create () in
  let gauge name v = Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p7." ^ name)) v in
  let cdf = p7_zipf_cdf num_keys zipf_s in
  (* The I/O-bound-shard model: every shard connection stalls 50ms.
     Deterministic (rate 1.0), and installed only around the fleet
     phases. *)
  (match Fault.parse "peer.slow:1.0@seed=7" with
  | Ok spec -> Fault.install spec
  | Error e -> failwith ("p7: bad fault spec: " ^ e));
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let run_fleet num_shards =
    p7_with_temp_dir "cecd-p7" @@ fun dir ->
    let pairs = p7_pairs dir num_keys in
    let shards =
      List.init num_shards (fun i -> p7_start_shard dir (Printf.sprintf "s%d" i))
    in
    let router, router_domain = p7_start_router ~shards ~replicas:1 in
    (* Cold pass: populate the stores (not measured). *)
    Array.iter
      (fun (line, expected) ->
        match Service.Server.request_addr router line with
        | Ok response when Service.Protocol.field "status" response = Some expected -> ()
        | Ok response -> failwith ("p7: cold pass answered " ^ response)
        | Error msg -> failwith ("p7: cold pass failed: " ^ msg))
      pairs;
    (* Warm phase, measured: closed-loop zipf traffic. *)
    let t0 = Unix.gettimeofday () in
    let o = p7_closed_loop ~router ~pairs ~cdf ~clients ~total:warm_requests () in
    let wall = Unix.gettimeofday () -. t0 in
    ignore (Service.Server.request_addr router "shutdown");
    ignore (Domain.join router_domain);
    List.iter
      (fun (_, addr, domain) ->
        ignore (Service.Server.request_addr addr "shutdown");
        ignore (Domain.join domain))
      shards;
    if o.wrong > 0 then failwith "p7: wrong verdict under zipf load";
    let rps = float_of_int o.answered /. wall in
    let tag name v = gauge (Printf.sprintf "shards%d_%s" num_shards name) v in
    tag "p50_ms" (p7_pct o.latencies 0.50);
    tag "p99_ms" (p7_pct o.latencies 0.99);
    tag "p999_ms" (p7_pct o.latencies 0.999);
    tag "throughput_rps" rps;
    tag "no_response" (float_of_int o.no_response);
    ( Printf.sprintf "%d" num_shards,
      o,
      rps,
      [
        string_of_int num_shards;
        string_of_int o.answered;
        string_of_int (o.no_response + o.typed_errors);
        Tables.fmt_ms (p7_pct o.latencies 0.50 /. 1000.0);
        Tables.fmt_ms (p7_pct o.latencies 0.99 /. 1000.0);
        Tables.fmt_ms (p7_pct o.latencies 0.999 /. 1000.0);
        Printf.sprintf "%.1f" rps;
      ] )
  in
  let scaling = List.map run_fleet [ 1; 2; 4 ] in
  let rps_of n =
    List.find_map (fun (tag, _, rps, _) -> if tag = string_of_int n then Some rps else None) scaling
    |> Option.get
  in
  let speedup = rps_of 4 /. rps_of 1 in
  gauge "speedup_4v1" speedup;

  (* Failover: 3 shards, replicas = 2, worker crashes injected, one
     shard killed mid-run.  Every request must still get a response
     and no verdict may be wrong. *)
  Fault.disable ();
  (match Fault.parse "peer.slow:1.0,worker.crash:0.02@seed=7" with
  | Ok spec -> Fault.install spec
  | Error e -> failwith ("p7: bad fault spec: " ^ e));
  let failover_row =
    p7_with_temp_dir "cecd-p7f" @@ fun dir ->
    let pairs = p7_pairs dir num_keys in
    let shards = List.init 3 (fun i -> p7_start_shard dir (Printf.sprintf "s%d" i)) in
    let router, router_domain = p7_start_router ~shards ~replicas:2 in
    (* Cold pass under worker.crash: retry until every pair has a
       definite stored verdict, so replication can warm all keys. *)
    Array.iter
      (fun (line, expected) ->
        let rec retry n =
          match Service.Server.request_addr router line with
          | Ok r when Service.Protocol.field "status" r = Some expected -> ()
          | _ when n > 0 -> retry (n - 1)
          | _ -> failwith "p7: failover cold pass did not converge"
        in
        retry 10)
      pairs;
    (* Let the background replicator warm the standby replicas before
       the shard loss, so failover hits are warm. *)
    let rec wait_replicated n =
      if n > 0 then begin
        match Service.Server.request_addr router "stats" with
        | Ok line
          when (match Service.Protocol.field "replicated" line with
               | Some v -> (
                 (* The field crosses the wire: a malformed shard reply
                    must read as "not replicated yet", not tear the
                    bench down from inside a guard. *)
                 match int_of_string_opt v with
                 | Some replicated -> replicated >= num_keys
                 | None ->
                   Printf.eprintf "p7: non-numeric replicated field %S in stats reply\n%!" v;
                   false)
               | None -> false) ->
          ()
        | _ ->
          Unix.sleepf 0.1;
          wait_replicated (n - 1)
      end
    in
    wait_replicated 100;
    let total = 120 in
    let victim_id, victim_addr, victim_domain = List.hd shards in
    let t0 = Unix.gettimeofday () in
    let loadgen =
      Domain.spawn (fun () -> p7_closed_loop ~router ~pairs ~cdf ~clients:4 ~total ())
    in
    (* Kill one shard roughly mid-run (the load takes ~2-3s). *)
    Unix.sleepf 1.0;
    ignore (Service.Server.request_addr victim_addr "shutdown");
    ignore (Domain.join victim_domain);
    let o = Domain.join loadgen in
    let wall = Unix.gettimeofday () -. t0 in
    ignore (Service.Server.request_addr router "shutdown");
    let final = Domain.join router_domain in
    List.iter
      (fun (id, addr, domain) ->
        if id <> victim_id then begin
          ignore (Service.Server.request_addr addr "shutdown");
          ignore (Domain.join domain)
        end)
      shards;
    if o.wrong > 0 then failwith "p7: wrong verdict during failover";
    let failovers =
      Obs.Counter.get (Obs.Registry.counter final "fleet.failovers")
    in
    let response_rate =
      100.0 *. float_of_int o.answered /. float_of_int (o.answered + o.no_response)
    in
    gauge "failover_response_rate" response_rate;
    gauge "failover_wrong" (float_of_int o.wrong);
    gauge "failover_typed_errors" (float_of_int o.typed_errors);
    gauge "failover_recorded" (float_of_int failovers);
    gauge "failover_p99_ms" (p7_pct o.latencies 0.99);
    [
      "3, kill 1";
      string_of_int o.answered;
      string_of_int (o.no_response + o.typed_errors);
      Tables.fmt_ms (p7_pct o.latencies 0.50 /. 1000.0);
      Tables.fmt_ms (p7_pct o.latencies 0.99 /. 1000.0);
      Tables.fmt_ms (p7_pct o.latencies 0.999 /. 1000.0);
      Printf.sprintf "%.1f" (float_of_int o.answered /. wall);
    ]
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "P7: fleet load generator (closed loop, %d clients, %d warm requests, zipf s=%.1f over \
          %d keys, 50ms I/O-bound shards; saturation speedup 4v1 = %.2fx; failover: replicas=2, \
          worker.crash 2%%, one shard killed mid-run)"
         clients warm_requests zipf_s num_keys speedup)
    ~columns:[ "shards"; "answered"; "no-resp/typed"; "p50"; "p99"; "p999"; "rps" ]
    ~rows:(List.map (fun (_, _, _, row) -> row) scaling @ [ failover_row ]);
  Out_channel.with_open_text "BENCH_p7.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p7.json (%d gauges)\n" (List.length (Obs.Registry.gauges merged))

(* --- P10: chaos — live reconfiguration under network faults --- *)

(* A 3-shard fleet (replicas = 2) under closed-loop zipf load and a
   chaos fault spec — every shard connection slow, some dropped
   mid-reply, reset, or black-holed for a window — while one shard is
   drained, removed and re-joined without a restart.  Acceptance:
   every request gets a typed response (no transport errors), no
   verdict is ever wrong, no latency exceeds the client deadline, the
   ring epoch lands exactly where the admin sequence says it must with
   a movement fraction inside the consistent-hash bound, and sampled
   certificates from the surviving stores still pass the search-free
   hinted checker.  Gauges go to BENCH_p10.json. *)

let p10 () =
  let num_keys = 16 and zipf_s = 1.1 and clients = 4 and total = 200 in
  let merged = Obs.Registry.create () in
  let gauge name v = Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p10." ^ name)) v in
  let cdf = p7_zipf_cdf num_keys zipf_s in
  p7_with_temp_dir "cecd-p10" @@ fun dir ->
  let pairs = p7_pairs dir num_keys in
  (* Every load request carries its own 5s end-to-end budget. *)
  let budgeted = Array.map (fun (line, e) -> (line ^ " 5000", e)) pairs in
  let shards = List.init 3 (fun i -> p7_start_shard dir (Printf.sprintf "s%d" i)) in
  let router, router_domain = p7_start_router ~shards ~replicas:2 in
  (* Cold pass, fault-free: populate the stores. *)
  Array.iter
    (fun (line, expected) ->
      match Service.Server.request_addr router line with
      | Ok r when Service.Protocol.field "status" r = Some expected -> ()
      | Ok r -> failwith ("p10: cold pass answered " ^ r)
      | Error msg -> failwith ("p10: cold pass failed: " ^ msg))
    pairs;
  (* Wait for warm replication, so losing a shard costs no data. *)
  let rec wait_replicated n =
    if n = 0 then failwith "p10: replication never warmed the standbys";
    match Service.Server.request_addr router "stats" with
    | Ok line
      when (match Service.Protocol.field "replicated" line with
           | Some v -> (
             match int_of_string_opt v with Some r -> r >= num_keys | None -> false)
           | None -> false) ->
      ()
    | _ ->
      Unix.sleepf 0.1;
      wait_replicated (n - 1)
  in
  wait_replicated 100;
  (match
     Fault.parse "peer.slow:1.0,peer.drop:0.05,peer.reset:0.05,peer.partition:0.02@seed=11"
   with
  | Ok spec -> Fault.install spec
  | Error e -> failwith ("p10: bad fault spec: " ^ e));
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let config =
    {
      Service.Client.default_config with
      Service.Client.retries = 4;
      base_delay_ms = 10.0;
      connect_timeout_ms = Some 2000.;
      deadline_ms = Some 8000.;
    }
  in
  let t0 = Unix.gettimeofday () in
  let loadgen =
    Domain.spawn (fun () -> p7_closed_loop ~config ~router ~pairs:budgeted ~cdf ~clients ~total ())
  in
  (* Mid-run: drain, remove and re-join shard s0 (its daemon stays up
     throughout — only its ring membership changes). *)
  let admin line =
    match Service.Server.request_addr router line with
    | Ok r when Service.Protocol.field "ok" r = Some "true" -> r
    | Ok r -> failwith (Printf.sprintf "p10: %S answered %s" line r)
    | Error msg -> failwith (Printf.sprintf "p10: %S failed: %s" line msg)
  in
  let _, s0_addr, _ = List.hd shards in
  Unix.sleepf 0.8;
  ignore (admin "drain s0");
  Unix.sleepf 0.3;
  let leave = admin "leave s0" in
  Unix.sleepf 0.3;
  let join = admin (Printf.sprintf "join s0 %s" (Service.Addr.to_string s0_addr)) in
  let o = Domain.join loadgen in
  let wall = Unix.gettimeofday () -. t0 in
  (* Chaos off and the last partition window lapsed before the
     shutdown handshakes (a black-holed shard would park them). *)
  Fault.disable ();
  Unix.sleepf 0.6;
  ignore (Service.Server.request_addr router "shutdown");
  let final = Domain.join router_domain in
  List.iter
    (fun (_, addr, domain) ->
      ignore (Service.Server.request_addr addr "shutdown");
      ignore (Domain.join domain))
    shards;
  (* Acceptance. *)
  if o.wrong > 0 then failwith (Printf.sprintf "p10: %d wrong verdicts under chaos" o.wrong);
  if o.no_response > 0 then
    failwith (Printf.sprintf "p10: %d requests got no typed response" o.no_response);
  let worst = if Array.length o.latencies = 0 then 0.0 else o.latencies.(Array.length o.latencies - 1) in
  if worst > 8500.0 then
    failwith (Printf.sprintf "p10: worst latency %.0fms exceeds the 8s client deadline" worst);
  (match Service.Protocol.field "epoch" join with
  | Some "2" -> ()
  | other ->
    failwith
      (Printf.sprintf "p10: epoch %S after leave+join (expected 2)"
         (Option.value ~default:"missing" other)));
  let moved =
    float_of_string (Option.value ~default:"0" (Service.Protocol.field "moved_fraction" join))
  in
  if moved <= 0.0 || moved > 0.67 then
    failwith (Printf.sprintf "p10: re-join moved fraction %.3f outside (0, 2/3]" moved);
  let c name = Obs.Counter.get (Obs.Registry.counter final ("fleet." ^ name)) in
  if c "joins" <> 1 || c "leaves" <> 1 || c "drains" <> 1 then
    failwith
      (Printf.sprintf "p10: admin counters joins=%d leaves=%d drains=%d" (c "joins") (c "leaves")
         (c "drains"));
  (* Sampled certificates from the surviving stores still verify with
     the search-free hinted checker. *)
  let store_dirs = List.map (fun (id, _, _) -> Filename.concat dir ("store-" ^ id)) shards in
  let certs_checked = ref 0 in
  Array.iteri
    (fun i (_, expected) ->
      if expected = "equivalent" && !certs_checked < 3 then begin
        let load p =
          match Service.Server.load_netlist p with
          | Ok g -> Service.Key.normalize g
          | Error e -> failwith ("p10: " ^ e)
        in
        let golden = load (Filename.concat dir (Printf.sprintf "p7-g%d.aig" i)) in
        let revised = load (Filename.concat dir (Printf.sprintf "p7-r%d.aig" i)) in
        let key = Service.Key.of_pair golden revised in
        let found = ref false in
        List.iter
          (fun store_dir ->
            if not !found then
              let store = Service.Store.create ~dir:store_dir () in
              match Service.Store.find store key ~golden ~revised with
              | Some (Cec.Equivalent cert) ->
                found := true;
                let formula = Cnf.Tseitin.miter_formula (Aig.Miter.build golden revised) in
                let bin =
                  Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
                    ~root:cert.Cec.root
                in
                (match Proof.Hint_check.check ~formula ~jobs:2 bin with
                | Ok _ -> incr certs_checked
                | Error e ->
                  failwith
                    (Format.asprintf "p10: stored certificate rejected: %a"
                       Proof.Hint_check.pp_error e))
              | _ -> ())
          store_dirs;
        if not !found then failwith "p10: certificate not found in any store"
      end)
    pairs;
  let response_rate =
    100.0 *. float_of_int o.answered /. float_of_int (max 1 (o.answered + o.no_response))
  in
  gauge "response_rate" response_rate;
  gauge "no_response" (float_of_int o.no_response);
  gauge "wrong" (float_of_int o.wrong);
  gauge "typed_errors" (float_of_int o.typed_errors);
  gauge "degraded" (float_of_int o.degraded);
  gauge "p50_ms" (p7_pct o.latencies 0.50);
  gauge "p99_ms" (p7_pct o.latencies 0.99);
  gauge "worst_ms" worst;
  gauge "throughput_rps" (float_of_int o.answered /. wall);
  gauge "epoch" 2.0;
  gauge "moved_fraction_rejoin" moved;
  gauge "leave_drained"
    (if Service.Protocol.field "drained" leave = Some "true" then 1.0 else 0.0);
  gauge "joins" (float_of_int (c "joins"));
  gauge "leaves" (float_of_int (c "leaves"));
  gauge "drains" (float_of_int (c "drains"));
  gauge "coalesced" (float_of_int (c "coalesced"));
  gauge "deadline_exceeded" (float_of_int (c "deadline_exceeded"));
  gauge "stalled_forwards" (float_of_int (c "stalled_forwards"));
  gauge "failovers" (float_of_int (c "failovers"));
  gauge "certs_checked" (float_of_int !certs_checked);
  Tables.print
    ~title:
      (Printf.sprintf
         "P10: chaos fleet (3 shards, replicas=2, %d clients, %d requests, zipf s=%.1f over %d \
          keys; drop 5%%, reset 5%%, partition 2%%, 50ms slow; drain+leave+rejoin s0 mid-run)"
         clients total zipf_s num_keys)
    ~columns:[ "answered"; "no-resp"; "typed"; "wrong"; "p50"; "p99"; "worst"; "epoch"; "certs" ]
    ~rows:
      [
        [
          string_of_int o.answered;
          string_of_int o.no_response;
          string_of_int o.typed_errors;
          string_of_int o.wrong;
          Tables.fmt_ms (p7_pct o.latencies 0.50 /. 1000.0);
          Tables.fmt_ms (p7_pct o.latencies 0.99 /. 1000.0);
          Tables.fmt_ms (worst /. 1000.0);
          "2";
          string_of_int !certs_checked;
        ];
      ];
  Out_channel.with_open_text "BENCH_p10.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p10.json (%d gauges)\n" (List.length (Obs.Registry.gauges merged))

(* --- P8: hinted certificate checking vs solving --- *)

let p8 () =
  (* Check-vs-solve over the p1 workload: for every suite case, solve
     once (4-domain partitioned check) with the wall time recorded,
     export the refutation as a hinted CECB v3 certificate carrying
     the prover's partition boundaries, and re-validate it with the
     search-free hinted checker, sequentially and over 4 domains.
     Acceptance: on every row the hinted check is faster than the
     solve, the hinted checker performs zero search (hints_followed =
     steps), and its stats do not depend on the job count.  Gauges go
     to BENCH_p8.json. *)
  let merged = Obs.Registry.create () in
  let config = { Parallel.default_config with Parallel.num_domains = 4 } in
  let violations = ref [] in
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let reg = Obs.Registry.create () in
        Obs.with_ambient reg (fun () ->
            let report, t_solve = time (fun () -> Parallel.check ~config golden revised) in
            let cert =
              match report.Parallel.verdict with
              | Cec.Equivalent cert -> cert
              | Cec.Inequivalent _ | Cec.Undecided -> failwith "benchmark case not proved (bug)"
            in
            let formula = cert.Cec.formula in
            let bin, _t_enc =
              time (fun () ->
                  Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
                    ~root:cert.Cec.root)
            in
            let hint ~jobs =
              time (fun () ->
                  match Proof.Hint_check.check ~formula ~jobs bin with
                  | Ok st -> st
                  | Error e ->
                    failwith
                      (Format.asprintf "hinted check failed (jobs=%d): %a" jobs
                         Proof.Hint_check.pp_error e))
            in
            let h1, t_hint1 = hint ~jobs:1 in
            let h4, t_hint4 = hint ~jobs:4 in
            if h1.Proof.Hint_check.hints_followed <> h1.Proof.Hint_check.steps then
              failwith "hinted checker fell back to search (bug)";
            if h1 <> h4 then failwith "check stats depend on jobs (bug)";
            let t_hint = Float.min t_hint1 t_hint4 in
            if t_hint >= t_solve then
              violations := case.Circuits.Suite.name :: !violations;
            let speedup = t_solve /. Float.max t_hint1 1e-9 in
            let gauge suffix v =
              Obs.Gauge.set
                (Obs.Registry.gauge merged ("bench.p8." ^ case.Circuits.Suite.name ^ suffix))
                v
            in
            gauge "_solve_ms" (1000.0 *. t_solve);
            gauge "_hint_check_ms" (1000.0 *. t_hint1);
            gauge "_hint_check_j4_ms" (1000.0 *. t_hint4);
            gauge "_check_speedup" speedup;
            gauge "_bin_bytes" (float_of_int (String.length bin));
            gauge "_shards" (float_of_int h1.Proof.Hint_check.shards);
            gauge "_steps" (float_of_int h1.Proof.Hint_check.steps);
            gauge "_peak_live" (float_of_int h1.Proof.Hint_check.peak_live);
            Obs.Registry.merge_into ~into:merged reg;
            [
              case.Circuits.Suite.name;
              Tables.fmt_ms t_solve;
              Tables.fmt_ms t_hint1;
              Tables.fmt_ms t_hint4;
              string_of_int h1.Proof.Hint_check.shards;
              string_of_int h1.Proof.Hint_check.steps;
              string_of_int h1.Proof.Hint_check.peak_live;
              Printf.sprintf "%.0fx" speedup;
            ]))
      Circuits.Suite.default
  in
  Tables.print
    ~title:
      "P8: hinted certificate checking vs solving (CECB v3, prover boundaries, 4 domains)"
    ~columns:
      [
        "case"; "solve"; "hint chk"; "hint j4"; "shards"; "steps"; "peak live"; "speedup";
      ]
    ~rows;
  (* Acceptance: re-checking a hinted certificate must be cheaper than
     re-solving on every row of the workload. *)
  (match !violations with
  | [] -> Printf.printf "check < solve on all %d rows\n" (List.length rows)
  | cases -> failwith ("hinted check slower than solve on: " ^ String.concat ", " cases));
  Out_channel.with_open_text "BENCH_p8.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p8.json (%d gauges)\n" (List.length (Obs.Registry.gauges merged))

let p9 () =
  (* Sweeping-engine portfolio shootout: the same miter checked by the
     pure-SAT closer, the BDD-first portfolio and the feature-routed
     hybrid, in the low-simulation regime (words = 1) where candidate
     classes are coarse and false candidates abound — exactly the work
     the pre-SAT probes absorb.  Every engine must return the same
     verdict; every hybrid certificate must pass the hinted checker
     (resolution-only certificates are portfolio-invariant).
     Acceptance: hybrid beats pure SAT by >= 1.5x on every narrow-cone
     datapath row.  Times are best-of-3; gauges and the hybrid run's
     engine.* counters go to BENCH_p9.json. *)
  let restructured ?(seed = 7) ?(intensity = 0.5) g =
    Circuits.Rewrite.restructure ~intensity (Support.Rng.create seed) g
  in
  let row name ~narrow golden revised = (name, narrow, golden, revised) in
  let workload =
    [
      (* The acceptance rows (narrow): comparator reductions, whose
         AND-reduction nodes look constant under any realistic random
         pattern budget — the false candidates random simulation
         cannot kill and pure SAT sweeping must refute one
         countermodel query at a time.  The probes refute them with no
         SAT call at all, which is where the portfolio's speedup
         lives. *)
      row "eq64-tree-lin" ~narrow:true
        (fun () -> Circuits.Datapath.equality ~tree:true 64)
        (fun () -> Circuits.Datapath.equality ~tree:false 64);
      row "eq96-tree-lin" ~narrow:true
        (fun () -> Circuits.Datapath.equality ~tree:true 96)
        (fun () -> Circuits.Datapath.equality ~tree:false 96);
      row "eq128-tree-lin" ~narrow:true
        (fun () -> Circuits.Datapath.equality ~tree:true 128)
        (fun () -> Circuits.Datapath.equality ~tree:false 128);
      (* Context rows: dense-candidate datapaths where random
         simulation already separates everything (the probes can only
         add overhead — these bound the portfolio tax), one seeded
         inequivalence, and two arithmetic shapes exercising the
         BDD-first and SAT-first routes. *)
      row "eq48-tree-lin" ~narrow:false
        (fun () -> Circuits.Datapath.equality ~tree:true 48)
        (fun () -> Circuits.Datapath.equality ~tree:false 48);
      row "lt16-rewr" ~narrow:false
        (fun () -> Circuits.Datapath.less_than 16)
        (fun () -> restructured ~intensity:0.8 (Circuits.Datapath.less_than 16));
      row "par16-tree-lin" ~narrow:false
        (fun () -> Circuits.Datapath.parity ~tree:true 16)
        (fun () -> Circuits.Datapath.parity ~tree:false 16);
      row "mux5-rewr" ~narrow:false
        (fun () -> Circuits.Datapath.mux_tree 5)
        (fun () -> restructured (Circuits.Datapath.mux_tree 5));
      row "alu8-rewr" ~narrow:false
        (fun () -> Circuits.Datapath.alu 8)
        (fun () -> restructured (Circuits.Datapath.alu 8));
      row "maj3x8-rewr" ~narrow:false
        (fun () -> Circuits.Misc_logic.majority3 8)
        (fun () -> restructured (Circuits.Misc_logic.majority3 8));
      row "lt12-neq" ~narrow:false
        (fun () -> Circuits.Datapath.less_than 12)
        (fun () ->
          (* Seeded inequivalence: the counterexample path must agree
             across engines too. *)
          let g = restructured (Circuits.Datapath.less_than 12) in
          Aig.set_output g 0 (Aig.Lit.neg (Aig.output g 0));
          g);
      row "add16-rc-cla" ~narrow:false
        (fun () -> Circuits.Adder.ripple_carry 16)
        (fun () -> Circuits.Adder.carry_lookahead 16);
      row "mul4-arr-sa" ~narrow:false
        (fun () -> Circuits.Multiplier.array 4)
        (fun () -> Circuits.Multiplier.shift_add 4);
    ]
  in
  let engines =
    [ ("sat", Sweep.Sat_only); ("bdd", Sweep.Bdd_first); ("hybrid", Sweep.Hybrid) ]
  in
  let merged = Obs.Registry.create () in
  let wins = Hashtbl.create 4 in
  let win name = Hashtbl.replace wins name (1 + Option.value ~default:0 (Hashtbl.find_opt wins name)) in
  let violations = ref [] in
  let rows =
    List.map
      (fun (name, narrow, golden, revised) ->
        let miter = Aig.Miter.build (golden ()) (revised ()) in
        let results =
          List.map
            (fun (ename, portfolio) ->
              let cfg = { Sweep.default_config with Sweep.words = 1; portfolio } in
              let reg = Obs.Registry.create () in
              let best = ref infinity and last = ref None in
              Obs.with_ambient reg (fun () ->
                  for _rep = 1 to 3 do
                    let report, t = time (fun () -> Cec.check_miter (Cec.Sweeping cfg) miter) in
                    best := Float.min !best t;
                    last := Some report
                  done);
              (* Only the hybrid run's engine.* counters land in the
                 export — one portfolio per counter set keeps the
                 selector histograms attributable. *)
              if ename = "hybrid" then Obs.Registry.merge_into ~into:merged reg;
              (ename, Option.get !last, !best))
            engines
        in
        let verdict_tag r =
          match r.Cec.verdict with
          | Cec.Equivalent _ -> "eq"
          | Cec.Inequivalent _ -> "neq"
          | Cec.Undecided -> "undecided"
        in
        (match results with
        | (_, r0, _) :: rest ->
          List.iter
            (fun (ename, r, _) ->
              if verdict_tag r <> verdict_tag r0 then
                failwith
                  (Printf.sprintf "p9 %s: engine %s disagrees (%s vs %s)" name ename
                     (verdict_tag r) (verdict_tag r0)))
            rest
        | [] -> ());
        let report_of e = List.assoc e (List.map (fun (n, r, _) -> (n, r)) results) in
        let t_of e = List.assoc e (List.map (fun (n, _, t) -> (n, t)) results) in
        (match (report_of "hybrid").Cec.verdict with
        | Cec.Equivalent cert ->
          let bin =
            Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
              ~root:cert.Cec.root
          in
          (match Proof.Hint_check.check ~formula:cert.Cec.formula ~jobs:2 bin with
          | Ok _ -> ()
          | Error e ->
            failwith
              (Format.asprintf "p9 %s: hybrid certificate rejected: %a" name
                 Proof.Hint_check.pp_error e))
        | Cec.Inequivalent _ | Cec.Undecided -> ());
        let t_sat = t_of "sat" and t_bdd = t_of "bdd" and t_hybrid = t_of "hybrid" in
        let winner, _ =
          List.fold_left
            (fun (bn, bt) (n, _, t) -> if t < bt then (n, t) else (bn, bt))
            ("sat", t_sat) results
        in
        win winner;
        let speedup = t_sat /. Float.max t_hybrid 1e-9 in
        if narrow && speedup < 1.5 then violations := name :: !violations;
        let gauge suffix v =
          Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p9." ^ name ^ suffix)) v
        in
        gauge "_sat_ms" (1000.0 *. t_sat);
        gauge "_bdd_ms" (1000.0 *. t_bdd);
        gauge "_hybrid_ms" (1000.0 *. t_hybrid);
        gauge "_hybrid_speedup" speedup;
        [
          name;
          (if narrow then "narrow" else "-");
          verdict_tag (report_of "hybrid");
          Tables.fmt_ms t_sat;
          Tables.fmt_ms t_bdd;
          Tables.fmt_ms t_hybrid;
          winner;
          Printf.sprintf "%.1fx" speedup;
        ])
      workload
  in
  Tables.print
    ~title:"P9: engine portfolio win rates and wall time (words=1, best of 3)"
    ~columns:[ "case"; "cones"; "verdict"; "sat"; "bdd"; "hybrid"; "winner"; "speedup" ]
    ~rows;
  List.iter
    (fun (ename, _) ->
      let w = Option.value ~default:0 (Hashtbl.find_opt wins ename) in
      Obs.Gauge.set (Obs.Registry.gauge merged ("bench.p9.wins_" ^ ename)) (float_of_int w);
      Printf.printf "%s wins %d/%d rows\n" ename w (List.length rows))
    engines;
  (match !violations with
  | [] -> Printf.printf "hybrid >= 1.5x over pure SAT on all narrow-cone datapath rows\n"
  | cases -> failwith ("hybrid < 1.5x over pure SAT on: " ^ String.concat ", " cases));
  Out_channel.with_open_text "BENCH_p9.json" (fun oc ->
      output_string oc (Obs.Export.stats_json merged));
  Printf.printf "wrote BENCH_p9.json (%d gauges)\n" (List.length (Obs.Registry.gauges merged))

(* --- Bechamel micro-benchmarks: one Test.make per experiment --- *)


let bechamel_tests () =
  let open Bechamel in
  let quick_case = List.hd Circuits.Suite.small in
  let small_miter = Circuits.Suite.miter_of quick_case in
  let small_cert =
    lazy
      (match (Cec.check_miter sweeping_engine small_miter).Cec.verdict with
      | Cec.Equivalent cert -> cert
      | Cec.Inequivalent _ | Cec.Undecided -> failwith "bechamel setup failed")
  in
  [
    Test.make ~name:"t1-suite-build"
      (Staged.stage (fun () -> ignore (Circuits.Suite.miter_of quick_case)));
    Test.make ~name:"t2-cec-sweeping"
      (Staged.stage (fun () -> ignore (Cec.check_miter sweeping_engine small_miter)));
    Test.make ~name:"t3-cec-monolithic"
      (Staged.stage (fun () -> ignore (Cec.check_miter Cec.Monolithic small_miter)));
    Test.make ~name:"t4-proof-trim"
      (Staged.stage (fun () ->
           let cert = Lazy.force small_cert in
           ignore (Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root)));
    Test.make ~name:"f1-adder-miter"
      (Staged.stage (fun () ->
           ignore
             (Aig.Miter.build (Circuits.Adder.ripple_carry 8) (Circuits.Adder.carry_lookahead 8))));
    Test.make ~name:"f2-proof-check"
      (Staged.stage (fun () ->
           let cert = Lazy.force small_cert in
           ignore
             (Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root ~formula:cert.Cec.formula ())));
    Test.make ~name:"f3-simclass"
      (Staged.stage (fun () -> ignore (Simclass.create small_miter ~words:8 ~seed:1)));
    Test.make ~name:"f4-sweep-no-lemmas"
      (Staged.stage (fun () ->
           ignore (Sweep.run small_miter { Sweep.default_config with Sweep.lemma_reuse = false })));
    Test.make ~name:"t5-fraig"
      (Staged.stage (fun () ->
           ignore (Sweep.fraig (Circuits.Adder.carry_lookahead 4) Sweep.default_config)));
    Test.make ~name:"t6-bdd-equiv"
      (Staged.stage (fun () ->
           ignore
             (Bdd.Equiv.check (Circuits.Adder.ripple_carry 8) (Circuits.Prefix_adder.kogge_stone 8))));
    Test.make ~name:"f7-incremental-sweep"
      (Staged.stage (fun () ->
           ignore
             (Cec.check_miter
                (Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental })
                small_miter)));
    Test.make ~name:"f8-bounded-unroll"
      (Staged.stage (fun () ->
           ignore (Aig.Seq.unroll (Circuits.Counters.binary_counter 8) ~frames:8)));
    Test.make ~name:"f6-bdd-build"
      (Staged.stage (fun () ->
           let t = Bdd.Manager.create ~num_vars:12 () in
           ignore (Bdd.Manager.of_aig t (Circuits.Multiplier.array 6))));
  ]

let run_bechamel () =
  let open Bechamel in
  print_endline "== Bechamel micro-benchmarks (one per experiment) ==";
  let clock = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"experiments" [ test ])
  in
  let analyze raw =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-24s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-24s (no estimate)\n" name)
        results)
    (bechamel_tests ());
  print_newline ();
  flush stdout

(* --- driver --- *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("t2h", t2h); ("t3", t3); ("t4", t4); ("t5", t5);
    ("t6", t6); ("t7", t7); ("f1", f1); ("f2", f2); ("f3", f3); ("f4", f4); ("f6", f6); ("f7", f7); ("f8", f8);
    ("p1", p1);
    ("p2", p2);
    ("p3", p3);
    ("p5", p5);
    ("p6", p6);
    ("p7", p7);
    ("p8", p8);
    ("p9", p9);
    ("p10", p10);
  ]

let () =
  Obs.Clock.set Unix.gettimeofday;
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then List.map fst experiments @ [ "bechamel" ] else args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let (), t = time f in
        Printf.printf "(%s completed in %s ms)\n\n" name (Tables.fmt_ms t);
        flush stdout
      | None ->
        if name = "bechamel" then run_bechamel ()
        else begin
          Printf.eprintf "unknown experiment %S (t1-t7/t2h, f1-f4/f6-f8, p1-p3/p5-p10, bechamel)\n" name;
          exit 2
        end)
    selected
