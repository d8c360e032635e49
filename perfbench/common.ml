(* What every workload shares: the run's outcome, timed set-up, the
   end-to-end metrics, and the count guard. *)

type env = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  work : string;  (** scratch directory of this run, inside the checkout *)
  state : string;  (** per-checkout directory that outlives runs *)
  tool : string;  (** the built cec_tool executable *)
  build : string;  (** digest of the benchmark and cec_tool binaries *)
}

type outcome = {
  mutable attempted : int;
  mutable failed : int;  (** refused, undecided or wrong; never retried *)
  mutable wrong : int;  (** verdicts or certificates contradicting the oracle *)
  mutable drift : int;  (** counts that did not repeat exactly *)
  mutable notes : string list;
}

let outcome () = { attempted = 0; failed = 0; wrong = 0; drift = 0; notes = [] }

let note o msg = if List.length o.notes < 20 then o.notes <- msg :: o.notes

let fail o msg =
  o.failed <- o.failed + 1;
  note o msg

let wrong o msg =
  o.wrong <- o.wrong + 1;
  fail o msg

(* One request's raw interval. *)
type sample = { t0 : float; t1 : float }

let cal_ms s = Calib.cal ~t0:s.t0 ~t1:s.t1 (1000. *. (s.t1 -. s.t0))
let raw_ms s = 1000. *. (s.t1 -. s.t0)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, { t0; t1 = Unix.gettimeofday () })

(* Raw seconds of each named phase of the set-up in progress, kept in
   the run's record so a noisy set-up shows which phase the noise is
   in.  An [untimed] phase is the benchmark's own file I/O: the system
   under test does none of it, the file system's latency on a shared
   host swings far more than its CPU speed, and it is left out of
   [setup_s]. *)
let phases : (string * float) list ref = ref []
let excluded_s = ref 0.

(* A phase's own time leaves out the untimed phases inside it. *)
let phase name f =
  let excluded = !excluded_s in
  let r, s = time f in
  phases := (name, s.t1 -. s.t0 -. (!excluded_s -. excluded)) :: !phases;
  r

let untimed name f =
  let r, s = time f in
  phases := (name, s.t1 -. s.t0) :: !phases;
  excluded_s := !excluded_s +. (s.t1 -. s.t0);
  r

(* One request's pair, on disk for the CLI and daemons to read and in
   memory for the oracle, with its known answer. *)
type pair = {
  name : string;
  golden : Aig.t;
  revised : Aig.t;
  gpath : string;
  rpath : string;
  equivalent : bool;
}

let write_pair dir ~tag ~name ~equivalent golden revised =
  let path side = Filename.concat dir (Printf.sprintf "%s-%s.aag" tag side) in
  let gpath = path "a" and rpath = path "b" in
  let gtext = Aig.Aiger.to_string golden and rtext = Aig.Aiger.to_string revised in
  untimed "write" (fun () ->
      Util.write_file gpath gtext;
      Util.write_file rpath rtext);
  { name; golden; revised; gpath; rpath; equivalent }

let load p = match Service.Server.load_netlist p with Ok g -> g | Error m -> failwith m
let check_line r = Printf.sprintf "check %s %s" r.gpath r.rpath

(* The miter CNF a daemon's certificate for the pair must refute: the
   service keys, solves and stores the normalized pair. *)
let normalized_formula r =
  Oracle.formula_of (Service.Key.normalize r.golden) (Service.Key.normalize r.revised)

(* Judge a daemon's reply against the oracle: a correct equivalent
   verdict returns the reply line for the caller's certificate check. *)
let judge_reply o r reply =
  match reply with
  | Error msg ->
    fail o (r.name ^ ": " ^ msg);
    `Failed
  | Ok line -> (
    match (Procs.field "status" line, r.equivalent) with
    | Some "equivalent", true -> `Equivalent line
    | Some "inequivalent", false -> (
      match Procs.field "cex" line with
      | Some cex when Oracle.replays r.golden r.revised (Oracle.cex_of_string cex) -> `Inequivalent
      | _ ->
        wrong o (r.name ^ ": counterexample does not replay");
        `Failed)
    | Some ("equivalent" | "inequivalent"), _ ->
      wrong o (r.name ^ ": wrong verdict");
      `Failed
    | _ ->
      fail o (r.name ^ ": " ^ line);
      `Failed)

type setup_time = { cal_s : float; raw_s : float; phase_s : (string * float) list }

(* Kernel samples in each burst that brackets a set-up. *)
let setup_burst = 5

(* Set up [reps] times and keep the last set-up's state; [teardown]
   releases every earlier one.  Each set-up is bracketed by two bursts
   of kernel samples, and the mean of the bursts' medians is its
   reference: a set-up is long and busy, so no sample can be taken
   inside it, and a single sample on either side is as noisy as the
   set-up itself. *)
let timed_setup ~reps ~setup ~teardown =
  let rec go i acc =
    let before = Calib.burst setup_burst in
    phases := [];
    excluded_s := 0.;
    let st, s = time setup in
    let after = Calib.burst setup_burst in
    let raw_s = s.t1 -. s.t0 -. !excluded_s in
    let ref_ms = (before +. after) /. 2. in
    let acc =
      { cal_s = raw_s *. Calib.r0_ms /. ref_ms; raw_s; phase_s = List.rev !phases } :: acc
    in
    if i + 1 < reps then begin
      teardown st;
      go (i + 1) acc
    end
    else (st, List.rev acc)
  in
  go 0 []

(* The end-to-end metrics every workload reports, plus the raw values
   for the run's record. *)
let end_to_end ~setups ~samples ~correct ~check_ms ~cert_bytes ~rss_mb =
  let cal = Array.map cal_ms samples and raw = Array.map raw_ms samples in
  let n = Array.length cal in
  let tail_p, tail_note =
    match Util.tail_percentile n with
    | Some p -> (p, Printf.sprintf "p%g of %d samples" (100. *. p) n)
    | None -> (1.0, Printf.sprintf "max of %d samples (fewer than 10 beyond any percentile)" n)
  in
  let setup_median f = Util.median (Array.of_list (List.map f setups)) in
  (* A phase that runs many times in one set-up is summed. *)
  let phase_s p s =
    List.fold_left (fun acc (q, t) -> if q = p then acc +. t else acc) 0. s.phase_s
  in
  let phase_names =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.phase_s) setups)
  in
  let vps c = float_of_int correct /. (Util.sum c /. 1000.) in
  let check_cal = Util.sum (Array.map fst check_ms) /. 1000. in
  let check_raw = Util.sum (Array.map snd check_ms) /. 1000. in
  let metrics =
    [
      ("setup_s", setup_median (fun s -> s.cal_s), "s");
      ("latency_p50_ms", Util.quantile cal 0.5, "ms");
      ("latency_tail_ms", Util.quantile cal tail_p, "ms");
      ("verdicts_per_s", vps cal, "1/s");
      ("check_s", check_cal, "s");
      ("cert_bytes", float_of_int cert_bytes, "bytes");
      ("peak_rss_mb", rss_mb, "MB");
    ]
  in
  let raws =
    [
      ("setup_s", setup_median (fun s -> s.raw_s));
      ("latency_p50_ms", Util.quantile raw 0.5);
      ("latency_tail_ms", Util.quantile raw tail_p);
      ("verdicts_per_s", vps raw);
      ("check_s", check_raw);
    ]
    @ List.map (fun p -> ("setup." ^ p ^ "_s", setup_median (phase_s p))) phase_names
  in
  (metrics, raws, tail_note)

(* Counters that must repeat exactly for one seed. *)
let guarded name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "sweep."; "sat."; "proof."; "check." ]

let guarded_counters reg = List.filter (fun (k, _) -> guarded k) (Obs.Registry.counters reg)

(* A certificate's repeated [Hint_check] runs, which a workload spreads
   between its requests in batches; each batch starts on a collected
   heap so that it never pays for garbage the work before it left
   behind.  The miter CNF is the caller's to rebuild for each batch:
   kept for the whole run, every certificate's formula would make each
   collection the benchmark runs several times slower. *)
type cert_checks = {
  cert : string;
  reg : Obs.Registry.t;
  mutable results : (Proof.Hint_check.stats, Proof.Hint_check.error) result list;
  mutable runs : sample list;
}

let cert_checks name = { cert = name; reg = Obs.Registry.create (); results = []; runs = [] }

(* [n] more runs back to back, while no request is in flight. *)
let check_again c ~formula body n =
  Calib.tick ();
  Gc.full_major ();
  for _ = 1 to n do
    let r, s =
      Obs.with_ambient c.reg (fun () -> time (fun () -> Proof.Hint_check.check ~formula body))
    in
    c.results <- r :: c.results;
    c.runs <- s :: c.runs
  done

(* The first run's result (runs that disagree with it are drift), the
   calibrated and raw medians of the runs in ms, and the guarded counts
   of all runs.  Called once the calibration samples after the last run
   exist. *)
let settle o c =
  let result = List.hd (List.rev c.results) in
  if List.exists (fun r -> r <> result) c.results then begin
    o.drift <- o.drift + 1;
    note o (c.cert ^ ": repeated checks disagree")
  end;
  let runs = Array.of_list c.runs in
  ( result,
    (Util.median (Array.map cal_ms runs), Util.median (Array.map raw_ms runs)),
    guarded_counters c.reg )

(* Compare this run's counts with the first run of the same binaries,
   workload, seed, length and mode in this checkout; record them when
   none exists.  A mismatch is drift. *)
let count_guard env o counts =
  let dir = Filename.concat env.state "counts" in
  Util.mkdir_p dir;
  let key =
    Printf.sprintf "%s-seed%d-%gs-trace%b-%s" env.workload env.seed env.seconds env.traced env.build
  in
  let path = Filename.concat dir key in
  let text =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) counts)
  in
  if Sys.file_exists path then begin
    let before = Util.read_file path in
    if before <> text then begin
      o.drift <- o.drift + 1;
      note o ("counts differ from an earlier run with this seed: " ^ path)
    end
  end
  else Util.write_file path text

let check_error e = Format.asprintf "%a" Proof.Hint_check.pp_error e

let counter_sum l name = Option.value ~default:0 (List.assoc_opt name l)

let merge_counts a b =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (a @ b);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Every per-layer metric, in the order printed.  A workload that
   bypasses a layer reports 0 for it. *)
let layer_metrics =
  [
    ("aig.parse_ms", "ms"); ("aig.miter_ms", "ms"); ("cnf.formula_ms", "ms");
    ("service.key_ms", "ms"); ("store.find_ms", "ms"); ("store.validate_ms", "ms");
    ("store.write_ms", "ms"); ("store.evictions", "count"); ("store.hit_ratio", "ratio");
    ("engine.solve_ms", "ms"); ("engine.rounds", "count"); ("parallel.partitions", "count");
    ("parallel.jobs", "count"); ("parallel.budget_escalations", "count");
    ("core.check_ms", "ms"); ("sweep.sat_calls", "count"); ("sweep.merges", "count");
    ("sweep.sat_cex", "count"); ("sweep.incremental_reuse", "count");
    ("sweep.useful_ratio", "ratio"); ("sat.conflicts", "count"); ("sat.decisions", "count");
    ("sat.propagations", "count"); ("sat.clauses_carried", "count"); ("proof.leaves", "count");
    ("proof.chains", "count"); ("proof.lift_nodes", "count"); ("proof.keep_ratio", "ratio");
    ("proof.encode_ms", "ms"); ("proof.check_ms", "ms"); ("check.steps", "count");
    ("check.peak_live", "count"); ("proof.check_to_solve", "ratio");
    ("service.overhead_ms", "ms"); ("fleet.hop_ms", "ms"); ("fleet.forwarded", "count");
    ("fleet.coalesced", "count"); ("fleet.overloaded", "count"); ("fleet.failovers", "count");
    ("host.ref_ms", "ms"); ("trace.overhead_pct", "%");
  ]

let layers values =
  List.map
    (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n values), u))
    layer_metrics

(* Per-layer values every workload derives the same way: mean
   calibrated self time per request for each timed layer, the [Obs]
   counts as totals, and the ratios built from them. *)
let layer_values ~requests ~counts ~timed =
  let self = Trace.self_ms () in
  let per_req name = self name /. float_of_int (max 1 requests) in
  let c name = float_of_int (counter_sum counts name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  List.map (fun (metric, span) -> (metric, per_req span)) timed
  @ List.map
      (fun n -> (n, c n))
      [
        "parallel.partitions"; "parallel.jobs"; "parallel.budget_escalations"; "sweep.sat_calls";
        "sweep.merges"; "sweep.sat_cex"; "sweep.incremental_reuse"; "sat.conflicts";
        "sat.decisions"; "sat.propagations"; "sat.clauses_carried"; "proof.leaves"; "proof.chains";
        "proof.lift_nodes"; "check.steps";
      ]
  @ [ ("sweep.useful_ratio", ratio (c "sweep.merges") (c "sweep.sat_calls")) ]

(* Traced time vs untraced time of the same requests, in percent. *)
let overhead_pct ~untraced ~traced =
  let total a = Util.sum (Array.map cal_ms a) in
  100. *. (total traced -. total untraced) /. total untraced
