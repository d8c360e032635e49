(* cli-scaled: the CLI defaults of [cec A B --proof P --cert-format bin3]
   (jobs 0: one whole-miter sweep in the default mode, then
   [encode_hinted]) followed by [check-proof]'s [Hint_check], on scaled
   multi-output pairs and seeded single-gate mutants.  Sweep, SAT, proof
   logging and encoding do nearly all the work; store, wire and router
   are bypassed. *)

open Common
module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep

(* Calibrated seconds one pass of the request set takes on the
   reference host; the pass count follows --seconds. *)
let nominal_pass_s = 2.5

let restructure g = Circuits.Rewrite.restructure (Support.Rng.create 7) g

let families () =
  [
    ( "add-rc:20~restructure",
      fun () ->
        let g = Circuits.Adder.ripple_carry 20 in
        (g, restructure g) );
    ("alu:12~restructure", fun () -> let g = Circuits.Datapath.alu 12 in (g, restructure g));
    ( "mul-arr:5~rebalance",
      fun () ->
        let g = Circuits.Multiplier.array 5 in
        (g, Circuits.Rewrite.rebalance `Balanced g) );
    ( "ks:32~bk:32",
      fun () -> (Circuits.Prefix_adder.kogge_stone 32, Circuits.Prefix_adder.brent_kung 32) );
  ]

(* Mutants come from smaller members of the same families, so however
   the seed picks their gates they stay below the scaled pairs and the
   median keeps falling inside one repeating population. *)
let mutant_bases () =
  [
    ( "add-rc:10~restructure",
      fun () ->
        let g = Circuits.Adder.ripple_carry 10 in
        (g, restructure g) );
    ("alu:6~restructure", fun () -> let g = Circuits.Datapath.alu 6 in (g, restructure g));
    ( "mul-arr:3~rebalance",
      fun () ->
        let g = Circuits.Multiplier.array 3 in
        (g, Circuits.Rewrite.rebalance `Balanced g) );
  ]

let engine =
  match Cec.engine_of_string ~base:Sweep.default_config "sweep" with
  | Some e -> e
  | None -> assert false

type response = {
  verdict : Cec.verdict;
  body : string option;
  check : (Proof.Hint_check.stats, string) result option;
  counts : (string * int) list;
  proof_nodes : int;
  sample : sample;
}

(* One request: exactly the CLI's call sequence. *)
let run_request r =
  let reg = Obs.Registry.create () in
  let body = ref None and check = ref None and proof_nodes = ref 0 in
  let verdict, sample =
    time (fun () ->
        Trace.span "request" @@ fun () ->
        let a, b = Trace.span "aig.parse" (fun () -> (load r.gpath, load r.rpath)) in
        let miter = Trace.span "aig.miter" (fun () -> Aig.Miter.build a b) in
        let report =
          Trace.span "core.check" (fun () ->
              Obs.with_ambient reg (fun () -> Cec.check_miter engine miter))
        in
        (match report.Cec.verdict with
        | Cec.Equivalent cert ->
          proof_nodes := Proof.Resolution.size cert.Cec.proof;
          let bytes =
            Trace.span "proof.encode" (fun () ->
                Obs.with_ambient reg (fun () ->
                    Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
                      ~root:cert.Cec.root))
          in
          body := Some bytes;
          let formula = Trace.span "cnf.formula" (fun () -> Cnf.Tseitin.miter_formula miter) in
          let res =
            Trace.span "proof.check" (fun () ->
                Obs.with_ambient reg (fun () -> Proof.Hint_check.check ~formula bytes))
          in
          check := Some (Result.map_error check_error res)
        | _ -> ());
        report.Cec.verdict)
  in
  {
    verdict;
    body = !body;
    check = !check;
    counts = guarded_counters reg;
    proof_nodes = !proof_nodes;
    sample;
  }

let setup env () =
  let reqs =
    phase "generate" (fun () ->
        let rng = Util.rng env.seed 1 in
        let pairs =
          List.map (fun (name, make) -> let g, r = make () in (name, g, r)) (families ())
        in
        let mutants =
          List.map
            (fun (name, make) ->
              let g, r = make () in
              let m = Oracle.mutant rng g r in
              ("mutant:" ^ name, g, m))
            (mutant_bases ())
        in
        let dir = Filename.concat env.work "cli" in
        Util.mkdir_p dir;
        List.mapi
          (fun i (name, golden, revised) ->
            write_pair dir ~tag:(string_of_int i) ~name ~equivalent:(i < List.length pairs) golden
              revised)
          (pairs @ mutants)
        |> Array.of_list)
  in
  (* Pre-warm: one small pair through the whole pipeline. *)
  phase "warm" (fun () ->
      let warm =
        write_pair (Filename.concat env.work "cli") ~tag:"warm" ~name:"warm" ~equivalent:true
          (Circuits.Adder.ripple_carry 4) (Circuits.Adder.carry_lookahead 4)
      in
      match (run_request warm).check with
      | Some (Ok _) -> ()
      | _ -> failwith "pre-warm: the warm-up pair did not verify");
  reqs

(* Judge a result against the oracle; [true] when it is a correct
   verdict with a valid certificate or a replaying counterexample. *)
let judge o r (res : response) =
  match (r.equivalent, res.verdict) with
  | true, Cec.Equivalent _ -> (
    match res.check with
    | Some (Ok _) -> true
    | Some (Error e) ->
      wrong o (r.name ^ ": certificate rejected: " ^ e);
      false
    | None -> false)
  | false, Cec.Inequivalent cex ->
    if Oracle.replays r.golden r.revised cex then true
    else begin
      wrong o (r.name ^ ": counterexample does not replay");
      false
    end
  | true, Cec.Inequivalent _ | false, Cec.Equivalent _ ->
    wrong o (r.name ^ ": wrong verdict");
    false
  | _, Cec.Undecided ->
    fail o (r.name ^ ": undecided");
    false

(* The request indices of one pass, in a seeded order. *)
let order rng n =
  let order = Array.init n Fun.id in
  Util.shuffle rng order;
  order

(* The first pass runs in a fixed order, mutants first: the heap grows
   to the size it keeps for the rest of the run during that pass, and
   with a seeded first pass the seed would set the peak memory (by up
   to a quarter) and the collector's pace in every later request. *)
let pass_order rng n pass = if pass = 1 then Array.init n (fun i -> n - 1 - i) else order rng n

(* Every request starts on a collected heap: neither the garbage of the
   one before nor the time-driven calibration samples may shift its
   time or its memory peak. *)
let between_requests () =
  Calib.tick ();
  Gc.full_major ()

let traced_request r = Trace.traced (fun () -> run_request r)

let run env o =
  let passes = max 1 (Float.to_int (Float.round (env.seconds /. nominal_pass_s))) in
  let rng = Util.rng env.seed 2 in
  let reqs, setups =
    timed_setup ~reps:(if env.traced then 1 else 25) ~setup:(setup env) ~teardown:ignore
  in
  let n = Array.length reqs in
  (* Reference results per request: the first pass's counts and bytes. *)
  let first = Array.make n None in
  let checks = Array.make n None in
  let consistent i (res : response) =
    match first.(i) with
    | None -> first.(i) <- Some res
    | Some (f : response) ->
      if f.counts <> res.counts || f.body <> res.body then begin
        o.drift <- o.drift + 1;
        note o (reqs.(i).name ^ ": counts or certificate bytes drifted between passes")
      end
  in
  let correct = ref 0 in
  let samples = ref [] in
  let record i res =
    o.attempted <- o.attempted + 1;
    if judge o reqs.(i) res then incr correct;
    consistent i res;
    samples := res.sample :: !samples
  in
  let certs () =
    List.filter_map
      (fun i -> match first.(i) with Some { body = Some b; _ } -> Some (i, b) | _ -> None)
      (List.init n Fun.id)
  in
  (* The run's seeded certificate also goes through the independent
     checker. *)
  let independent () =
    match certs () with
    | [] -> ()
    | l ->
      let i, body = List.nth l (env.seed mod List.length l) in
      let r = reqs.(i) in
      match Oracle.independent_check ~formula:(Oracle.formula_of r.golden r.revised) body with
      | Ok () -> ()
      | Error e -> wrong o (r.name ^ ": Proof.Checker rejected the certificate: " ^ e)
  in
  let cert_bytes () = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 (certs ()) in
  let all_counts () =
    List.fold_left
      (fun acc i -> match first.(i) with Some f -> merge_counts acc f.counts | None -> acc)
      [] (List.init n Fun.id)
  in
  if not env.traced then begin
    for pass = 1 to passes do
      Array.iter
        (fun i ->
          between_requests ();
          let res = run_request reqs.(i) in
          record i res;
          (* check_s: the certificate checked again outside the request,
             so each certificate's median rests on many samples spread
             over the whole run. *)
          Option.iter
            (fun body ->
              let r = reqs.(i) in
              let c = match checks.(i) with Some c -> c | None -> cert_checks r.name in
              checks.(i) <- Some c;
              check_again c ~formula:(Oracle.formula_of r.golden r.revised) body 3)
            res.body)
        (pass_order rng n pass)
    done;
    Calib.measure ();
    let rss = Procs.hwm_mb (Unix.getpid ()) in
    independent ();
    count_guard env o (("cert_bytes", cert_bytes ()) :: all_counts ());
    let check_ms =
      Array.of_list
        (List.filter_map
           (Option.map (fun c ->
                let result, medians, _ = settle o c in
                if Result.is_error result then
                  wrong o (c.cert ^ ": certificate rejected on a repeated check");
                medians))
           (Array.to_list checks))
    in
    let samples = Array.of_list (List.rev !samples) in
    `E2e
      (end_to_end ~setups ~samples ~correct:!correct ~check_ms ~cert_bytes:(cert_bytes ())
         ~rss_mb:rss)
  end
  else begin
    (* Each request runs untraced and traced back to back, alternating
       which goes first, so drift cancels out of the overhead. *)
    let pairs =
      Array.mapi
        (fun k i ->
          between_requests ();
          Trace.request := i;
          let r = reqs.(i) in
          let u, t =
            if k mod 2 = 0 then
              let u = run_request r in
              Gc.full_major ();
              (u, traced_request r)
            else
              let t = traced_request r in
              Gc.full_major ();
              (run_request r, t)
          in
          record i t;
          consistent i u;
          (i, u, t))
        (order rng n)
    in
    Calib.measure ();
    independent ();
    let untraced = Array.map (fun (_, (u : response), _) -> u.sample) pairs in
    let traced_results = Array.map (fun (i, _, t) -> (i, t)) pairs in
    let traced = Array.map (fun (_, (r : response)) -> r.sample) traced_results in
    let counts =
      Array.fold_left (fun acc (_, (r : response)) -> merge_counts acc r.counts) [] traced_results
    in
    count_guard env o (("cert_bytes", cert_bytes ()) :: counts);
    let self = Trace.self_ms () in
    let peak_live =
      Array.fold_left
        (fun acc (_, (r : response)) ->
          match r.check with Some (Ok st) -> max acc st.Proof.Hint_check.peak_live | _ -> acc)
        0 traced_results
    in
    let store_nodes =
      Array.fold_left (fun acc (_, (r : response)) -> acc + r.proof_nodes) 0 traced_results
    in
    let values =
      layer_values ~requests:n ~counts
        ~timed:
          [
            ("aig.parse_ms", "aig.parse"); ("aig.miter_ms", "aig.miter");
            ("cnf.formula_ms", "cnf.formula"); ("core.check_ms", "core.check");
            ("proof.encode_ms", "proof.encode"); ("proof.check_ms", "proof.check");
          ]
      @ [
          ("check.peak_live", float_of_int peak_live);
          ( "proof.keep_ratio",
            float_of_int (counter_sum counts "proof.bin.nodes")
            /. float_of_int (max 1 store_nodes) );
          ("proof.check_to_solve", self "proof.check" /. self "core.check");
          ("trace.overhead_pct", overhead_pct ~untraced ~traced);
        ]
    in
    `Layers values
  end
