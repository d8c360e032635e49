(* Differential harness for the sweeping-engine portfolio.

   The portfolio (simulation refinement + BDD probes in front of the
   SAT closer) must be a pure accelerator: on every instance the
   hybrid and bdd-first engines return the same verdict as the pure
   SAT engine, counterexamples replay on the miter, and — because
   probes never replace the SAT derivation of a merge — every
   certificate is still a stitched resolution refutation that passes
   both the streaming checker and the hinted parallel checker. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Certify = Cec_core.Certify
module Suite = Circuits.Suite

let cfg portfolio = { Sweep.default_config with Sweep.portfolio }
let engine portfolio = Cec.Sweeping (cfg portfolio)
let portfolios = [ Sweep.Sat_only; Sweep.Bdd_first; Sweep.Hybrid ]
let pname = Sweep.portfolio_to_string

let verdict_of = function
  | Cec.Equivalent _ -> "eq"
  | Cec.Inequivalent _ -> "neq"
  | Cec.Undecided -> "undecided"

(* Portfolio certificates must survive the full certificate stack: the
   random-access checker against a rebuilt miter, and the hinted
   (search-free) checker over both a single-shard encoding and the
   boundary-sharded one checked in parallel. *)
let check_certificate ~what golden revised (cert : Cec.certificate) =
  (match Certify.validate_against cert golden revised with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: certificate rejected: %a" what Certify.pp_error e);
  let data = Proof.Binfmt.encode_hinted cert.Cec.proof ~root:cert.Cec.root in
  (match Proof.Hint_check.check ~formula:cert.Cec.formula data with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s: single-shard check rejected: %s" what e.Proof.Hint_check.reason);
  let hinted =
    Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof ~root:cert.Cec.root
  in
  match Proof.Hint_check.check ~formula:cert.Cec.formula ~jobs:4 hinted with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s: hinted checker rejected: %s" what
      (Format.asprintf "%a" Proof.Hint_check.pp_error e)

let replay_cex ~what golden revised cex =
  let miter = Aig.Miter.build golden revised in
  if not (Aig.eval miter cex).(0) then
    Alcotest.failf "%s: counterexample does not drive the miter" what

let differential ~name golden revised =
  let reports =
    List.map (fun p -> (p, (Cec.check (engine p) golden revised).Cec.verdict)) portfolios
  in
  let sat_verdict =
    match reports with
    | (Sweep.Sat_only, v) :: _ -> verdict_of v
    | _ -> assert false
  in
  List.iter
    (fun (p, v) ->
      let what = Printf.sprintf "%s/%s" name (pname p) in
      if verdict_of v <> sat_verdict then
        Alcotest.failf "%s: verdict %s disagrees with sat's %s" what (verdict_of v) sat_verdict;
      match v with
      | Cec.Equivalent cert -> check_certificate ~what golden revised cert
      | Cec.Inequivalent cex -> replay_cex ~what golden revised cex
      | Cec.Undecided -> Alcotest.failf "%s: undecided" what)
    reports

(* --- fixed golden circuits --- *)

let test_small_suite_differential () =
  List.iter
    (fun (case : Suite.case) ->
      differential ~name:case.Suite.name (case.Suite.golden ()) (case.Suite.revised ()))
    Suite.small

(* The honest win regime of the portfolio: wide sparse-difference
   comparators whose AND-reduction candidates survive random
   simulation.  These rows are where the probes actually fire, so they
   are the ones most likely to expose a certificate or verdict bug. *)
let test_comparator_differential () =
  List.iter
    (fun width ->
      differential
        ~name:(Printf.sprintf "eq%d" width)
        (Circuits.Datapath.equality ~tree:true width)
        (Circuits.Datapath.equality ~tree:false width))
    [ 16; 32 ]

let test_inequivalent_fixtures () =
  let negated () =
    let golden = Circuits.Datapath.equality ~tree:true 12 in
    let revised = Circuits.Datapath.equality ~tree:false 12 in
    Aig.set_output revised 0 (Aig.Lit.neg (Aig.output revised 0));
    ("negated-eq12", golden, revised)
  in
  let corrupted () =
    let golden = Circuits.Adder.ripple_carry 6 in
    let revised = Circuits.Adder.ripple_carry 6 in
    let o = Aig.num_outputs revised - 1 in
    Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o));
    ("corrupted-add6", golden, revised)
  in
  List.iter (fun (name, g, r) -> differential ~name g r) [ negated (); corrupted () ]

(* --- random AIG pairs (qcheck) --- *)

let qtest ?(count = 25) name prop =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let random_pair seed =
  let num_inputs = 4 + (seed mod 4) in
  let num_outputs = 1 + (seed mod 3) in
  let golden =
    Circuits.Random_aig.generate
      (Support.Rng.create (1 + seed))
      ~num_inputs ~num_ands:(20 + (seed mod 40)) ~num_outputs
  in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create (13 * seed)) golden in
  if seed mod 4 = 3 then begin
    let o = seed mod Aig.num_outputs revised in
    Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o))
  end;
  (golden, revised)

let prop_random_differential =
  qtest "portfolios agree on random pairs" (fun seed ->
      let golden, revised = random_pair seed in
      differential ~name:(Printf.sprintf "random-%d" seed) golden revised;
      true)

(* Tiny BDD caps force blowups mid-sweep; the fallback path must still
   deliver the SAT verdict and a checkable certificate. *)
let prop_blowup_fallback =
  qtest ~count:10 "hybrid under a starved BDD cap still certifies" (fun seed ->
      let golden, revised = random_pair (2 * seed) in
      let starved =
        Cec.Sweeping { (cfg Sweep.Hybrid) with Sweep.bdd_max_nodes = 16 }
      in
      let name = Printf.sprintf "starved-%d" seed in
      let sat = (Cec.check (engine Sweep.Sat_only) golden revised).Cec.verdict in
      let hyb = (Cec.check starved golden revised).Cec.verdict in
      if verdict_of sat <> verdict_of hyb then
        Alcotest.failf "%s: starved hybrid %s vs sat %s" name (verdict_of hyb) (verdict_of sat);
      (match hyb with
      | Cec.Equivalent cert -> check_certificate ~what:name golden revised cert
      | Cec.Inequivalent cex -> replay_cex ~what:name golden revised cex
      | Cec.Undecided -> Alcotest.failf "%s: undecided" name);
      true)

(* --- probe accounting --- *)

(* On a comparator pair the hybrid engine must actually use its
   probes (this guards against a silently disabled portfolio), and
   every probe-refuted candidate must be absent from the SAT
   counterexample count. *)
let test_probes_fire () =
  let golden = Circuits.Datapath.equality ~tree:true 24 in
  let revised = Circuits.Datapath.equality ~tree:false 24 in
  let report = Cec.check (engine Sweep.Hybrid) golden revised in
  (match report.Cec.verdict with
  | Cec.Equivalent _ -> ()
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.fail "eq24 must be equivalent");
  match report.Cec.sweep_stats with
  | None -> Alcotest.fail "sweeping engine lost its stats"
  | Some st ->
    Alcotest.(check bool) "some probe proved or split" true
      (st.Sweep.bdd_proved + st.Sweep.sim_proved + st.Sweep.bdd_cex + st.Sweep.sim_splits > 0)

let suites =
  [
    ( "engine-differential",
      [
        Alcotest.test_case "small suite, all portfolios" `Slow test_small_suite_differential;
        Alcotest.test_case "comparator family" `Quick test_comparator_differential;
        Alcotest.test_case "inequivalent fixtures replay" `Quick test_inequivalent_fixtures;
        Alcotest.test_case "hybrid probes fire on comparators" `Quick test_probes_fire;
        prop_random_differential;
        prop_blowup_fallback;
      ] );
  ]
