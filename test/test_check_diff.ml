(* Differential harness over the certificate checkers.

   Two independent implementations validate binary certificates: the
   search-free production checker ([Hint_check]), sequentially and with
   its shards spread over several domains, and the materializing oracle
   ([Binfmt.decode] + [Checker]), which shares no checking code with
   it.  The oracle must accept every certificate the production checker
   accepts, on valid certificates and under corruption alike, and
   truncation must always be classified as malformed (the CLI's exit
   code 2).  The sharded run must further be bit-identical to the
   sequential one: same stats on acceptance, same error record on
   rejection, for every job count. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel
module R = Proof.Resolution
module Suite = Circuits.Suite

let engine mode = Cec.Sweeping { Sweep.default_config with Sweep.mode }

let cert_of ?(mode = Sweep.Perpair) golden revised =
  match (Cec.check (engine mode) golden revised).Cec.verdict with
  | Cec.Equivalent cert -> Some cert
  | Cec.Inequivalent _ | Cec.Undecided -> None

let parallel_cert golden revised =
  let config = { Parallel.default_config with Parallel.num_domains = 2 } in
  match (Parallel.check ~config golden revised).Parallel.verdict with
  | Cec.Equivalent cert -> Some cert
  | Cec.Inequivalent _ | Cec.Undecided -> None

(* Small shards so even the small fixtures exercise the multi-shard
   machinery (the production default of 256 would coalesce them). *)
let encode (cert : Cec.certificate) =
  Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries ~min_shard_nodes:16
    cert.Cec.proof ~root:cert.Cec.root

let hint ?(jobs = 1) formula data = Proof.Hint_check.check ~formula ~jobs data

(* The independent oracle: decode to a materialized proof and check it
   with [Checker]; [Ok (nodes, chains)] on acceptance. *)
let oracle formula data =
  match Proof.Binfmt.decode data with
  | exception Failure msg -> Error msg
  | proof, root -> (
    match Proof.Checker.check proof ~root ~formula () with
    | Ok chains -> Ok (R.size proof, chains)
    | Error e -> Error (Format.asprintf "%a" Proof.Checker.pp_error e))

(* --- acceptance agreement on valid certificates --- *)

let differential ~what (cert : Cec.certificate) =
  let formula = cert.Cec.formula in
  let data = encode cert in
  Alcotest.(check bool) (what ^ ": sniffed as binary") true (Proof.Binfmt.is_binary data);
  let h1 =
    match hint formula data with
    | Ok st -> st
    | Error e -> Alcotest.failf "%s: hinted checker rejected: %a" what Proof.Hint_check.pp_error e
  in
  let h4 =
    match hint ~jobs:4 formula data with
    | Ok st -> st
    | Error e ->
      Alcotest.failf "%s: hinted checker (jobs=4) rejected: %a" what Proof.Hint_check.pp_error e
  in
  let nodes, chains =
    match oracle formula data with
    | Ok counts -> counts
    | Error msg -> Alcotest.failf "%s: oracle rejected an accepted certificate: %s" what msg
  in
  Alcotest.(check int) (what ^ ": hinted chains") chains h1.Proof.Hint_check.chains;
  Alcotest.(check int) (what ^ ": hinted nodes") nodes h1.Proof.Hint_check.nodes;
  (* The zero-search pin: every resolution step followed its hint, and
     the step count is exactly the proof's resolution count. *)
  Alcotest.(check int)
    (what ^ ": every step followed a hint")
    h1.Proof.Hint_check.steps h1.Proof.Hint_check.hints_followed;
  let expected_steps =
    (Proof.Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Proof.Pstats.resolutions
  in
  Alcotest.(check int) (what ^ ": steps = proof resolutions") expected_steps
    h1.Proof.Hint_check.steps;
  (* Delete records keep the live set below the node count. *)
  Alcotest.(check bool)
    (what ^ ": peak live within node count")
    true
    (h1.Proof.Hint_check.peak_live <= h1.Proof.Hint_check.nodes);
  (* Job-count independence of every reported number. *)
  if h1 <> h4 then Alcotest.failf "%s: stats differ between jobs=1 and jobs=4" what;
  data

(* --- fixed golden circuits, all prover shapes --- *)

let test_golden_circuits () =
  List.iter
    (fun (case : Suite.case) ->
      List.iter
        (fun mode ->
          let golden = case.Suite.golden () and revised = case.Suite.revised () in
          match cert_of ~mode golden revised with
          | Some cert ->
            ignore (differential ~what:(case.Suite.name ^ "/" ^ Sweep.mode_to_string mode) cert)
          | None -> Alcotest.failf "%s: no certificate" case.Suite.name)
        [ Sweep.Perpair; Sweep.Incremental ])
    Suite.small

let test_partitioned_certificate () =
  (* Multi-output pair through [Parallel.check]: the stitch records one
     boundary per partition, so this is the certificate shape the shard
     table exists for. *)
  let golden = Circuits.Multiplier.array 4 in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create 11) golden in
  match parallel_cert golden revised with
  | Some cert ->
    Alcotest.(check bool) "stitch recorded boundaries" true
      (Array.length cert.Cec.boundaries > 0);
    let data = differential ~what:"mul4-partitioned" cert in
    let r = Proof.Binfmt.reader data in
    Alcotest.(check bool) "multi-shard body" true (Array.length (Proof.Binfmt.shards r) > 1)
  | None -> Alcotest.fail "partitioned check did not prove equivalence"

(* --- random AIG pairs (qcheck) --- *)

let qtest ?(count = 20) name prop =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let random_equivalent_pair seed =
  let num_inputs = 4 + (seed mod 3) in
  let golden =
    Circuits.Random_aig.generate
      (Support.Rng.create (1 + seed))
      ~num_inputs
      ~num_ands:(20 + (seed mod 30))
      ~num_outputs:(1 + (seed mod 2))
  in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create (7 * seed)) golden in
  (golden, revised)

let prop_random_pairs_agree =
  qtest "checkers agree on random certificates" (fun seed ->
      let golden, revised = random_equivalent_pair seed in
      let mode = if seed mod 2 = 0 then Sweep.Perpair else Sweep.Incremental in
      (match cert_of ~mode golden revised with
      | Some cert -> ignore (differential ~what:(Printf.sprintf "random-%d" seed) cert)
      | None -> ());
      true)

(* --- corruption fuzzing --- *)

(* One fixed hinted certificate with several shards and plenty of
   records, plus its formula. *)
let fuzz_fixture =
  lazy
    (let case = Option.get (Suite.find "mul3-arr-sa") in
     match cert_of (case.Suite.golden ()) (case.Suite.revised ()) with
     | Some cert -> (encode cert, cert.Cec.formula)
     | None -> failwith "fuzz setup failed")

(* Both checkers on one body, with the sharded checker pinned
   bit-identical to the sequential one (error record included — the
   join always checks every shard and picks a deterministic failure, so
   rejection must not depend on the job count either), and the oracle
   accepting whatever the production checker accepts. *)
let verdicts ~what data =
  let _, formula = Lazy.force fuzz_fixture in
  let h1 = hint formula data in
  let h4 = hint ~jobs:4 formula data in
  (match (h1, h4) with
  | Ok a, Ok b when a = b -> ()
  | Error a, Error b when a = b -> ()
  | _ -> Alcotest.failf "%s: hinted checker diverges between jobs=1 and jobs=4" what);
  let o = oracle formula data in
  (match (h1, o) with
  | Ok _, Error msg -> Alcotest.failf "%s: hinted accepts but the oracle rejects: %s" what msg
  | _ -> ());
  (h1, o)

let prop_bitflip_fuzz =
  qtest ~count:150 "single-bit corruption classified identically" (fun seed ->
      let data, _ = Lazy.force fuzz_fixture in
      let pos = seed mod String.length data in
      let bit = 1 lsl (seed / String.length data mod 8) in
      let corrupted =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor bit) else c) data
      in
      ignore (verdicts ~what:(Printf.sprintf "flip@%d^%d" pos bit) corrupted);
      true)

let prop_truncation_fuzz =
  qtest ~count:100 "truncation rejected at every cut point" (fun seed ->
      let data, _ = Lazy.force fuzz_fixture in
      let cut = seed mod (String.length data - 1) in
      (match verdicts ~what:(Printf.sprintf "cut@%d" cut) (String.sub data 0 cut) with
      | Error e, Error _ ->
        Alcotest.(check bool) (Printf.sprintf "cut@%d: malformed" cut) true
          e.Proof.Hint_check.malformed
      | _ -> Alcotest.failf "cut@%d: truncated certificate accepted" cut);
      true)

let suites =
  [
    ( "check-differential",
      [
        Alcotest.test_case "golden circuits, both sweep modes" `Quick test_golden_circuits;
        Alcotest.test_case "partitioned certificate round-trip" `Quick
          test_partitioned_certificate;
      ] );
    ( "qcheck-check-differential",
      [ prop_random_pairs_agree; prop_bitflip_fuzz; prop_truncation_fuzz ] );
  ]
