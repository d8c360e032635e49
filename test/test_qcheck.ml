(* Property-based differential tests: random circuit pairs checked by
   every engine, certificates re-validated, proof-checker fuzzing by
   store corruption, and parser/printer round-trips. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel
module R = Proof.Resolution
module Clause = Cnf.Clause

let sweeping = Cec.Sweeping Sweep.default_config

let qtest ?(count = 20) name prop =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* Random (golden, revised) pairs: a random AIG against a restructured
   copy, with roughly a third of the seeds corrupting one output so
   that inequivalent instances are exercised too. *)
let random_pair seed =
  let num_inputs = 4 + (seed mod 3) in
  let num_outputs = 1 + (seed mod 3) in
  let golden =
    Circuits.Random_aig.generate
      (Support.Rng.create (1 + seed))
      ~num_inputs ~num_ands:(20 + (seed mod 30)) ~num_outputs
  in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create (7 * seed)) golden in
  if seed mod 3 = 2 then begin
    let o = seed mod Aig.num_outputs revised in
    Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o));
    (golden, revised)
  end
  else (golden, revised)

let verdict_of = function
  | Cec.Equivalent _ -> "eq"
  | Cec.Inequivalent _ -> "neq"
  | Cec.Undecided -> "undecided"

(* (a) The monolithic, sweeping and parallel engines agree. *)
let prop_engines_agree =
  qtest "mono/sweep/parallel verdicts agree" (fun seed ->
      let golden, revised = random_pair seed in
      let mono = (Cec.check Cec.Monolithic golden revised).Cec.verdict in
      let sweep = (Cec.check sweeping golden revised).Cec.verdict in
      let par =
        (Parallel.check
           ~config:{ Parallel.default_config with Parallel.num_domains = 2 }
           golden revised)
          .Parallel.verdict
      in
      let ok = verdict_of mono = verdict_of sweep && verdict_of sweep = verdict_of par in
      if not ok then
        QCheck.Test.fail_reportf "mono=%s sweep=%s parallel=%s" (verdict_of mono)
          (verdict_of sweep) (verdict_of par);
      true)

(* (b) Every Equivalent certificate is a checkable refutation of its
   own formula, whichever engine produced it. *)
let prop_certificates_check =
  qtest "equivalence certificates pass the checker" (fun seed ->
      let golden, revised = random_pair seed in
      let certs =
        List.filter_map
          (fun verdict -> match verdict with Cec.Equivalent cert -> Some cert | _ -> None)
          [
            (Cec.check Cec.Monolithic golden revised).Cec.verdict;
            (Cec.check sweeping golden revised).Cec.verdict;
            (Parallel.check golden revised).Parallel.verdict;
          ]
      in
      List.iter
        (fun (cert : Cec.certificate) ->
          match
            Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root ~formula:cert.Cec.formula ()
          with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "certificate rejected: %a" Proof.Checker.pp_error e)
        certs;
      true)

(* (c) Every Inequivalent witness really drives the miter output to 1
   under bit-parallel simulation. *)
let prop_witnesses_simulate =
  qtest "counterexamples drive the miter output" (fun seed ->
      let golden, revised = random_pair seed in
      List.iter
        (fun verdict ->
          match verdict with
          | Cec.Inequivalent cex ->
            let miter = Aig.Miter.build golden revised in
            let sim = Aig.Sim.create miter ~words:1 in
            Array.iteri (fun i b -> Aig.Sim.set_input_bit sim ~input:i ~bit:0 b) cex;
            Aig.Sim.run sim;
            if not (Aig.Sim.lit_bit sim (Aig.output miter 0) ~bit:0) then
              QCheck.Test.fail_report "witness does not set the miter output"
          | Cec.Equivalent _ | Cec.Undecided -> ())
        [
          (Cec.check Cec.Monolithic golden revised).Cec.verdict;
          (Cec.check sweeping golden revised).Cec.verdict;
          (Parallel.check golden revised).Parallel.verdict;
        ];
      true)

(* --- proof-checker fuzzing: corrupt a valid store, expect rejection --- *)

(* A valid refutation (with its formula) to corrupt. *)
let valid_proof =
  lazy
    (let miter =
       Aig.Miter.build (Circuits.Adder.ripple_carry 3) (Circuits.Adder.carry_lookahead 3)
     in
     match Sweep.run miter Sweep.default_config with
     | Sweep.Proved { proof; root; formula; _ }, _ -> (proof, root, formula)
     | (Sweep.Disproved _ | Sweep.Unresolved), _ -> failwith "fuzz setup failed")

(* Copy the cone of [root] into a fresh store, passing every node
   through [mutate] (which sees the original node and ids remapped to
   the copy). *)
let copy_with ~mutate src ~root =
  let dst = R.create () in
  let map = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      let remap a = Hashtbl.find map a in
      let dst_id =
        match mutate dst id (R.node src id) with
        | R.Leaf { clause; assumption } -> R.add_leaf ~assumption dst clause
        | R.Chain { clause; antecedents; pivots } ->
          R.add_chain dst ~clause ~antecedents:(Array.map remap antecedents) ~pivots
      in
      Hashtbl.add map id dst_id)
    (R.reachable src ~root);
  (dst, Hashtbl.find map root)

(* The ids of chain nodes in the cone, for picking a corruption site. *)
let cone_chains src ~root =
  Array.to_list (R.reachable src ~root)
  |> List.filter (fun id -> match R.node src id with R.Chain _ -> true | R.Leaf _ -> false)

let pick_chain seed =
  let src, root, _ = Lazy.force valid_proof in
  let chains = cone_chains src ~root in
  (src, root, List.nth chains (seed mod List.length chains))

let expect_rejected ?formula what (proof, root) =
  match Proof.Checker.check proof ~root ?formula () with
  | Ok _ -> QCheck.Test.fail_reportf "%s accepted" what
  | Error e ->
    if String.length e.Proof.Checker.reason = 0 then
      QCheck.Test.fail_reportf "%s rejected without a reason" what;
    true

let fresh_var () =
  let _, _, formula = Lazy.force valid_proof in
  Cnf.Formula.num_vars formula + 1

(* A pivot variable that occurs nowhere makes the resolution step
   invalid rather than merely wrong. *)
let prop_checker_rejects_wrong_pivot =
  qtest "checker rejects wrong pivot" (fun seed ->
      let src, root, victim = pick_chain seed in
      let mutate _dst id node =
        match node with
        | R.Chain { clause; antecedents; pivots } when id = victim ->
          let pivots = Array.copy pivots in
          pivots.(seed mod Array.length pivots) <- fresh_var () + (seed mod 5);
          R.Chain { clause; antecedents; pivots }
        | n -> n
      in
      expect_rejected "wrong-pivot proof" (copy_with ~mutate src ~root))

(* Redirecting an antecedent at an unrelated unit leaf breaks the
   chain: the pivot either stops clashing or resolves to a different
   clause. *)
let prop_checker_rejects_swapped_antecedent =
  qtest "checker rejects swapped antecedent" (fun seed ->
      let src, root, victim = pick_chain seed in
      let dst = R.create () in
      let map = Hashtbl.create 64 in
      Array.iter
        (fun id ->
          let dst_id =
            match R.node src id with
            | R.Leaf { clause; assumption } -> R.add_leaf ~assumption dst clause
            | R.Chain { clause; antecedents; pivots } ->
              let antecedents = Array.map (Hashtbl.find map) antecedents in
              if id = victim then begin
                let bogus =
                  R.add_leaf dst
                    (Clause.singleton (Aig.Lit.of_var (fresh_var () + (seed mod 5))))
                in
                antecedents.(seed mod Array.length antecedents) <- bogus
              end;
              R.add_chain dst ~clause ~antecedents ~pivots
          in
          Hashtbl.add map id dst_id)
        (R.reachable src ~root);
      expect_rejected "swapped-antecedent proof" (dst, Hashtbl.find map root))

(* Growing a chain's stored clause by a fresh literal must be caught
   by recompute-and-compare. *)
let prop_checker_rejects_mutated_clause =
  qtest "checker rejects mutated stored clause" (fun seed ->
      let src, root, victim = pick_chain seed in
      let mutate _dst id node =
        match node with
        | R.Chain { clause; antecedents; pivots } when id = victim ->
          let extra = Aig.Lit.of_var (fresh_var () + (seed mod 5)) in
          let clause = Clause.of_list (extra :: Clause.to_list clause) in
          R.Chain { clause; antecedents; pivots }
        | n -> n
      in
      expect_rejected "mutated-clause proof" (copy_with ~mutate src ~root))

(* Leaf clauses outside the formula are rejected when checking
   against it. *)
let prop_checker_rejects_foreign_leaf =
  qtest "checker rejects leaf outside the formula" (fun seed ->
      let src, root, formula = Lazy.force valid_proof in
      let leaves =
        Array.to_list (R.reachable src ~root)
        |> List.filter (fun id ->
               match R.node src id with R.Leaf _ -> true | R.Chain _ -> false)
      in
      let victim = List.nth leaves (seed mod List.length leaves) in
      let mutate _dst id node =
        match node with
        | R.Leaf { clause; assumption } when id = victim ->
          let extra = Aig.Lit.of_var (fresh_var () + (seed mod 5)) in
          R.Leaf { clause = Clause.of_list (extra :: Clause.to_list clause); assumption }
        | n -> n
      in
      expect_rejected ~formula "foreign-leaf proof" (copy_with ~mutate src ~root))

(* Assumption leaves must never survive into a final proof. *)
let prop_checker_rejects_leftover_assumption =
  qtest "checker rejects leftover assumption leaf" (fun seed ->
      let src, root, _ = Lazy.force valid_proof in
      let leaves =
        Array.to_list (R.reachable src ~root)
        |> List.filter (fun id ->
               match R.node src id with R.Leaf _ -> true | R.Chain _ -> false)
      in
      let victim = List.nth leaves (seed mod List.length leaves) in
      let mutate _dst id node =
        match node with
        | R.Leaf { clause; _ } when id = victim -> R.Leaf { clause; assumption = true }
        | n -> n
      in
      expect_rejected "assumption-bearing proof" (copy_with ~mutate src ~root))

(* Dangling antecedent ids cannot even be constructed: the store
   rejects them at append time. *)
let test_store_rejects_dangling_id () =
  let proof = R.create () in
  let a = R.add_leaf proof (Clause.singleton (Aig.Lit.of_var 1)) in
  let b = R.add_leaf proof (Clause.singleton (Aig.Lit.neg (Aig.Lit.of_var 1))) in
  (try
     ignore
       (R.add_chain proof ~clause:Clause.empty ~antecedents:[| a; b + 17 |] ~pivots:[| 1 |]);
     Alcotest.fail "dangling antecedent id accepted"
   with Invalid_argument _ -> ());
  match R.node proof (b + 17) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range node id accepted"

(* --- round-trips --- *)

let random_graph seed =
  Circuits.Random_aig.generate
    (Support.Rng.create (31 + seed))
    ~num_inputs:(3 + (seed mod 4))
    ~num_ands:(15 + (seed mod 40))
    ~num_outputs:(1 + (seed mod 3))

(* Semantic agreement of two same-interface graphs on random patterns. *)
let simulate_agree seed a b =
  Aig.num_inputs a = Aig.num_inputs b
  && Aig.num_outputs a = Aig.num_outputs b
  &&
  let sa = Aig.Sim.create a ~words:4 and sb = Aig.Sim.create b ~words:4 in
  Aig.Sim.randomize_inputs sa (Support.Rng.create (1234 + seed));
  Aig.Sim.randomize_inputs sb (Support.Rng.create (1234 + seed));
  Aig.Sim.run sa;
  Aig.Sim.run sb;
  let ok = ref true in
  for o = 0 to Aig.num_outputs a - 1 do
    if Aig.Sim.lit_values sa (Aig.output a o) <> Aig.Sim.lit_values sb (Aig.output b o) then
      ok := false
  done;
  !ok

let clauses_of formula =
  let acc = ref [] in
  Cnf.Formula.iter (fun c -> acc := c :: !acc) formula;
  List.sort Clause.compare !acc

let prop_dimacs_roundtrip =
  qtest "DIMACS parse-print round-trip" (fun seed ->
      let formula = Cnf.Tseitin.of_graph (random_graph seed) in
      let reparsed = Cnf.Dimacs.of_string (Cnf.Dimacs.to_string formula) in
      let ok = clauses_of formula = clauses_of reparsed in
      if not ok then QCheck.Test.fail_report "clause sets differ after round-trip";
      true)

let prop_aiger_roundtrip =
  qtest "AIGER write-read preserves semantics" (fun seed ->
      let g = random_graph seed in
      let reread = Aig.Aiger.of_string (Aig.Aiger.to_string g) in
      simulate_agree seed g reread)

let prop_blif_roundtrip =
  qtest "BLIF write-read preserves semantics" (fun seed ->
      let g = random_graph seed in
      let reread = Aig.Blif.of_string (Aig.Blif.to_string g) in
      simulate_agree seed g reread)

(* Dense-trace export/import round-trips on proofs produced by real
   sweeping runs (lemma reuse on, so lifted lemma proofs are included):
   the reparsed proof must keep the root clause and stay checkable
   against the original certificate's formula. *)
let clause_at proof id =
  match R.node proof id with
  | R.Leaf { clause; _ } | R.Chain { clause; _ } -> clause

let prop_trace_roundtrip =
  qtest "resolution trace export round-trip" (fun seed ->
      let golden, revised = random_pair seed in
      match (Cec.check sweeping golden revised).Cec.verdict with
      | Cec.Inequivalent _ | Cec.Undecided -> true (* refutations only *)
      | Cec.Equivalent cert ->
        let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
        let text = Proof.Export.trace_to_string trimmed ~root in
        let proof', root' = Proof.Export.trace_of_string text in
        if Clause.compare (clause_at trimmed root) (clause_at proof' root') <> 0 then
          QCheck.Test.fail_report "root clause changed across the round-trip";
        (match
           Proof.Checker.check proof' ~root:root' ~formula:cert.Cec.formula ()
         with
        | Ok _ -> ()
        | Error e ->
          QCheck.Test.fail_reportf "reparsed proof rejected: %a" Proof.Checker.pp_error e);
        (* The round-trip is a fixpoint: re-export reproduces the text. *)
        if Proof.Export.trace_to_string proof' ~root:root' <> text then
          QCheck.Test.fail_report "re-export diverged from the original trace";
        true)

(* Binary certificates: encode real sweeping refutations and (a) decode
   back to an equivalent checkable proof, (b) validate with the
   hinted checker, (c) fuzz the bytes — corruption must come back as
   [Error], never an exception or a crash. *)
let prop_binfmt_roundtrip =
  qtest "binary certificate round-trip" (fun seed ->
      let golden, revised = random_pair seed in
      match (Cec.check sweeping golden revised).Cec.verdict with
      | Cec.Inequivalent _ | Cec.Undecided -> true (* refutations only *)
      | Cec.Equivalent cert ->
        let proof = cert.Cec.proof and root = cert.Cec.root in
        let data = Proof.Binfmt.encode_hinted proof ~root in
        (* The encoder trims, so compare against the trimmed cone. *)
        let trimmed, troot = Proof.Trim.cone proof ~root in
        let proof', root' = Proof.Binfmt.decode data in
        if R.size proof' <> Array.length (R.reachable trimmed ~root:troot) then
          QCheck.Test.fail_report "decoded node count differs from the trimmed cone";
        if Clause.compare (clause_at trimmed troot) (clause_at proof' root') <> 0 then
          QCheck.Test.fail_report "root clause changed across the round-trip";
        (match Proof.Checker.check proof' ~root:root' ~formula:cert.Cec.formula () with
        | Ok _ -> ()
        | Error e ->
          QCheck.Test.fail_reportf "decoded proof rejected: %a" Proof.Checker.pp_error e);
        (match Proof.Hint_check.check ~formula:cert.Cec.formula data with
        | Ok st ->
          if st.Proof.Hint_check.nodes <> R.size proof' then
            QCheck.Test.fail_report "checked node count differs from decode";
          if st.Proof.Hint_check.peak_live > st.Proof.Hint_check.nodes then
            QCheck.Test.fail_report "peak live above node count"
        | Error e ->
          QCheck.Test.fail_reportf "hinted checker rejected a valid certificate: %a"
            Proof.Hint_check.pp_error e);
        (* Deterministic encoding: same proof, same bytes. *)
        if Proof.Binfmt.encode_hinted proof' ~root:root' <> data then
          QCheck.Test.fail_report "re-encode diverged from the original bytes";
        true)

let valid_cert_bytes =
  lazy
    (let proof, root, formula = Lazy.force valid_proof in
     (Proof.Binfmt.encode_hinted proof ~root, formula))

let prop_binfmt_fuzz =
  qtest ~count:200 "corrupted binary certificates never crash" (fun seed ->
      let data, formula = Lazy.force valid_cert_bytes in
      let rng = Support.Rng.create (seed + 1) in
      let mutated =
        match seed mod 3 with
        | 0 ->
          (* Truncate somewhere (including inside the header). *)
          String.sub data 0 (Support.Rng.int rng (String.length data))
        | 1 ->
          (* Flip one byte. *)
          let i = Support.Rng.int rng (String.length data) in
          let b = 1 + Support.Rng.int rng 255 in
          String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor b) else c) data
        | _ ->
          (* Splice a random byte in. *)
          let i = Support.Rng.int rng (String.length data) in
          String.sub data 0 i
          ^ String.make 1 (Char.chr (Support.Rng.int rng 256))
          ^ String.sub data i (String.length data - i)
      in
      (* Whatever the mutation did, the checker must return a Result —
         a mutation that leaves the certificate valid is legitimately
         accepted, anything else must be a structured rejection. *)
      (match Proof.Hint_check.check ~formula mutated with
      | Ok _ | Error _ -> ());
      (* Corruption within the 5 header bytes is always detected. *)
      (if String.length mutated < String.length Proof.Binfmt.magic + 1
          || not (String.equal (String.sub mutated 0 5) (String.sub data 0 5))
       then
         match Proof.Hint_check.check ~formula mutated with
         | Ok _ -> QCheck.Test.fail_report "corrupted header accepted"
         | Error e ->
           if not e.Proof.Hint_check.malformed then
             QCheck.Test.fail_report "corrupted header reported as semantic");
      (* [decode] may raise [Failure] (documented) but nothing else. *)
      (match Proof.Binfmt.decode mutated with
      | _ -> ()
      | exception Failure _ -> ());
      true)

let suites =
  [
    ( "qcheck-differential",
      [
        prop_engines_agree;
        prop_certificates_check;
        prop_witnesses_simulate;
      ] );
    ( "qcheck-checker-fuzz",
      [
        prop_checker_rejects_wrong_pivot;
        prop_checker_rejects_swapped_antecedent;
        prop_checker_rejects_mutated_clause;
        prop_checker_rejects_foreign_leaf;
        prop_checker_rejects_leftover_assumption;
        Alcotest.test_case "store rejects dangling ids" `Quick test_store_rejects_dangling_id;
      ] );
    ( "qcheck-roundtrip",
      [
        prop_dimacs_roundtrip;
        prop_aiger_roundtrip;
        prop_blif_roundtrip;
        prop_trace_roundtrip;
      ] );
    ( "qcheck-binfmt",
      [
        prop_binfmt_roundtrip;
        prop_binfmt_fuzz;
      ] );
  ]
