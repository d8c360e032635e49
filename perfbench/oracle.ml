(* Answers known independently of the engine under test.

   Equivalent pairs are equivalent by construction (a circuit against
   a function-preserving rewrite or another architecture of the same
   arithmetic).  Mutants are a circuit with one AND gate changed; the
   benchmark's own bit-parallel simulation below (not [Aig.Sim])
   confirms that the change is observable and keeps a witness, and
   every counterexample the engine returns is replayed by plain
   [Aig.eval]. *)

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Simulate [words] 64-pattern words; input [i] word [w] is a hash of
   (salt, i, w).  Returns every output's words. *)
let simulate g ~words ~salt =
  let n = Aig.num_nodes g in
  let v = Array.make_matrix n words 0L in
  for i = 0 to Aig.num_inputs g - 1 do
    let node = Aig.Lit.var (Aig.input g i) in
    for w = 0 to words - 1 do
      v.(node).(w) <- mix (Int64.of_int ((((salt * 65_537) + i) * 4096) + w))
    done
  done;
  let lit_word l w =
    let x = v.(Aig.Lit.var l).(w) in
    if Aig.Lit.is_neg l then Int64.lognot x else x
  in
  Aig.iter_ands g (fun node ->
      let a = Aig.fanin0 g node and b = Aig.fanin1 g node in
      for w = 0 to words - 1 do
        v.(node).(w) <- Int64.logand (lit_word a w) (lit_word b w)
      done);
  Array.map (fun l -> Array.init words (lit_word l)) (Aig.outputs g)

(* The input assignment of pattern [bit] of word [w]. *)
let pattern g ~salt ~w ~bit =
  Array.init (Aig.num_inputs g) (fun i ->
      let x = mix (Int64.of_int ((((salt * 65_537) + i) * 4096) + w)) in
      Int64.(logand (shift_right_logical x bit) 1L) = 1L)

(* A distinguishing assignment found by simulation, if any. *)
let witness ?(words = 32) ?(salt = 1) a b =
  let oa = simulate a ~words ~salt and ob = simulate b ~words ~salt in
  let found = ref None in
  Array.iteri
    (fun o wa ->
      Array.iteri
        (fun w x ->
          let d = Int64.logxor x ob.(o).(w) in
          if !found = None && d <> 0L then begin
            let bit = ref 0 in
            while Int64.(logand (shift_right_logical d !bit) 1L) = 0L do
              incr bit
            done;
            found := Some (pattern a ~salt ~w ~bit:!bit)
          end)
        wa)
    oa;
  !found

(* [g] with AND node [target]'s first fanin complemented. *)
let flip_gate g target =
  let m = Aig.create ~num_inputs:(Aig.num_inputs g) in
  let map = Array.make (Aig.num_nodes g) Aig.Lit.false_ in
  for i = 0 to Aig.num_inputs g - 1 do
    map.(Aig.Lit.var (Aig.input g i)) <- Aig.input m i
  done;
  let tr l = Aig.Lit.apply_sign map.(Aig.Lit.var l) ~neg:(Aig.Lit.is_neg l) in
  Aig.iter_ands g (fun node ->
      let a = tr (Aig.fanin0 g node) and b = tr (Aig.fanin1 g node) in
      let a = if node = target then Aig.Lit.neg a else a in
      map.(node) <- Aig.and_ m a b);
  Array.iter (fun l -> Aig.add_output m (tr l)) (Aig.outputs g);
  m

(* A seeded single-gate mutant of [revised] that simulation tells apart
   from [golden]: gates are tried in a seeded order until one flip is
   observable, its simulation witness confirmed by plain evaluation. *)
let mutant rng golden revised =
  let ands = ref [] in
  Aig.iter_ands revised (fun n -> ands := n :: !ands);
  let ands = Array.of_list !ands in
  Util.shuffle rng ands;
  let rec go i =
    if i >= Array.length ands then failwith "oracle: no observable single-gate mutant"
    else
      let m = flip_gate revised ands.(i) in
      match witness golden m with
      | Some w when Aig.eval golden w <> Aig.eval m w -> m
      | _ -> go (i + 1)
  in
  go 0

(* A counterexample is genuine when plain evaluation tells the pair
   apart on it. *)
let replays golden revised cex =
  Array.length cex = Aig.num_inputs golden && Aig.eval golden cex <> Aig.eval revised cex

let cex_of_string s = Array.init (String.length s) (fun i -> s.[i] = '1')

(* The miter CNF a certificate for the pair must refute. *)
let formula_of golden revised = Cnf.Tseitin.miter_formula (Aig.Miter.build golden revised)

(* Every certificate passes the production checker, [Hint_check]; the
   run's seeded one is also decoded and passes the independent
   [Proof.Checker]. *)
let independent_check ~formula body =
  match Proof.Binfmt.decode body with
  | exception (Failure msg | Invalid_argument msg) -> Error msg
  | proof, root -> (
    match Proof.Checker.check proof ~root ~formula () with
    | Ok _ -> Ok ()
    | Error e -> Error (Format.asprintf "%a" Proof.Checker.pp_error e))
