(* Tests for the later additions: misc circuit generators, BLIF I/O,
   and NPN canonicalization. *)

module Rng = Support.Rng
module Npn = Synth.Npn

let bits_of_int n width = Array.init width (fun i -> (n lsr i) land 1 = 1)

let int_of_bits bits =
  Array.to_list bits |> List.mapi (fun i b -> if b then 1 lsl i else 0) |> List.fold_left ( + ) 0

(* --- misc circuits --- *)

let test_barrel_shifter () =
  let k = 3 in
  let width = 1 lsl k in
  let g = Circuits.Misc_logic.barrel_shifter k in
  for amount = 0 to width - 1 do
    for data = 0 to min 255 ((1 lsl width) - 1) do
      let assignment = Array.append (bits_of_int amount k) (bits_of_int data width) in
      let result = int_of_bits (Aig.eval g assignment) in
      let expected = (data lsl amount) land ((1 lsl width) - 1) in
      if result <> expected then
        Alcotest.failf "shift %d << %d: expected %d got %d" data amount expected result
    done
  done

let test_priority_encoder () =
  let n = 6 in
  let g = Circuits.Misc_logic.priority_encoder n in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment = bits_of_int mask n in
    let outputs = Aig.eval g assignment in
    let valid = outputs.(Array.length outputs - 1) in
    if mask = 0 then Alcotest.(check bool) "invalid when no request" false valid
    else begin
      Alcotest.(check bool) "valid" true valid;
      let index = int_of_bits (Array.sub outputs 0 (Array.length outputs - 1)) in
      let expected =
        let rec first i = if (mask lsr i) land 1 = 1 then i else first (i + 1) in
        first 0
      in
      if index <> expected then Alcotest.failf "prio(%d): expected %d got %d" mask expected index
    end
  done

let test_gray_roundtrip () =
  let n = 6 in
  let to_gray = Circuits.Misc_logic.binary_to_gray n in
  let to_bin = Circuits.Misc_logic.gray_to_binary n in
  for v = 0 to (1 lsl n) - 1 do
    let gray = int_of_bits (Aig.eval to_gray (bits_of_int v n)) in
    Alcotest.(check int) "standard gray code" (v lxor (v lsr 1)) gray;
    let back = int_of_bits (Aig.eval to_bin (bits_of_int gray n)) in
    Alcotest.(check int) "roundtrip" v back
  done;
  (* consecutive codes differ in exactly one bit *)
  for v = 0 to (1 lsl n) - 2 do
    let g1 = v lxor (v lsr 1) and g2 = (v + 1) lxor ((v + 1) lsr 1) in
    let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
    Alcotest.(check int) "hamming distance one" 1 (popcount (g1 lxor g2))
  done

let test_majority3 () =
  let n = 3 in
  let g = Circuits.Misc_logic.majority3 n in
  for a = 0 to 7 do
    for b = 0 to 7 do
      for c = 0 to 7 do
        let assignment =
          Array.concat [ bits_of_int a n; bits_of_int b n; bits_of_int c n ]
        in
        let result = int_of_bits (Aig.eval g assignment) in
        let expected = (a land b) lor (a land c) lor (b land c) in
        if result <> expected then Alcotest.failf "maj(%d,%d,%d)" a b c
      done
    done
  done

(* --- BLIF --- *)

let same_function a b =
  let n = Aig.num_inputs a in
  assert (n <= 14);
  let ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment = Array.init n (fun i -> (mask lsr i) land 1 = 1) in
    if Aig.eval a assignment <> Aig.eval b assignment then ok := false
  done;
  !ok

let test_blif_roundtrip () =
  List.iter
    (fun g ->
      let g' = Aig.Blif.of_string (Aig.Blif.to_string g) in
      Alcotest.(check int) "inputs" (Aig.num_inputs g) (Aig.num_inputs g');
      Alcotest.(check int) "outputs" (Aig.num_outputs g) (Aig.num_outputs g');
      Alcotest.(check bool) "same function" true (same_function g g'))
    [
      Circuits.Adder.ripple_carry 4;
      Circuits.Datapath.alu 3;
      Circuits.Misc_logic.priority_encoder 5;
      Circuits.Random_aig.generate (Rng.create 3) ~num_inputs:5 ~num_ands:30 ~num_outputs:3;
    ]

let test_blif_constant_outputs () =
  let g = Aig.create ~num_inputs:1 in
  Aig.add_output g Aig.Lit.false_;
  Aig.add_output g Aig.Lit.true_;
  Aig.add_output g (Aig.Lit.neg (Aig.input g 0));
  let g' = Aig.Blif.of_string (Aig.Blif.to_string g) in
  Alcotest.(check (list bool)) "constants and inverter" [ false; true; true ]
    (Array.to_list (Aig.eval g' [| false |]))

let test_blif_hand_written () =
  (* Gates out of order, don't-cares, off-set table, continuation. *)
  let text =
    ".model test\n.inputs a b c\n.outputs f\n.names t1 c f\n11 1\n.names a \\\nb t1\n1- 0\n-1 0\n.end\n"
  in
  let g = Aig.Blif.of_string text in
  (* t1 = off-set rows (a OR b) -> t1 = ~(a|b); f = t1 AND c *)
  for mask = 0 to 7 do
    let a = mask land 1 = 1 and b = (mask lsr 1) land 1 = 1 and c = mask lsr 2 = 1 in
    let expected = (not (a || b)) && c in
    Alcotest.(check bool) (Printf.sprintf "f(%d)" mask) expected (Aig.eval g [| a; b; c |]).(0)
  done

let test_blif_errors () =
  let expect text =
    match Aig.Blif.of_string text with
    | exception Aig.Blif.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" text
  in
  expect ".model m\n.inputs a\n.outputs q\n.latch a q\n.end\n";
  expect ".model m\n.inputs a\n.outputs f\n.end\n";
  (* undefined f *)
  expect ".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n";
  (* cycle *)
  expect ".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end\n" (* arity *)

(* --- NPN --- *)

let test_npn_identity_and_negation () =
  (* x0 AND x1 vs its complement vs OR: AND ~ OR under NPN (De Morgan),
     and any function ~ its own complement. *)
  let and2 = 0x8L and or2 = 0xEL in
  Alcotest.(check bool) "and ~ or" true (Npn.equivalent ~vars:2 and2 or2);
  Alcotest.(check bool) "and ~ nand" true
    (Npn.equivalent ~vars:2 and2 (Int64.logand (Int64.lognot and2) 0xFL));
  Alcotest.(check bool) "and !~ xor" false (Npn.equivalent ~vars:2 and2 0x6L)

let test_npn_transform_is_witness () =
  (* canonical's transform really maps the function to the canon. *)
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let truth = Int64.logand (Rng.int64 rng) 0xFFFFL in
    let canon, t = Npn.canonical ~vars:4 truth in
    Alcotest.(check int64) "witness transform" canon (Npn.apply ~vars:4 t truth)
  done

let test_npn_class_invariance () =
  (* Random transforms of a function all share its canonical form. *)
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    let truth = Int64.logand (Rng.int64 rng) 0xFFFFL in
    let canon, _ = Npn.canonical ~vars:4 truth in
    let perm =
      match Rng.int rng 4 with
      | 0 -> [| 0; 1; 2; 3 |]
      | 1 -> [| 3; 2; 1; 0 |]
      | 2 -> [| 1; 0; 3; 2 |]
      | _ -> [| 2; 3; 0; 1 |]
    in
    let t = { Npn.perm; input_neg = Rng.int rng 16; output_neg = Rng.bool rng } in
    let transformed = Npn.apply ~vars:4 t truth in
    let canon', _ = Npn.canonical ~vars:4 transformed in
    Alcotest.(check int64) "same class" canon canon'
  done

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter;
        Alcotest.test_case "priority encoder" `Quick test_priority_encoder;
        Alcotest.test_case "gray code roundtrip" `Quick test_gray_roundtrip;
        Alcotest.test_case "majority3" `Quick test_majority3;
        Alcotest.test_case "blif roundtrip" `Quick test_blif_roundtrip;
        Alcotest.test_case "blif constant outputs" `Quick test_blif_constant_outputs;
        Alcotest.test_case "blif hand-written" `Quick test_blif_hand_written;
        Alcotest.test_case "blif errors" `Quick test_blif_errors;
        Alcotest.test_case "npn and/or/nand" `Quick test_npn_identity_and_negation;
        Alcotest.test_case "npn transform witness" `Quick test_npn_transform_is_witness;
        Alcotest.test_case "npn class invariance" `Quick test_npn_class_invariance;
      ] );
  ]
