exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let to_buffer buf g =
  let num_inputs = Graph.num_inputs g in
  let num_ands = Graph.num_ands g in
  let max_var = num_inputs + num_ands in
  Printf.bprintf buf "aag %d %d 0 %d %d\n" max_var num_inputs (Graph.num_outputs g) num_ands;
  for i = 0 to num_inputs - 1 do
    Printf.bprintf buf "%d\n" (Graph.input g i)
  done;
  Array.iter (fun l -> Printf.bprintf buf "%d\n" l) (Graph.outputs g);
  Graph.iter_ands g (fun n ->
      let f0 = Graph.fanin0 g n and f1 = Graph.fanin1 g n in
      (* The format wants rhs0 >= rhs1; the graph stores f0 <= f1. *)
      Printf.bprintf buf "%d %d %d\n" (Lit.of_var n) f1 f0)

let to_string g =
  let buf = Buffer.create 4096 in
  to_buffer buf g;
  Buffer.contents buf

let write_channel oc g = output_string oc (to_string g)

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc g)

(* Header counts are untrusted and size the allocations that follow,
   so they are checked against the input before anything is allocated
   from them.  Negative counts are refused, and so are counts the input
   cannot hold: more inputs than variables, more outputs or ANDs than
   the [records] body records the remaining input has room for, and a
   maximum variable index beyond one variable per bit of the
   [len]-byte input.  Binary inputs take no bytes at all, so that last
   bound is what keeps memory linear in the input's length. *)
let check_counts ~len ~records (m, i, l, o, a) =
  if m < 0 || i < 0 || l < 0 || o < 0 || a < 0 then fail "negative count in header";
  if l <> 0 then fail "latches are not supported (combinational only)";
  if m > 8 * len then fail "maximum variable index %d is more than a %d-byte input can hold" m len;
  if i > m || o > records || a > records then
    fail "truncated file: the header declares more than the input holds"

let of_ascii_string text =
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun s -> String.trim s <> "") lines in
  let header, rest =
    match lines with
    | [] -> fail "empty file"
    | h :: rest -> (h, rest)
  in
  let ints_of_line line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some v -> v
           | None -> fail "not a number: %S" s)
  in
  let m, i, l, o, a =
    match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
    | [ "aag"; m; i; l; o; a ] -> (
      match
        (int_of_string_opt m, int_of_string_opt i, int_of_string_opt l, int_of_string_opt o,
         int_of_string_opt a)
      with
      | Some m, Some i, Some l, Some o, Some a -> (m, i, l, o, a)
      | _ -> fail "malformed header %S" header)
    | _ -> fail "malformed header %S" header
  in
  let records = List.length rest in
  check_counts ~len:(String.length text) ~records (m, i, l, o, a);
  if records < i + o + a then fail "truncated file";
  let take n xs =
    let rec loop n xs acc =
      if n = 0 then (List.rev acc, xs)
      else
        match xs with
        | [] -> fail "truncated file"
        | x :: xs -> loop (n - 1) xs (x :: acc)
    in
    loop n xs []
  in
  let input_lines, rest = take i rest in
  let output_lines, rest = take o rest in
  let and_lines, _comments = take a rest in
  let g = Graph.create ~num_inputs:i in
  (* map.(aiger_var) = our literal for that variable, or -1. *)
  let map = Array.make (m + 1) (-1) in
  map.(0) <- Lit.false_;
  List.iteri
    (fun idx line ->
      match ints_of_line line with
      | [ lit ] ->
        if lit mod 2 <> 0 then fail "input literal %d is complemented" lit;
        let v = lit / 2 in
        if v < 1 || v > m then fail "input variable %d out of range" v;
        if map.(v) <> -1 then fail "variable %d defined twice" v;
        map.(v) <- Graph.input g idx
      | _ -> fail "malformed input line %S" line)
    input_lines;
  let map_lit lit =
    let v = lit / 2 in
    if v > m then fail "literal %d out of range" lit;
    let ours = map.(v) in
    if ours = -1 then fail "literal %d used before definition" lit;
    Lit.apply_sign ours ~neg:(lit mod 2 = 1)
  in
  List.iter
    (fun line ->
      match ints_of_line line with
      | [ lhs; rhs0; rhs1 ] ->
        if lhs mod 2 <> 0 then fail "AND lhs %d is complemented" lhs;
        let v = lhs / 2 in
        if v < 1 || v > m then fail "AND variable %d out of range" v;
        if map.(v) <> -1 then fail "variable %d defined twice" v;
        map.(v) <- Graph.and_ g (map_lit rhs0) (map_lit rhs1)
      | _ -> fail "malformed AND line %S" line)
    and_lines;
  List.iter
    (fun line ->
      match ints_of_line line with
      | [ lit ] -> Graph.add_output g (map_lit lit)
      | _ -> fail "malformed output line %S" line)
    output_lines;
  g


(* --- binary AIGER --- *)

let to_binary_string g =
  let buf = Buffer.create 4096 in
  let num_inputs = Graph.num_inputs g in
  let num_ands = Graph.num_ands g in
  Printf.bprintf buf "aig %d %d 0 %d %d\n" (num_inputs + num_ands) num_inputs
    (Graph.num_outputs g) num_ands;
  Array.iter (fun l -> Printf.bprintf buf "%d\n" l) (Graph.outputs g);
  let push_varint x =
    let x = ref x in
    while !x >= 0x80 do
      Buffer.add_char buf (Char.chr ((!x land 0x7f) lor 0x80));
      x := !x lsr 7
    done;
    Buffer.add_char buf (Char.chr !x)
  in
  Graph.iter_ands g (fun n ->
      let f0 = Graph.fanin0 g n and f1 = Graph.fanin1 g n in
      (* f0 <= f1 in the graph; binary AIGER wants rhs0 >= rhs1. *)
      let lhs = Lit.of_var n in
      push_varint (lhs - f1);
      push_varint (f1 - f0));
  Buffer.contents buf

let of_binary_string text =
  let len = String.length text in
  let pos = ref 0 in
  let read_line () =
    let start = !pos in
    while !pos < len && text.[!pos] <> '\n' do
      incr pos
    done;
    if !pos >= len then fail "truncated binary file";
    let line = String.sub text start (!pos - start) in
    incr pos;
    line
  in
  let header = read_line () in
  let m, i, l, o, a =
    match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
    | [ "aig"; m; i; l; o; a ] -> (
      match
        (int_of_string_opt m, int_of_string_opt i, int_of_string_opt l, int_of_string_opt o,
         int_of_string_opt a)
      with
      | Some m, Some i, Some l, Some o, Some a -> (m, i, l, o, a)
      | _ -> fail "malformed binary header %S" header)
    | _ -> fail "malformed binary header %S" header
  in
  (* Every output line and every AND record takes at least two bytes. *)
  check_counts ~len ~records:((len - !pos) / 2) (m, i, l, o, a);
  if m <> i + a then fail "binary AIGER requires M = I + A (got M=%d I=%d A=%d)" m i a;
  let output_lits =
    List.init o (fun _ ->
        match int_of_string_opt (String.trim (read_line ())) with
        | Some v -> v
        | None -> fail "malformed output line")
  in
  let read_varint () =
    let rec loop shift acc =
      if !pos >= len then fail "truncated binary AND section";
      let byte = Char.code text.[!pos] in
      incr pos;
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 <> 0 then loop (shift + 7) acc else acc
    in
    loop 0 0
  in
  let g = Graph.create ~num_inputs:i in
  (* map.(v) = our literal for binary variable v. *)
  let map = Array.make (m + 1) Lit.false_ in
  for k = 1 to i do
    map.(k) <- Graph.input g (k - 1)
  done;
  let lit_of encoded =
    let v = encoded / 2 in
    if v > m then fail "literal %d out of range" encoded;
    Lit.apply_sign map.(v) ~neg:(encoded mod 2 = 1)
  in
  for k = 0 to a - 1 do
    let lhs = 2 * (i + 1 + k) in
    let delta0 = read_varint () in
    let delta1 = read_varint () in
    let rhs0 = lhs - delta0 and rhs1 = lhs - delta0 - delta1 in
    if delta0 = 0 || rhs1 < 0 then fail "invalid deltas for AND %d" (i + 1 + k);
    map.(i + 1 + k) <- Graph.and_ g (lit_of rhs0) (lit_of rhs1)
  done;
  List.iter (fun lit -> Graph.add_output g (lit_of lit)) output_lits;
  g

let of_string text =
  if String.length text >= 4 && String.sub text 0 4 = "aig " then of_binary_string text
  else of_ascii_string text

let read_channel ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  of_string (Buffer.contents buf)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
