exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let to_string f =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "p cnf %d %d\n" (Formula.num_vars f) (Formula.num_clauses f);
  Formula.iter (fun c -> Buffer.add_string buf (Clause.to_dimacs_string c); Buffer.add_char buf '\n') f;
  Buffer.contents buf

let write_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string f))

let of_string text =
  let f = Formula.create () in
  let lines = String.split_on_char '\n' text in
  let saw_header = ref false in
  let num_vars = ref 0 in
  let pending = ref [] in
  let flush_clause () =
    (* DIMACS clauses are terminated by 0, possibly spanning lines. *)
    ignore (Formula.add f (Clause.of_list (List.rev_map Aig.Lit.of_dimacs !pending)));
    pending := []
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        (match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ "p"; "cnf"; vars; clauses ] -> (
          match (int_of_string_opt vars, int_of_string_opt clauses) with
          | Some v, Some c when v >= 0 && c >= 0 ->
            (* The header is trusted before the body is read, and the
               solver sizes per-variable arrays from it: bound it by what
               the input can name, as the AIGER readers do. *)
            let len = String.length text in
            if v > 8 * len then
              fail "header declares %d variables, more than a %d-byte input can hold" v len;
            num_vars := v;
            Formula.ensure_vars f v
          | _ -> fail "malformed header %S" line)
        | _ -> fail "malformed header %S" line);
        saw_header := true
      end
      else begin
        if not !saw_header then fail "clause before header";
        String.split_on_char ' ' line
        |> List.filter (fun s -> s <> "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | Some 0 -> flush_clause ()
               | Some d when d < - !num_vars || d > !num_vars ->
                 fail "literal %d out of range (header declares %d variables)" d !num_vars
               | Some d -> pending := d :: !pending
               | None -> fail "not a number: %S" tok)
      end)
    lines;
  if !pending <> [] then fail "unterminated clause";
  f

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text
