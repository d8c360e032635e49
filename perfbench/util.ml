(* Statistics, JSON rendering and small helpers shared by the workloads. *)

let median = Calib.median_of

(* Linear-interpolated quantile of unsorted data. *)
let quantile (a : float array) p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* The highest percentile of a fixed ladder with at least ten samples
   beyond it.  [None] when even the median has fewer than ten beyond:
   the caller then reports the maximum and says so. *)
let ladder = [ 0.5; 0.75; 0.9; 0.95; 0.99; 0.999 ]

let tail_percentile n =
  List.fold_left
    (fun acc p -> if float_of_int n *. (1. -. p) >= 10. then Some p else acc)
    None ladder

let sum a = Array.fold_left ( +. ) 0. a
let mean a = if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)

(* JSON numbers: full precision, never "nan"/"inf". *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "0.0"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

(* Substring helpers for the daemons' flat JSON files. *)
let after text pat =
  let n = String.length text and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub text i m = pat then Some (String.sub text (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let until text c = match String.index_opt text c with Some i -> String.sub text 0 i | None -> text

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

(* A deterministic stream for everything the seed moves. *)
let rng seed salt = Support.Rng.create ((seed * 1_000_003) + salt)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Support.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
