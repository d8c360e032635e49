(* Spans recorded by the benchmark's own code around each call into a
   layer: name, start, end, parent and request id.  They are kept in
   memory and written out when the run ends.  Recording is off in the
   untraced runs, so [span] is then a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the top *)
  req : int;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let request = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; req = !request; t0 = Unix.gettimeofday (); t1 = nan } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

(* [f ()] with recording on. *)
let traced f =
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := false) f

(* Calibrated self time per span name, in ms: a span's duration minus
   the time its direct children cover. *)
let self_ms () =
  let all = Array.of_list (List.rev !spans) in
  let child = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    all;
  let by_name = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let raw = 1000. *. (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)) in
      let ms = Calib.cal ~t0:s.t0 ~t1:s.t1 raw in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. ms))
    all;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt by_name name)

let write path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0. in
  let line s =
    Util.obj
      [
        ("id", string_of_int s.id);
        ("name", Util.str s.name);
        ("parent", string_of_int s.parent);
        ("req", string_of_int s.req);
        ("start_us", Printf.sprintf "%.1f" (1e6 *. (s.t0 -. base)));
        ("end_us", Printf.sprintf "%.1f" (1e6 *. (s.t1 -. base)));
      ]
  in
  Util.write_file path ("[\n" ^ String.concat ",\n" (List.map line all) ^ "\n]\n")
