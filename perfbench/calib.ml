(* Host calibration.

   On a shared host the same work can take twice as long a few seconds
   later.  The benchmark therefore times the frozen reference kernel
   ({!Refkernel}) at short intervals, only while no request is in
   flight, and reports every timing as

     t_cal = t_raw * r0 / R(t)

   where R(t) is the kernel's duration interpolated to the sample's
   midpoint and [r0] is a fixed nominal duration.  Raw values and the
   R(t) samples are kept so every run can be audited. *)

let r0_ms = 18.0
let interval_s = 0.25

let now = Unix.gettimeofday

type sample = { at : float; ms : float }

let samples : sample list ref = ref []
let last = ref neg_infinity

let median_of (a : float array) =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One calibration sample: one kernel run.  Full major collections on
   either side keep the garbage of the request before and of the kernel
   itself out of both timings. *)
let measure () =
  Gc.full_major ();
  let t0 = now () in
  ignore (Sys.opaque_identity (Refkernel.run ()));
  let at = now () in
  samples := { at; ms = 1000. *. (at -. t0) } :: !samples;
  Gc.full_major ();
  last := now ()

(* The median of [n] samples taken back to back: the reference for one
   interval, such as a set-up, bracketed by two bursts. *)
let burst n =
  median_of
    (Array.init n (fun _ ->
         measure ();
         (List.hd !samples).ms))

(* Sample when the last one is older than [interval_s]; callers invoke
   this between requests, never while one is in flight. *)
let tick () = if now () -. !last >= interval_s then measure ()

(* The series smoothed by a centred running median of three samples,
   so one preempted kernel run cannot bend the curve. *)
let series () =
  let s = Array.of_list (List.rev !samples) in
  let n = Array.length s in
  Array.mapi
    (fun i x ->
      if n < 3 then x
      else
        let lo = max 0 (min (i - 1) (n - 3)) in
        { x with ms = median_of [| s.(lo).ms; s.(lo + 1).ms; s.(lo + 2).ms |] })
    s

let cache = ref None

let curve () =
  match !cache with
  | Some (n, c) when n = List.length !samples -> c
  | _ ->
    let c = series () in
    cache := Some (List.length !samples, c);
    c

(* R(t): linear interpolation between the neighbouring samples, held
   flat beyond the ends. *)
let ref_at t =
  let c = curve () in
  let n = Array.length c in
  if n = 0 then r0_ms
  else if t <= c.(0).at then c.(0).ms
  else if t >= c.(n - 1).at then c.(n - 1).ms
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if c.(mid).at <= t then lo := mid else hi := mid
    done;
    let a = c.(!lo) and b = c.(!hi) in
    let w = if b.at > a.at then (t -. a.at) /. (b.at -. a.at) else 0. in
    a.ms +. (w *. (b.ms -. a.ms))
  end

(* Calibrate a raw duration observed over [t0, t1]. *)
let cal ~t0 ~t1 raw = raw *. r0_ms /. ref_at ((t0 +. t1) /. 2.)

let raw_ms () = Array.of_list (List.rev_map (fun s -> s.ms) !samples)

(* The R0/R range over the run, printed next to the raw numbers. *)
let factor_range () =
  let c = curve () in
  Array.fold_left
    (fun (lo, hi) s ->
      let f = r0_ms /. s.ms in
      (min lo f, max hi f))
    (infinity, neg_infinity) c

let pinned_digest_ok ~source ~pin =
  let want = String.trim (In_channel.with_open_bin pin In_channel.input_all) in
  Digest.to_hex (Digest.file source) = want
