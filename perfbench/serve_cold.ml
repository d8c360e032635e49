(* serve-cold: [cec_tool serve] with its defaults on a Unix socket, in
   front of a byte-capped store.  Every request is a distinct
   suite-scale multi-output pair, so every request misses the cache:
   parse, key, [Engine.solve] on the partitioned [Parallel] path,
   stitch, encode, store write and eviction.  This is the daemon's
   miss path; fleet-warm is its read-only counterpart. *)

open Common
module Cec = Cec_core.Cec

(* Calibrated seconds one request takes on the reference host; the
   request count follows --seconds and never the seed. *)
let nominal_request_s = 0.075
let capacity_mb = 1

(* Every eighth request is a mutant of its family's pair. *)
let mutant_every = 8

let restructure ?(intensity = 0.5) seed g =
  Circuits.Rewrite.restructure ~intensity (Support.Rng.create seed) g

(* Suite-scale families: the golden side is fixed, the seed moves the
   rewrite of the revised side.  lt:16 is the slowest family and takes
   two shares (2/9 of the requests), so the reported tail, p95 of the
   200 requests of a 15-second run, falls inside its repeating
   population instead of on the edge between families. *)
let lt16 =
  ( "lt:16",
    fun s ->
      let g = Circuits.Datapath.less_than 16 in
      (g, restructure ~intensity:0.8 s g) )

let families =
  [|
    ("add-rc:8", fun s -> let g = Circuits.Adder.ripple_carry 8 in (g, restructure s g));
    ("alu:6", fun s -> let g = Circuits.Datapath.alu 6 in (g, restructure s g));
    lt16;
    lt16;
    ("mux:5", fun s -> let g = Circuits.Datapath.mux_tree 5 in (g, restructure s g));
    ("bshift:3", fun s -> let g = Circuits.Misc_logic.barrel_shifter 3 in (g, restructure s g));
    ("add-cla:6", fun s -> let g = Circuits.Adder.carry_lookahead 6 in (g, restructure s g));
    ("mul-arr:3", fun s -> let g = Circuits.Multiplier.array 3 in (g, restructure s g));
    ( "ks:8",
      fun s ->
        (Circuits.Prefix_adder.kogge_stone 8, restructure s (Circuits.Prefix_adder.brent_kung 8)) );
  |]

(* The request list: every family entry gets a fixed share of the requests,
   one in [mutant_every] of them a mutant; the seed shuffles the order
   and moves the rewrite seeds.  A pair whose key was already drawn is
   re-drawn, so every request is distinct. *)
let generate env ~count dir =
  let rng = Util.rng env.seed 3 in
  let nf = Array.length families in
  let schedule =
    Array.init count (fun i -> (i mod nf, i / nf mod mutant_every = mutant_every - 1))
  in
  Util.shuffle rng schedule;
  let seen = Hashtbl.create 256 in
  let draw fam =
    let name, make = families.(fam) in
    let rec go () =
      let s = Support.Rng.int rng 1_000_000_000 in
      let g, r = make s in
      let k = Service.Key.to_hex (Service.Key.of_pair g r) in
      if Hashtbl.mem seen k then go ()
      else begin
        Hashtbl.add seen k ();
        (Printf.sprintf "%s~restructure@%d" name s, g, r)
      end
    in
    go ()
  in
  Array.mapi
    (fun i (fam, mutant) ->
      let name, g, r = draw fam in
      let tag = string_of_int i in
      if mutant then
        write_pair dir ~tag ~name:("mutant:" ^ name) ~equivalent:false g (Oracle.mutant rng g r)
      else write_pair dir ~tag ~name ~equivalent:true g r)
    schedule

type daemon = { pid : int; sock : Service.Addr.t; store : string; stats : string }

let start env ~tag =
  let store = Filename.concat env.work ("store-" ^ tag) in
  let sock = Filename.concat env.work ("cecd-" ^ tag ^ ".sock") in
  let stats = Filename.concat env.work ("stats-" ^ tag ^ ".json") in
  let pid =
    Procs.spawn ~log:(Filename.concat env.work ("serve-" ^ tag ^ ".log")) env.tool
      [
        "serve"; "--socket"; sock; "--store"; store; "--capacity-mb"; string_of_int capacity_mb;
        "--quiet"; "--stats-out"; stats;
      ]
  in
  let addr = Service.Addr.Unix_path sock in
  Procs.wait_ready addr;
  { pid; sock = addr; store; stats }

let stop d = Procs.shutdown d.sock d.pid

(* The object body a daemon stored for [key]. *)
let stored_body store key =
  match Util.read_file (Filename.concat (Filename.concat store "objects") key) with
  | exception Sys_error _ -> None
  | data -> (
    match String.index_opt data '\n' with
    | None -> None
    | Some i -> (
      match String.index_from_opt data (i + 1) '\n' with
      | None -> None
      | Some j -> Some (String.sub data (j + 1) (String.length data - j - 1))))

(* Judge one reply against the oracle.  Returns the certificate body
   of a correct equivalent verdict. *)
let judge o ~store r reply =
  match judge_reply o r reply with
  | `Equivalent line -> (
    match Option.bind (Procs.field "key" line) (stored_body store) with
    | None ->
      fail o (r.name ^ ": certificate missing from the store");
      `Failed
    | Some body -> `Equivalent body)
  | (`Inequivalent | `Failed) as v -> v

(* Each set-up writes its inputs to a fresh directory; removing the
   previous one is teardown, not set-up. *)
let setup env ~count () =
  let tag = Printf.sprintf "%d-%.6f" (Unix.getpid ()) (Unix.gettimeofday ()) in
  let dir = Filename.concat env.work ("pairs-" ^ tag) in
  Util.mkdir_p dir;
  let reqs = phase "generate" (fun () -> generate env ~count dir) in
  let d = phase "start" (fun () -> start env ~tag) in
  (* Pre-warm: one distinct small request faults the daemon's code in. *)
  phase "warm" (fun () ->
      let warm =
        write_pair dir ~tag:"warm" ~name:"warm" ~equivalent:true (Circuits.Adder.ripple_carry 4)
          (Circuits.Adder.carry_lookahead 4)
      in
      match Procs.request d.sock (check_line warm) with
      | Ok line when Procs.field "status" line = Some "equivalent" -> ()
      | Ok line -> failwith ("pre-warm: " ^ line)
      | Error msg -> failwith ("pre-warm: " ^ msg));
  (reqs, d, dir)

let teardown (_, d, dir) =
  stop d;
  Util.rm_rf d.store;
  Util.rm_rf dir

(* Guarded counters from a daemon's --stats-out file. *)
let daemon_counts path =
  let text = try Util.read_file path with Sys_error _ -> "" in
  let counters =
    match Util.after text "\"counters\":{" with Some rest -> Util.until rest '}' | None -> ""
  in
  String.split_on_char ',' counters
  |> List.filter_map (fun kv ->
         match String.split_on_char ':' kv with
         | [ k; v ] -> (
           let k = String.trim k in
           let k = String.sub k 1 (String.length k - 2) in
           match int_of_string_opt (String.trim v) with
           | Some v when guarded k -> Some (k, v)
           | _ -> None)
         | _ -> None)

(* The worker's call sequence, replayed in-process on a store opened the
   way the daemon opens it. *)
type replay = {
  store : Service.Store.t;
  reg : Obs.Registry.t;
  mutable rounds : int;
  mutable store_nodes : int;
  mutable solve_ms : float;
}

let replayer env ~tag =
  let dir = Filename.concat env.work ("replay-" ^ tag) in
  {
    store = Service.Store.create ~capacity_bytes:(capacity_mb * 1024 * 1024) ~paranoid:true ~dir ();
    reg = Obs.Registry.create ();
    rounds = 0;
    store_nodes = 0;
    solve_ms = 0.;
  }

let replay_one rp r =
  let verdict, s =
    time (fun () ->
        Trace.span "request" @@ fun () ->
        let a, b = Trace.span "aig.parse" (fun () -> (load r.gpath, load r.rpath)) in
        let a, b, key =
          Trace.span "service.key" (fun () ->
              let a = Service.Key.normalize a and b = Service.Key.normalize b in
              (a, b, Service.Key.of_pair a b))
        in
        let found =
          Trace.span "store.find" (fun () -> Service.Store.find rp.store key ~golden:a ~revised:b)
        in
        match found with
        | Some v -> v
        | None ->
          let res, s =
            time (fun () ->
                Trace.span "engine.solve" (fun () ->
                    Obs.with_ambient rp.reg (fun () ->
                        Service.Engine.solve Service.Engine.default_config a b)))
          in
          rp.solve_ms <- rp.solve_ms +. cal_ms s;
          rp.rounds <- rp.rounds + res.Service.Engine.rounds;
          if res.Service.Engine.degraded = None then
            Trace.span "store.write" (fun () ->
                Service.Store.store rp.store key res.Service.Engine.verdict);
          res.Service.Engine.verdict)
  in
  (* Outside the request: the encode the store write ran, and the check
     a later paranoid hit will run, timed on their own. *)
  (match verdict with
  | Cec.Equivalent cert ->
    rp.store_nodes <- rp.store_nodes + Proof.Resolution.size cert.Cec.proof;
    let body =
      Trace.span "proof.encode" (fun () ->
          Obs.with_ambient rp.reg (fun () ->
              Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
                ~root:cert.Cec.root))
    in
    ignore
      (Trace.span "proof.check" (fun () ->
           Obs.with_ambient rp.reg (fun () ->
               Proof.Hint_check.check ~formula:(normalized_formula r) body)))
  | _ -> ());
  s

let run env o =
  let count = max 1 (Float.to_int (Float.round (env.seconds /. nominal_request_s))) in
  let (reqs, d, _), setups =
    timed_setup ~reps:(if env.traced then 1 else 11) ~setup:(setup env ~count) ~teardown
  in
  let correct = ref 0 in
  let samples = ref [] and overhead = ref [] in
  let certs = ref [] and checks = ref [] in
  (* Every certificate passes Hint_check, checked right after its reply
     while no request is in flight, repeated for its timing. *)
  let check i body =
    let r = reqs.(i) in
    let c = cert_checks r.name in
    check_again c ~formula:(normalized_formula r) body (if env.traced then 1 else 3);
    checks := c :: !checks
  in
  Array.iteri
    (fun i r ->
      Calib.tick ();
      o.attempted <- o.attempted + 1;
      let reply, s = time (fun () -> Procs.request d.sock (check_line r)) in
      samples := s :: !samples;
      (match reply with
      | Ok line -> (
        if Procs.field "cached" line = Some "true" then note o (r.name ^ ": unexpected cache hit");
        match Option.bind (Procs.field "ms" line) float_of_string_opt with
        | Some ms -> overhead := lazy (Calib.cal ~t0:s.t0 ~t1:s.t1 (raw_ms s -. ms)) :: !overhead
        | None -> ())
      | Error _ -> ());
      match judge o ~store:d.store r reply with
      | `Equivalent body ->
        certs := (i, body) :: !certs;
        check i body
      | `Inequivalent -> incr correct
      | `Failed -> ())
    reqs;
  Calib.measure ();
  let rss = Procs.hwm_mb d.pid in
  stop d;
  let check_ms = ref [] and check_counts = ref [] in
  List.iter
    (fun c ->
      let result, medians, counts = settle o c in
      check_counts := merge_counts !check_counts counts;
      match result with
      | Ok _ ->
        incr correct;
        check_ms := medians :: !check_ms
      | Error e -> wrong o (c.cert ^ ": certificate rejected: " ^ check_error e))
    !checks;
  let certs = List.rev !certs in
  (* The run's seeded certificate also passes Proof.Checker. *)
  (match certs with
  | [] -> ()
  | l -> (
    let i, body = List.nth l (env.seed mod List.length l) in
    match Oracle.independent_check ~formula:(normalized_formula reqs.(i)) body with
    | Ok () -> ()
    | Error e -> wrong o (reqs.(i).name ^ ": Proof.Checker rejected the certificate: " ^ e)));
  let cert_bytes = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 certs in
  let counts = merge_counts (daemon_counts d.stats) !check_counts in
  let samples = Array.of_list (List.rev !samples) in
  if not env.traced then begin
    count_guard env o (("cert_bytes", cert_bytes) :: counts);
    `E2e
      (end_to_end ~setups ~samples ~correct:!correct ~check_ms:(Array.of_list !check_ms)
         ~cert_bytes ~rss_mb:rss)
  end
  else begin
    (* Each request is replayed untraced and traced back to back, on
       two stores, alternating which goes first, so drift cancels out
       of the overhead. *)
    let plain = replayer env ~tag:"untraced" and rp = replayer env ~tag:"traced" in
    let traced_run r = Trace.traced (fun () -> replay_one rp r) in
    let pairs =
      Array.mapi
        (fun i r ->
          Calib.tick ();
          Trace.request := i;
          if i mod 2 = 0 then
            let u = replay_one plain r in
            (u, traced_run r)
          else
            let t = traced_run r in
            (replay_one plain r, t))
        reqs
    in
    Calib.measure ();
    let untraced = Array.map fst pairs and traced = Array.map snd pairs in
    let reg = rp.reg and rounds = rp.rounds and store_nodes = rp.store_nodes in
    let stats = Service.Store.stats rp.store in
    let counts = Obs.Registry.counters reg in
    count_guard env o
      (("cert_bytes", cert_bytes) :: ("engine.rounds", rounds)
      :: List.filter (fun (k, _) -> guarded k) counts);
    let self = Trace.self_ms () in
    let peak_live =
      List.fold_left
        (fun acc (k, v) -> if k = "check.peak_live" then max acc (Float.to_int v) else acc)
        0
        (Obs.Registry.gauges reg)
    in
    let values =
      layer_values ~requests:count ~counts
        ~timed:
          [
            ("aig.parse_ms", "aig.parse"); ("service.key_ms", "service.key");
            ("store.find_ms", "store.find"); ("store.write_ms", "store.write");
            ("engine.solve_ms", "engine.solve"); ("proof.encode_ms", "proof.encode");
            ("proof.check_ms", "proof.check");
          ]
      @ [
          ("store.evictions", float_of_int stats.Service.Store.evictions);
          ( "store.hit_ratio",
            float_of_int stats.Service.Store.hits
            /. float_of_int (max 1 (stats.Service.Store.hits + stats.Service.Store.misses)) );
          ("engine.rounds", float_of_int rounds);
          ("check.peak_live", float_of_int peak_live);
          ( "proof.keep_ratio",
            float_of_int (counter_sum counts "proof.bin.nodes")
            /. float_of_int (max 1 store_nodes) );
          ("proof.check_to_solve", self "proof.check" /. rp.solve_ms);
          ("service.overhead_ms", Util.mean (Array.of_list (List.map Lazy.force !overhead)));
          ("trace.overhead_pct", overhead_pct ~untraced ~traced);
        ]
    in
    `Layers values
  end
