(* fleet-warm: [cec_tool route] with its defaults in front of two TCP
   shards.  Set-up pre-warms the shard stores through the router; the
   load is then a seeded, stratified zipf stream over the 25 suite rows
   plus a few mutants, so every request is a paranoid store hit: parse
   on router and shard, key, [Store.find] with a rebuilt miter CNF and
   [Hint_check], the wire and the router hop — never sweep or SAT.  It
   is the workload an engine change should leave alone. *)

open Common
module Cec = Cec_core.Cec

(* Calibrated seconds one hit takes on the reference host; the stream
   length follows --seconds and never the seed. *)
let nominal_hit_s = 0.02

let prewarm_timeout_ms = 120_000

(* Rows whose seeded single-gate mutants join the stream. *)
let mutated = [ "add16-rc-cla"; "alu8-rewr"; "mul4-arr-sa" ]

let rows env dir =
  let rng = Util.rng env.seed 5 in
  let base =
    List.map
      (fun (c : Circuits.Suite.case) -> (c.name, c.golden (), c.revised (), true))
      Circuits.Suite.default
  in
  let mutants =
    List.map
      (fun name ->
        let _, g, r, _ = List.find (fun (n, _, _, _) -> n = name) base in
        let m = Oracle.mutant rng g r in
        ("mutant:" ^ name, g, m, false))
      mutated
  in
  List.mapi
    (fun i (name, golden, revised, equivalent) ->
      write_pair dir ~tag:(string_of_int i) ~name ~equivalent golden revised)
    (base @ mutants)
  |> Array.of_list

(* Stratified zipf: the counts are fixed, and the seed only shuffles the
   order.  Rows whose paranoid hit decodes a very large certificate
   (hundreds of ms to seconds each) are requested exactly once, so they
   cannot set the run's length or sit on the edge of the tail; every
   other row, in suite order with the mutants last, gets a share
   proportional to 1/rank^s over a floor.  The tail percentile (p95 of
   the default stream) then falls inside the repeating population of
   the large-certificate rows (add32-rc-rewr, add32-ks-rc,
   mul6-sa-rebal), and no row is dropped. *)
let once = [ "mul5-booth-sa"; "mul4-booth-arr"; "mul4-arr-sa" ]
let zipf_s = 0.8
let floor_share = 12

let stream env ~total rows =
  let singles, zipf =
    List.partition (fun i -> List.mem rows.(i).name once) (List.init (Array.length rows) Fun.id)
  in
  let w =
    Array.of_list (List.mapi (fun rank _ -> 1. /. Float.pow (float_of_int (rank + 1)) zipf_s) zipf)
  in
  let spare = max 0 (total - List.length once - (floor_share * List.length zipf)) in
  let share rank = Float.to_int (Float.round (float_of_int spare *. w.(rank) /. Util.sum w)) in
  let counts =
    List.mapi (fun rank i -> (i, floor_share + share rank)) zipf
    @ List.map (fun i -> (i, 1)) singles
  in
  let s = Array.concat (List.map (fun (i, c) -> Array.make c i) counts) in
  Util.shuffle (Util.rng env.seed 6) s;
  s

type fleet = {
  shards : (string * int * string * int) list;  (** id, pid, store dir, port *)
  router_pid : int;
  router : Service.Addr.t;
  rows : pair array;
  inputs : string;  (** the directory the rows were written to *)
  warm_ms : (int * sample * float) list;  (** equivalent row, round trip, reply ms *)
}

let reply_ms line = Option.bind (Procs.field "ms" line) float_of_string_opt

let judge o ?(hit = true) r reply =
  (match reply with
  | Ok line when hit && Procs.field "cached" line <> Some "true" ->
    note o (r.name ^ ": expected a store hit")
  | _ -> ());
  judge_reply o r reply <> `Failed

(* Shards serving [stores] and a router in front of them, once all of
   them answer. *)
let launch env stores =
  let shards =
    List.map
      (fun (id, store) ->
        let port = Procs.free_port () in
        let pid =
          Procs.spawn
            ~log:(Filename.concat env.work (Printf.sprintf "shard-%s.log" id))
            env.tool
            [
              "serve"; "--listen"; Printf.sprintf "127.0.0.1:%d" port; "--store"; store; "--quiet";
            ]
        in
        (id, pid, store, port))
      stores
  in
  List.iter (fun (_, _, _, port) -> Procs.wait_ready (Procs.tcp port)) shards;
  let port = Procs.free_port () in
  let router_pid =
    Procs.spawn ~log:(Filename.concat env.work "router.log") env.tool
      ([ "route"; "--listen"; Printf.sprintf "127.0.0.1:%d" port; "--quiet" ]
      @ List.concat_map
          (fun (id, _, _, p) -> [ "--shard"; Printf.sprintf "%s=127.0.0.1:%d" id p ])
          shards)
  in
  let router = Procs.tcp port in
  Procs.wait_ready router;
  (shards, router_pid, router)

(* Pre-warm every row through the router on two connections, one per
   owning shard, so neither shard's single worker queues the other's
   rows.  A pre-warm request solves, which on the daemon defaults can
   take longer than the router's default deadline: it carries its
   own. *)
let prewarm o router ids rows =
  let ring = Fleet.Ring.create ids in
  let owned id =
    List.filter
      (fun i ->
        let key = Service.Key.to_hex (Service.Key.of_pair rows.(i).golden rows.(i).revised) in
        Fleet.Ring.owner ring key = Some id)
      (List.init (Array.length rows) Fun.id)
  in
  let worker id () =
    List.map
      (fun i ->
        let line = check_line rows.(i) ^ " " ^ string_of_int prewarm_timeout_ms in
        let reply, s = time (fun () -> Procs.request router line) in
        (i, reply, s))
      (owned id)
  in
  let others = List.map (fun id -> Domain.spawn (worker id)) (List.tl ids) in
  let replies = worker (List.hd ids) () @ List.concat_map Domain.join others in
  List.filter_map
    (fun (i, reply, s) ->
      if not (judge o ~hit:false rows.(i) reply) then
        failwith (String.concat "; " ("pre-warm failed" :: o.notes));
      match reply with
      | Ok line when rows.(i).equivalent -> Option.map (fun ms -> (i, s, ms)) (reply_ms line)
      | _ -> None)
    replies

let stop f =
  Procs.shutdown f.router f.router_pid;
  List.iter (fun (_, pid, _, port) -> Procs.shutdown (Procs.tcp port) pid) f.shards

(* Start the fleet, pre-warm it, then restart every daemon on the
   warmed stores: the pre-warm's solves leave the daemons' heaps at
   their peak, and the measured window's peak memory must be the hit
   path's own. *)
let start env o ~inputs rows =
  let tag = Printf.sprintf "%.6f" (Unix.gettimeofday ()) in
  let stores =
    List.map
      (fun id -> (id, Filename.concat env.work (Printf.sprintf "store-%s-%s" id tag)))
      [ "s0"; "s1" ]
  in
  let shards, router_pid, router = phase "start" (fun () -> launch env stores) in
  let warm_ms = phase "prewarm" (fun () -> prewarm o router (List.map fst stores) rows) in
  let f = { shards; router_pid; router; rows; inputs; warm_ms } in
  phase "restart" (fun () ->
      stop f;
      let shards, router_pid, router = launch env stores in
      { f with shards; router_pid; router })

let teardown f =
  stop f;
  List.iter (fun (_, _, store, _) -> Util.rm_rf store) f.shards;
  Util.rm_rf f.inputs

(* Each set-up writes its inputs to a fresh directory; removing the
   previous one is teardown, not set-up. *)
let setup env o () =
  let dir = Filename.concat env.work (Printf.sprintf "rows-%.6f" (Unix.gettimeofday ())) in
  Util.mkdir_p dir;
  start env o ~inputs:dir (phase "generate" (fun () -> rows env dir))

(* The shard holding a row's certificate, and its body. *)
let owner f r =
  let key = Service.Key.to_hex (Service.Key.of_pair r.golden r.revised) in
  List.find_map
    (fun (id, _, store, port) ->
      Option.map (fun body -> (id, port, body)) (Serve_cold.stored_body store key))
    f.shards

let router_stat f name =
  match Procs.request f.router "stats" with
  | Ok line -> Option.value ~default:0 (Option.bind (Procs.field name line) int_of_string_opt)
  | Error _ -> 0

(* The hit path replayed in-process: the router's parse and key, then
   the shard's parse, key and paranoid find on its store opened the way
   the daemon opens it. *)
let replay_hit stores r =
  time (fun () ->
      Trace.span "request" @@ fun () ->
      let a, b = Trace.span "aig.parse" (fun () -> (load r.gpath, load r.rpath)) in
      ignore (Trace.span "service.key" (fun () -> Service.Key.to_hex (Service.Key.of_pair a b)));
      let a, b = Trace.span "aig.parse" (fun () -> (load r.gpath, load r.rpath)) in
      let a, b, key =
        Trace.span "service.key" (fun () ->
            let a = Service.Key.normalize a and b = Service.Key.normalize b in
            (a, b, Service.Key.of_pair a b))
      in
      let id, store = List.find (fun (_, st) -> Service.Store.mem st key) stores in
      let found =
        Trace.span "store.find" (fun () -> Service.Store.find store key ~golden:a ~revised:b)
      in
      if found = None then failwith ("replay: miss on " ^ r.name);
      (a, b, key, id))

(* Traced, plus what the find runs inside, each timed on its own: the
   same find on a trusting handle, the miter and its formula. *)
let traced_hit ~paranoid ~trusting r =
  Trace.traced (fun () ->
      let (a, b, key, id), s = replay_hit paranoid r in
      ignore
        (Trace.span "store.find_trusting" (fun () ->
             Service.Store.find (List.assoc id trusting) key ~golden:a ~revised:b));
      let miter = Trace.span "aig.miter" (fun () -> Aig.Miter.build a b) in
      ignore (Trace.span "cnf.formula" (fun () -> Cnf.Tseitin.miter_formula miter));
      s)

let run env o =
  (* The traced run replays every hit four ways; a third of the stream
     keeps it inside the time limit. *)
  let total = max 1 (Float.to_int (Float.round (env.seconds /. nominal_hit_s))) in
  let total = if env.traced then total / 3 else total in
  let f, setups =
    timed_setup ~reps:(if env.traced then 1 else 2) ~setup:(setup env o) ~teardown
  in
  let stream = stream env ~total f.rows in
  let pids = f.router_pid :: List.map (fun (_, pid, _, _) -> pid) f.shards in
  (* The workload's certificates: one per equivalent row, read from its
     owner's store. *)
  let certs =
    List.filter_map
      (fun i ->
        let r = f.rows.(i) in
        if not r.equivalent then None
        else
          match owner f r with
          | Some (_, _, body) -> Some (i, body)
          | None ->
            fail o (r.name ^ ": certificate missing from every shard store");
            None)
      (List.init (Array.length f.rows) Fun.id)
    |> Array.of_list
  in
  (* Each certificate is checked [reps] times, the checks spread evenly
     between the stream's requests. *)
  let reps = if env.traced then 1 else 3 in
  let checks = Array.map (fun (i, _) -> cert_checks f.rows.(i).name) certs in
  let ncerts = Array.length checks in
  let pending = reps * ncerts in
  let stride = max 1 (Array.length stream / max 1 pending) in
  let next_check = ref 0 in
  let check_one () =
    if !next_check < pending then begin
      let c = !next_check mod ncerts in
      let i, body = certs.(c) in
      check_again checks.(c) ~formula:(normalized_formula f.rows.(i)) body 1;
      incr next_check
    end
  in
  let correct = ref 0 in
  let samples = ref [] and overhead = ref [] and hop = ref [] in
  let before =
    List.map (fun k -> (k, router_stat f k)) [ "forwarded"; "coalesced"; "overloaded"; "failovers" ]
  in
  Array.iteri
    (fun k i ->
      let r = f.rows.(i) in
      Calib.tick ();
      o.attempted <- o.attempted + 1;
      let reply, s = time (fun () -> Procs.request f.router (check_line r)) in
      samples := s :: !samples;
      if judge o r reply then incr correct;
      if env.traced then begin
        (match Option.bind (Result.to_option reply) reply_ms with
        | Some ms -> overhead := lazy (Calib.cal ~t0:s.t0 ~t1:s.t1 (raw_ms s -. ms)) :: !overhead
        | None -> ());
        match owner f r with
        | Some (_, port, _) ->
          let _, d = time (fun () -> Procs.request (Procs.tcp port) (check_line r)) in
          hop := lazy (Calib.cal ~t0:s.t0 ~t1:d.t1 (raw_ms s -. raw_ms d)) :: !hop
        | None -> ()
      end;
      if k mod stride = stride - 1 then check_one ())
    stream;
  while !next_check < pending do
    check_one ()
  done;
  Calib.measure ();
  let deltas =
    List.map (fun (k, v) -> ("fleet." ^ k, float_of_int (router_stat f k - v))) before
  in
  let rss = List.fold_left (fun acc pid -> acc +. Procs.hwm_mb pid) 0. pids in
  stop f;
  let check_ms = ref [] and check_stats = ref [] and check_counts = ref [] in
  Array.iter
    (fun c ->
      let result, medians, counts = settle o c in
      check_counts := merge_counts !check_counts counts;
      match result with
      | Ok st ->
        check_ms := medians :: !check_ms;
        check_stats := st :: !check_stats
      | Error e -> wrong o (c.cert ^ ": certificate rejected: " ^ check_error e))
    checks;
  let certs = Array.to_list certs in
  (match certs with
  | [] -> ()
  | l -> (
    let i, body = List.nth l (env.seed mod List.length l) in
    match Oracle.independent_check ~formula:(normalized_formula f.rows.(i)) body with
    | Ok () -> ()
    | Error e -> wrong o (f.rows.(i).name ^ ": Proof.Checker rejected the certificate: " ^ e)));
  let cert_bytes = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 certs in
  let samples = Array.of_list (List.rev !samples) in
  if not env.traced then begin
    count_guard env o (("cert_bytes", cert_bytes) :: !check_counts);
    `E2e
      (end_to_end ~setups ~samples ~correct:!correct ~check_ms:(Array.of_list !check_ms)
         ~cert_bytes ~rss_mb:rss)
  end
  else begin
    let open_stores paranoid =
      List.map (fun (id, _, dir, _) -> (id, Service.Store.create ~paranoid ~dir ())) f.shards
    in
    let paranoid_stores = open_stores true and trusting_stores = open_stores false in
    (* Each hit is replayed untraced and traced back to back,
       alternating which goes first, so drift cancels out of the
       overhead. *)
    let pairs =
      Array.mapi
        (fun k row ->
          Calib.tick ();
          Trace.request := k;
          let r = f.rows.(row) in
          let plain () = snd (replay_hit paranoid_stores r) in
          let traced () = traced_hit ~paranoid:paranoid_stores ~trusting:trusting_stores r in
          if k mod 2 = 0 then
            let u = plain () in
            (u, traced ())
          else
            let t = traced () in
            (plain (), t))
        stream
    in
    let untraced = Array.map fst pairs and traced = Array.map snd pairs in
    (* The certificates' own checks, as the find runs them, weighted by
       how often the stream hits each row. *)
    let check_times =
      List.map2
        (fun (i, body) c ->
          check_again c ~formula:(normalized_formula f.rows.(i)) body 1;
          (i, cal_ms (List.hd c.runs)))
        certs (Array.to_list checks)
    in
    let hits_of i = Array.fold_left (fun a j -> if j = i then a + 1 else a) 0 stream in
    Calib.measure ();
    let stats = List.map (fun (_, st) -> Service.Store.stats st) paranoid_stores in
    let hits = List.fold_left (fun a s -> a + s.Service.Store.hits) 0 stats in
    let misses = List.fold_left (fun a s -> a + s.Service.Store.misses) 0 stats in
    let self = Trace.self_ms () in
    let requests = Array.length stream in
    let solve_ms =
      List.fold_left (fun acc (_, s, ms) -> acc +. Calib.cal ~t0:s.t0 ~t1:s.t1 ms) 0. f.warm_ms
    in
    let counts = !check_counts in
    count_guard env o
      ((("cert_bytes", cert_bytes) :: counts)
      @ List.map (fun (k, v) -> (k, Float.to_int v)) deltas);
    let values =
      layer_values ~requests ~counts
        ~timed:
          [
            ("aig.parse_ms", "aig.parse"); ("service.key_ms", "service.key");
            ("store.find_ms", "store.find"); ("aig.miter_ms", "aig.miter");
            ("cnf.formula_ms", "cnf.formula");
          ]
      @ deltas
      @ [
          ( "store.validate_ms",
            (self "store.find" -. self "store.find_trusting") /. float_of_int requests );
          ("store.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
          ( "proof.check_ms",
            List.fold_left (fun a (i, t) -> a +. (float_of_int (hits_of i) *. t)) 0. check_times
            /. float_of_int requests );
          ( "check.peak_live",
            float_of_int
              (List.fold_left (fun a st -> max a st.Proof.Hint_check.peak_live) 0 !check_stats) );
          ( "proof.check_to_solve",
            List.fold_left (fun a (_, t) -> a +. t) 0. check_times /. solve_ms );
          ("service.overhead_ms", Util.mean (Array.of_list (List.map Lazy.force !overhead)));
          ("fleet.hop_ms", Util.mean (Array.of_list (List.map Lazy.force !hop)));
          ("trace.overhead_pct", overhead_pct ~untraced ~traced);
        ]
    in
    `Layers values
  end
