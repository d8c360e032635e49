(** The certification daemon: a stream-socket server that answers
    {!Protocol} requests from a persistent {!Store}, solving misses on
    the {!Engine} (and thus the {!Cec_core.Parallel} domain pool).  It
    listens on any mix of {!Addr} endpoints — Unix domain sockets for
    a local daemon, TCP for a fleet shard behind the router.

    {2 Life cycle}

    [run] binds every listen address, spawns the worker domains and
    enters the accept loop (a [select] over all listening descriptors,
    EINTR-safe — signals during [select]/[accept] retry instead of
    killing the daemon).  Each connection carries exactly one request;
    [check] requests are parsed, normalized and keyed by the accept
    loop, then pushed onto a {e bounded} queue — a full queue bounces
    the request immediately with a typed [queue_full] error response
    (backpressure) instead of letting latency grow without bound.
    Worker domains pop jobs, consult the store, solve misses, persist
    the verdict and reply.

    A request's deadline (its [TIMEOUT_MS], or the configured default)
    travels with the job: a job whose deadline expired while queued is
    cancelled without solving, and an in-flight solve re-checks the
    deadline before every budget-escalation round.

    On SIGINT/SIGTERM — or a [shutdown] request — the server stops
    accepting, {e drains} the queue (every accepted request is still
    answered), joins the workers, persists the store index, removes its
    Unix socket files, and returns the final metrics.  When [log] is
    set the metrics and store counters are also printed to stderr.

    {2 Failure behaviour}

    A job whose processing raises (including the injected
    [worker.crash] {!Fault}) is re-enqueued once; a second crash
    answers its client with a typed [worker_crashed] error — accepted
    connections are always answered, never left hanging.  A worker
    loop that dies outside the per-job handler is restarted by a
    supervisor (counted in [worker_restarts]).  A degraded solve
    (crashed partitions, failed certificate stitching) is reported as
    status ["uncertified"] with a [reason] field rather than claiming
    a verdict, and its result is not cached.  At startup a stale
    socket file is removed only after a probe connect proves no daemon
    is listening, and the store runs {!Store.fsck} before serving. *)

type config = {
  listen : Addr.t list;  (** endpoints to serve on (at least one) *)
  store_dir : string;
  store_capacity : int option;  (** store byte cap ([None] unbounded) *)
  paranoid : bool;  (** re-validate certificates before serving *)
  workers : int;  (** worker domains consuming the queue (min 1) *)
  queue_capacity : int;  (** bounced beyond this many queued jobs *)
  engine : Engine.config;
  default_timeout_ms : int option;
      (** deadline for requests that do not carry their own *)
  log : bool;  (** per-request and shutdown logging to stderr *)
  clock : unit -> float;
      (** time source for deadlines and latencies (default
          [Unix.gettimeofday]); tests inject a fake clock to make the
          deadline paths deterministic *)
  stats_out : string option;
      (** write {!Obs.Export.stats_json} of the full pipeline registry
          (request metrics + merged worker-domain counters) here at
          shutdown *)
  trace_out : string option;
      (** write {!Obs.Export.trace_json} here at shutdown *)
  on_listen : Addr.t list -> unit;
      (** called once from the server's own context after every listen
          address is bound, with the {e actual} addresses — a TCP
          listen on port 0 reports the kernel-assigned port, which is
          how tests and the bench find an ephemeral shard.  Default
          [ignore]. *)
}

(** One worker, queue of 64, paranoid, unbounded store, no default
    deadline, [Engine.default_config], logging on, listening on the
    given Unix socket only. *)
val default_config : socket_path:string -> store_dir:string -> config

(** Run until shutdown; returns the final request metrics and store
    counters.  @raise Unix.Unix_error when a listen address cannot be
    bound, [Failure] when a Unix socket path exists and is not a
    socket (or a live daemon already listens on it), [Invalid_argument]
    when [listen] is empty. *)
val run : config -> Metrics.snapshot * Store.stats

(** Client side: send one request line to an address, return the
    one-line response.  [Error] covers connection failures and a
    server that closed without replying.  One shot — see {!Client} for
    the retrying/failover version. *)
val request_addr : Addr.t -> string -> (string, string) result

(** [request ~socket_path] is {!request_addr} on a Unix socket path. *)
val request : socket_path:string -> string -> (string, string) result

(** Read a netlist by extension ([.blif] → BLIF, anything else →
    AIGER); shared with {!Batch}, the fleet {!Fleet.Router} and the
    CLI. *)
val load_netlist : string -> (Aig.t, string) result
