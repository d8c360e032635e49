(** Parallel partitioned CEC with a stitched certificate.

    The check is split along the miter's per-output disagreement
    literals: each output pair becomes an independent job over its own
    fanin cone, the jobs run on a bounded pool of OCaml domains, and —
    when every partition is proved — the per-partition refutations are
    recombined into {e one} resolution refutation of the combined
    single-output miter CNF, exactly the certificate the sequential
    engines emit.  {!Proof.Checker.check} (and {!Certify}) accept the
    stitched result unchanged.

    Stitching works like the sweeping engine's lemma mechanism, lifted
    to partition granularity: partition [o]'s refutation of
    [cone CNF ∧ (d_o)] is re-based onto the miter's numbering
    ({!Proof.Resolution.import_mapped}), its output unit is turned into
    an assumption and lifted away ({!Proof.Lift}), leaving a derivation
    of the unit lemma [(¬d_o)] from miter clauses alone; a final
    trivial SAT call then refutes the asserted miter output from those
    lemmas and the output-combining OR layer, and importing it — lemma
    leaves replaced by their derivations — closes the proof.

    Results are deterministic: jobs are solved independently with
    deterministic engines and merged in output order, so verdict and
    stitched proof are identical for every [num_domains]. *)

type config = {
  num_domains : int;  (** worker domains (clamped to at least 1) *)
  engine : Cec.engine;  (** per-partition decision engine *)
  budget : int option;
      (** initial per-partition conflict budget; [None] = one
          unbudgeted attempt per partition *)
  escalation : int;  (** budget multiplier between retry rounds (min 2) *)
  max_rounds : int;  (** budgeted rounds before giving up (min 1) *)
}

(** Sweeping partitions on [Domain.recommended_domain_count] domains,
    no budget, and the one escalation schedule: 4x between at most 4
    rounds ([escalation] and [max_rounds] are irrelevant until a budget
    is set).  The service's [Service.Engine.default_config] derives
    from it. *)
val default_config : config

type status =
  | Proved  (** partition refuted: the output pair is equivalent *)
  | Refuted  (** counterexample found *)
  | Gave_up  (** conflict budget exhausted in every round *)
  | Trivial  (** structurally settled, no SAT work *)
  | Shared of int
      (** same disagreement cone as the given earlier output; solved
          once, cost attributed to that partition *)
  | Crashed
      (** in the last round the partition's job ran, it raised on its
          attempt {e and} its one supervised retry; the run degrades to
          [Undecided] *)

type partition = {
  output : int;  (** output-pair index *)
  cone_ands : int;  (** AND nodes in the partition's fanin cone *)
  attempts : int;  (** attempts that returned, one per round it ran *)
  conflicts : int;
  sat_calls : int;
  status : status;
}

type stats = {
  partitions : partition array;  (** one per output pair, in order *)
  domains : int;  (** worker domains actually used *)
  rounds : int;
      (** scheduling rounds executed: >= 1 with any job unless the
          deadline had passed before the first one *)
  conflicts : int;  (** total, including the final stitch call *)
  sat_calls : int;
}

type report = {
  verdict : Cec.verdict;
  stats : stats;
  degraded : string option;
      (** [Some reason] when the last round could not deliver what it
          should have: a partition job crashed twice (status
          [Crashed]), or every partition was proved but certificate
          stitching failed.  The verdict is then [Undecided] — degraded
          runs never claim an uncertified [Equivalent].  [None] for
          clean runs, including ordinary budget-exhaustion give-ups,
          timeouts, and runs whose earlier degraded rounds a later
          round recovered from. *)
  timed_out : bool;  (** [Undecided] because the deadline passed *)
}

(** Check two circuits with the same interface.  [Equivalent]
    certificates refute the combined miter CNF
    ({!Cnf.Tseitin.miter_formula} of {!Aig.Miter.build}), so
    {!Certify.validate_against} applies as-is.  An [Inequivalent]
    witness is the lowest-indexed differing output's counterexample.
    The verdict is [Undecided] only when no partition was refuted and
    some partition stayed undecided after [max_rounds] budget
    escalations (or crashed, see [degraded]), or the deadline passed.

    Escalation: the miter, its CNF and the partition cones are built
    once; each round attempts only the partitions still undecided, at
    [escalation^k] times the initial conflict budget (and, for the
    [Bdd_first]/[Hybrid] portfolios, the BDD node cap) in round [k].
    Partitions settled earlier keep their results.

    Deadline: [deadline] is an absolute instant on [clock] (default
    {!Obs.Clock.now}), checked before every round, the first included.
    Once it has passed, no further round starts and the result is
    [Undecided] with [timed_out = true]; a deadline that has passed
    before the call solves nothing (only the miter and cones are
    built).  A round already running is
    not interrupted, so without a budget (one unbudgeted round) the
    deadline is only enforced before it starts.  Tests inject a fake
    [clock] to make deadline behaviour deterministic.

    Supervision: a job whose engine raises — including the injected
    [worker.crash] {!Fault} — is retried once; a second failure marks
    its partition [Crashed] for that round instead of raising out of
    [check] or deadlocking the pool.  Crashed partitions, like a failed
    stitch, are tried again in the next round while budgeted rounds
    remain; a crash or stitch failure in the last round degrades the
    run.
    @raise Invalid_argument if interfaces differ. *)
val check :
  ?clock:(unit -> float) -> ?deadline:float -> ?config:config -> Aig.t -> Aig.t -> report
