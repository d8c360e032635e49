(** The service's decision procedure: one {!Cec_core.Parallel.check}
    call per request.  [Parallel] owns the whole budget-escalation
    loop — partitions settled in one round keep their results, the
    conflict budget and BDD cap grow geometrically between rounds, and
    the per-request deadline is checked before every round — so
    [cec --jobs], [serve], [batch] and [route] all run the same loop.

    With [budget = None] the single round runs unbudgeted — it always
    decides, but a deadline can then only be enforced before it
    starts. *)

(** The [Parallel] configuration: [num_domains] is the pool size per
    solve. *)
type config = Cec_core.Parallel.config

(** [Parallel]'s schedule on one domain with a 50k initial conflict
    budget. *)
val default_config : config

type result = {
  verdict : Cec_core.Cec.verdict;
  stats : Cec_core.Parallel.stats;
      (** per-partition attempts and statuses; conflicts and SAT calls
          summed over all rounds *)
  rounds : int;  (** rounds actually executed ([stats.rounds]) *)
  timed_out : bool;  (** [Undecided] because the deadline expired *)
  degraded : string option;
      (** [Some reason] when the final round was degraded (a partition
          job crashed twice, or certificate stitching failed — see
          {!Cec_core.Parallel.report}); the verdict is then an
          uncertified [Undecided].  Earlier degraded rounds that a
          later round recovered from are not reported. *)
}

(** [solve ?clock ?deadline config golden revised] decides the pair.
    [deadline] is an absolute instant on [clock] (default
    [Unix.gettimeofday]); when it has passed before any round starts,
    the result is an immediate [Undecided] with [timed_out = true] and
    no solving done.  Tests inject a fake [clock] to make deadline
    behaviour deterministic.
    @raise Invalid_argument if the interfaces differ. *)
val solve : ?clock:(unit -> float) -> ?deadline:float -> config -> Aig.t -> Aig.t -> result
