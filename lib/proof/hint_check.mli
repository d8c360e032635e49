(** Search-free, shard-parallel validation of binary certificates —
    the production checker ({!Checker} over {!Binfmt.decode} is the
    independent oracle).

    CECB certificates spell the pivot sequence out (LRAT/GRIT-style),
    so this checker follows the hints in a strict linear scan — zero
    clause-search steps — with a bounded live-set discipline: clauses
    are resident only between their defining and delete records.

    The hinted header's {e shard table} (the partition boundaries the
    prover recorded at stitch time) additionally lets the shards check
    {e concurrently}: [jobs] OCaml domains pull shards off a shared
    cursor, each validating its byte span independently — cross-shard
    antecedents come from the header's export table, whose entries the
    owning shard verifies against the actual derivations — and the
    results {e join at the stitch points}: delete/use reports are
    replayed globally so a node deleted before a cross-shard use, or
    deleted twice, rejects exactly as in the sequential pass.  Every
    shard is always checked (no early abort), so verdict, error choice
    and aggregate counters are identical for every [jobs] value.

    The ambient {!Obs} registry records [check.checks], [check.chains],
    [check.steps], [check.hints_followed] (always equal to
    [check.steps]: the no-search pin), [check.shards], [check.rejects],
    the high-water gauge [check.peak_live], and one [check.shard] span
    per shard. *)

type stats = {
  nodes : int;  (** node records validated *)
  chains : int;  (** resolution chains recomputed *)
  steps : int;  (** resolution steps performed *)
  hints_followed : int;  (** steps resolved via their stored hint — always [steps] *)
  deletes : int;  (** delete records applied *)
  peak_live : int;
      (** maximum clauses resident in any one shard (local live set
          plus held imports); never exceeds the single-shard peak of
          the same proof *)
  shards : int;  (** shards validated *)
}

type error = {
  offset : int;  (** byte position the failure was detected at *)
  reason : string;
  malformed : bool;
      (** [true]: the byte stream itself is corrupt; [false]:
          well-formed but not a valid refutation *)
  chain : int option;  (** node position the failure is attributed to, when one is *)
}

val pp_error : Format.formatter -> error -> unit

(** [check ?formula ?jobs data] validates [data] as a binary
    certificate of unsatisfiability; with [formula], every leaf must be
    one of its clauses.  [jobs] (default 1) bounds the domains checking
    shards concurrently — it affects wall time only, never the result.
    Bad magic, a version byte other than {!Binfmt.version_hinted} and
    truncation are [malformed].  Never raises on untrusted input. *)
val check : ?formula:Cnf.Formula.t -> ?jobs:int -> string -> (stats, error) result
