(** A content-addressed, persistent certificate store.

    Decided verdicts are kept on disk keyed by {!Key.t} (the structural
    hash of the normalized pair), so repeated requests for the same
    pair are answered without solving — across requests, connections
    and process restarts.

    {2 On-disk layout}

    {v
    DIR/index              entry list: "cecproof-index <version>" then
                           one "<hex> <bytes> <stamp>" line per entry
    DIR/objects/<hex>      one certificate per entry:
                             cecproof-cert <version>
                             equivalent bin3  |  inequivalent <bits>
                             <CECB bytes...>  |
    v}

    Equivalent entries persist the verdict plus the {e trimmed}
    refutation as a {!Proof.Binfmt} binary certificate ([bin3]: pivot
    hints and the prover's partition boundaries as a shard table,
    re-validated search-free and in parallel by {!Proof.Hint_check}).
    Inequivalent entries persist the
    distinguishing input assignment; undecided verdicts are never
    stored (a later, bigger budget may settle them).  Every file is
    written to a temporary name in the same directory and renamed into
    place, so readers never observe a half-written entry and a crash
    cannot corrupt an existing one.

    Entries carrying any other header version or body format (such as
    the [cecproof-cert 1]/[2] objects of earlier releases, or a
    [trace]/[bin] body) are corrupt: {!find} counts them as [corrupt]
    misses and drops them, and {!fsck} quarantines them, so a cached
    store directory (e.g. restored by a CI cache) written by another
    format can never poison a run and costs one re-solve per entry.  A
    missing, unreadable or old-version index is rebuilt by scanning
    [objects/].

    {2 Eviction}

    When a byte capacity is configured, each insertion is followed by
    an eviction pass dropping least-recently-used entries (access
    order, persisted via the index stamps) until the store fits.

    {2 Paranoid mode}

    A loaded certificate is untrusted input: the file may have rotted,
    been truncated, or been written by an adversary.  In paranoid mode
    (the default) a loaded equivalent entry is re-validated against the
    requested pair before being served — with the search-free
    {!Proof.Hint_check} against the pair's miter CNF — and a loaded
    counterexample is replayed through the miter.
    Anything that fails is deleted and reported as a miss, so the
    caller falls back to solving.  Disabling paranoia serves entries
    unchecked (fast path for trusted local stores).

    All operations are serialized by an internal mutex and safe to call
    from multiple domains. *)

type t

type stats = {
  entries : int;
  bytes : int;  (** certificate bytes currently on disk *)
  hits : int;
  misses : int;  (** includes corrupt entries dropped on load *)
  stores : int;
  evictions : int;
  corrupt : int;  (** entries rejected at load time and deleted *)
  write_failures : int;
      (** object writes that failed (I/O error or injected fault); the
          verdict was served uncached *)
}

(** Version stamp of the index and certificate file formats. *)
val format_version : int

(** Open (creating directories as needed) a store rooted at [dir].
    [capacity_bytes] bounds the total certificate bytes (unbounded when
    omitted); [paranoid] defaults to [true]; [startup_fsck] (default [true]) runs {!fsck} before the store
    serves, so a crashed predecessor's debris never reaches readers. *)
val create :
  ?capacity_bytes:int ->
  ?paranoid:bool ->
  ?startup_fsck:bool ->
  dir:string ->
  unit ->
  t

val dir : t -> string
val paranoid : t -> bool

(** Path of the certificate file an entry for [key] lives at (whether
    or not it currently exists). *)
val entry_path : t -> Key.t -> string

(** Index membership (no file access, no validation). *)
val mem : t -> Key.t -> bool

(** [find t key ~golden ~revised] loads, reconstructs and (in paranoid
    mode) re-validates the stored verdict for [key].  [golden] and
    [revised] must be the normalized pair the key was derived from:
    they rebuild the miter CNF an equivalent certificate refutes.
    Returns [None] — after deleting the entry — when the entry is
    absent, unparsable, version-mismatched, or fails validation. *)
val find : t -> Key.t -> golden:Aig.t -> revised:Aig.t -> Cec_core.Cec.verdict option

(** Persist a verdict (atomically); undecided verdicts are ignored.
    Runs the eviction pass when a capacity is configured. *)
val store : t -> Key.t -> Cec_core.Cec.verdict -> unit

(** Persist the index now (also done on every mutation). *)
val flush : t -> unit

val stats : t -> stats

(** Flat JSON fields (mergeable with {!Metrics.fields}). *)
val fields : stats -> (string * Protocol.json) list

val pp_stats : Format.formatter -> stats -> unit

(** {2 Crash recovery}

    A crash (or an injected {!Fault} mid-write) can leave three kinds
    of debris: orphaned [.tmp-*.part] files, truncated or garbage
    objects, and index/object disagreements.  {!fsck} sweeps all
    three: tmp files and structurally invalid objects are moved to
    [DIR/quarantine] (never deleted — evidence survives for forensics;
    deletion is the fallback only if the move itself fails), valid
    objects missing from the index are re-adopted so warm hits keep
    serving, and index entries without an object are dropped.
    Certificate bodies are re-validated with {!Proof.Hint_check}
    (structural mode — the pair-specific leaf check still happens at
    {!find} time in paranoid mode).  Runs by default when a store is
    opened. *)

type fsck_report = {
  scanned : int;  (** object files examined *)
  valid : int;  (** objects that passed structural validation *)
  orphan_tmp : int;  (** leftover [.tmp-*.part] files quarantined *)
  quarantined : int;  (** total files moved to quarantine (incl. tmp) *)
  adopted : int;  (** valid objects re-added to a forgetful index *)
  dropped : int;  (** index entries whose object was missing *)
}

(** Sweep the store directory into a consistent state (see above). *)
val fsck : t -> fsck_report

(** Where quarantined files go: [DIR/quarantine]. *)
val quarantine_dir : t -> string

val pp_fsck : Format.formatter -> fsck_report -> unit
