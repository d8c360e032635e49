(** Compact binary certificates (CECB).

    The dense ASCII trace ({!Export.trace_to_string}) spells every
    node id, literal and {e result clause} out in decimal and is kept
    for debugging; for shipping and storing certificates this module
    provides a binary format that is several times smaller and — unlike
    the trace — can be validated in one forward pass holding only live
    clauses, without search and shard-parallel ({!Hint_check}).

    {2 Format}

    {v
    "CECB" <version byte = 2>
    varint: node count n
    varint: shard count S, then S shard entries:
      varint  end position delta (strictly increasing, last end = n)
      varint  body byte length of the shard's record span
      varint  export count e, then e exports:
        varint  node position delta (ascending, within the shard)
        varint k, k delta-coded literals (the node's result clause)
    then records; node records are numbered 0..n-1 in order:
      tag 0x00  leaf            varint k, k delta-coded literals
      tag 0x01  assumption leaf same layout as a leaf
      tag 0x02  chain           varint k (#antecedents, >= 2), then k
                                antecedent references, each the positive
                                backward delta [pos - ref], then k-1
                                pivot variables (the resolution hints)
      tag 0x03  delete          varint m, m delta-coded node ids whose
                                clauses are dead from here on
    v}

    All integers are unsigned LEB128 varints; literals use the internal
    [2*var + sign] encoding and, like delete-id lists, are sorted and
    gap-coded.  Chains store {e no result clause}: they spell the pivot
    sequence out (LRAT/GRIT-style), so a checker recomputes each result
    by following the hints with {e zero search} ({!resolve_hinted}); a
    corrupted hint either names a non-clashing variable or yields a
    tautology, so it can never produce an accepted-but-wrong clause.

    The header's {e shard table} splits the node stream at the
    partition boundaries the prover recorded (the stitch structure of
    {!Lift}-lifted per-partition refutations), and every node
    referenced across a shard boundary is {e exported} — its position
    and result clause appear in the header — so shards validate
    concurrently and join at the stitch points ({!Hint_check}).

    The encoder walks the cone of [root] (so encoding trims), places
    each leaf immediately before its first consumer, and emits a delete
    record after the last use of every node — computed by a
    backward-trimming pass — so a streaming checker's live set stays
    small.  The node stream is topological and the root is the final
    node record, never deleted. *)

val magic : string

(** The format version byte every certificate carries. *)
val version_hinted : int

(** [true] when [data] starts with the binary certificate magic;
    ASCII traces (which start with a decimal id) never match.  The
    version byte is left to {!reader}, which rejects anything but
    {!version_hinted} as {!Corrupt}. *)
val is_binary : string -> bool

(** Serialize the cone of [root].  [boundaries] are proof ids marking
    the {e last node of each section} (partition sub-derivations
    recorded at stitch or sweep time); each becomes a shard end once
    mapped to stream positions.  Boundaries outside the cone,
    duplicated, or delimiting shards smaller than [min_shard_nodes]
    (default 256) are coalesced away; no boundaries means one shard.
    Node, delete-record, shard and export counts and the encoded size
    are recorded in the ambient {!Obs} registry ([proof.bin.nodes],
    [proof.bin.delete_records], [proof.bin.shards],
    [proof.bin.exports], [proof.bin.bytes]). *)
val encode_hinted :
  ?boundaries:Resolution.id array ->
  ?min_shard_nodes:int ->
  Resolution.t ->
  root:Resolution.id ->
  string

(** Rebuild a {!Resolution.t} and return it with the root id.  Chain
    clauses are recomputed by resolution, following the stored hints.
    Delete records
    are validated but not acted on — the store keeps every node.
    @raise Failure on malformed input or an invalid resolution step. *)
val decode : string -> Resolution.t * Resolution.id

(** {2 Record-level reader}

    Shared by {!decode} and {!Hint_check}: iterate the
    records of a certificate without materializing the DAG. *)

exception Corrupt of { offset : int; reason : string }

type record =
  | Leaf of { clause : Cnf.Clause.t; assumption : bool }
  | Chain of { antecedents : int array; pivots : int array }
      (** antecedent values are node positions, already delta-resolved;
          [pivots] has one hint per resolution step *)
  | Delete of int array  (** sorted node positions, already defined *)

(** One contiguous slice of the node stream, from the header's shard
    table.
    Positions [start_pos..end_pos-1] live in bytes
    [byte_start..byte_stop-1]; [exports] lists, in ascending position
    order, the nodes later shards reference together with their
    declared result clauses. *)
type shard = {
  start_pos : int;
  end_pos : int;
  byte_start : int;
  byte_stop : int;
  exports : (int * Cnf.Clause.t) array;
}

(** [resolve_hinted acc c ~pivot] performs one step on the stored
    pivot, with no search (oriented like {!Resolution.recompute_chain}).
    @raise Invalid_argument when [pivot] does not clash between the
    operands or the resolvent is a tautology. *)
val resolve_hinted : Cnf.Clause.t -> Cnf.Clause.t -> pivot:int -> Cnf.Clause.t

type reader

(** Validate the magic, version, node count and the whole shard
    table.  @raise Corrupt. *)
val reader : string -> reader

(** Node count declared by the header. *)
val declared_nodes : reader -> int

(** Node records consumed so far; the node defined by the latest
    [Leaf]/[Chain] record has position [defined_nodes r - 1]. *)
val defined_nodes : reader -> int

(** Current byte offset (for error reporting). *)
val offset : reader -> int

(** The shard table. *)
val shards : reader -> shard array

(** [shard_reader r i] is a fresh reader positioned at the first byte
    of shard [i], with [defined_nodes] pre-set to its start position —
    the entry point for checking shards independently. *)
val shard_reader : reader -> int -> reader

(** Next record, or [None] at a clean end of data.  Structural
    validation only (tags, bounds, reference ranges, monotonicity);
    resolution steps and shard-boundary discipline are the caller's
    business.  @raise Corrupt. *)
val next : reader -> record option
