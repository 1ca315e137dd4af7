// Package shard scales the ssRec engine horizontally: user blocks are
// partitioned across N core.Engine shards behind a scatter-gather Router
// that is observably equivalent to one big engine — same IDs, same scores,
// same order, proven by the stream-replay conformance suite in this
// package.
//
// # What is sharded, what is replicated
//
// Exact equivalence pins down the split. Candidate routing (the block
// clustering, the per-tree entity/producer universes and the chained hash
// table) and the per-user prediction state (profiles, BiHMM models) must
// agree on every shard, or shards would route and score candidates
// differently than a single engine; they are cheap — O(1) map/window work
// per event — and are maintained identically everywhere by broadcasting
// the observation stream. The expensive state is divided: each shard
// materialises signature-tree leaves only for its owned users, so both the
// branch-and-bound search work (the paper's Fig 10 axis) and the dominant
// maintenance cost (the BiHMM forward passes behind every leaf refresh —
// the ROADMAP's "batched ingestion tail") split N ways.
//
// # The cross-shard protocol
//
// A query fans out to every shard with ONE shared sigtree.Bound: as soon
// as any shard's local top-k fills, its k-th exact score raises the bound
// and prunes every other shard's traversal. The per-shard top-k heaps are
// folded with sigtree.MergeTopK. Correctness is the SearchParallel
// argument lifted over the shard boundary: each shard's k-th best exact
// score lower-bounds the global k-th best, pruning is strict, ties are
// expanded — so results stay bit-identical at every shard count.
//
// # The RPC seam
//
// Shard is a narrow interface (RegisterItems / ObserveBatch / Recommend /
// Stats) with wire-encodable argument types; Local adapts an in-process
// engine, and a network-backed implementation can slot in without touching
// the Router. The Bound protocol tolerates delayed, duplicated or
// reordered Raise deliveries (it is a monotone max), so an RPC shard can
// stream bound updates asynchronously and lose only pruning, never
// correctness.
package shard

import (
	"bytes"
	"context"
	"errors"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
	"ssrec/internal/wal"
)

// ErrShardUnavailable marks a shard the deployment could not reach: a
// network-backed shard whose transport failed, or one the Router has
// excluded after such a failure. In degraded mode the Router keeps
// serving — queries return the merged results of the remaining shards —
// and wraps this sentinel so callers know the answer may be missing the
// excluded shards' owned users. Match with errors.Is.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// Stats snapshots one shard for /v2/stats and operational monitoring.
type Stats struct {
	// Shard is the shard's position in the deployment.
	Shard int
	// Trained reports whether the shard's engine has been bootstrapped.
	Trained bool
	// Users counts profiles tracked (the replicated dictionaries cover
	// every user, so this matches the single-engine figure).
	Users int
	// OwnedUsers counts users whose index leaves this shard materialises.
	OwnedUsers int
	// Leaves counts signature-tree leaf entries held by this shard.
	Leaves int
	// Blocks / Trees / HashKeys describe the (replicated) routing
	// structures.
	Blocks   int
	Trees    int
	HashKeys int
	// Parallelism is the shard's intra-query worker count.
	Parallelism int
	// RefreshErrors counts failed index refreshes on this shard's engine
	// (core.Engine.RefreshErrors) — non-zero means some owned user's
	// leaves may lag their profile.
	RefreshErrors int64
	// WAL describes the shard's durable ingest log; nil when the shard
	// runs without one.
	WAL *wal.Stats
}

// Shard is one engine shard as the Router sees it. Local is the in-process
// implementation; the method set is deliberately small and wire-encodable
// (core.QueryOptions, not functional options) so an RPC-backed shard can
// implement it later without changing the Router.
type Shard interface {
	// Index reports the shard's position in the deployment (0-based).
	Index() int

	// RegisterItems registers a batch of items in batch order under one
	// lock — the deterministic prologue the Router broadcasts before a
	// query batch so every shard's producer layer advances identically.
	// changed reports whether any previously-unseen item was registered
	// (the replicated dictionaries advanced); a warm batch reports false,
	// which lets the Router tell a real missed write from a no-op when a
	// shard skips the broadcast.
	RegisterItems(ctx context.Context, items []model.Item) (changed bool, err error)

	// ObserveBatch ingests one micro-batch of the interaction stream. The
	// Router broadcasts the SAME batch to every shard: each maintains the
	// replicated dictionaries for all users and refreshes index leaves
	// only for the users it owns.
	ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error)

	// Recommend answers one item from this shard's owned users, pruning
	// against — and raising — the deployment-wide bound shared by all
	// shards answering the same item.
	Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error)

	// Stats snapshots the shard.
	Stats() Stats
}

// Pinger is the optional health-probe extension of a Shard. A
// network-backed shard implements it so the Router can verify liveness
// before re-including an excluded shard; in-process shards do not (they
// cannot fail independently of the process).
type Pinger interface {
	// Ping reports nil when the shard is reachable AND trained (ready to
	// serve); any error keeps the shard excluded. The returned bootEpoch
	// is an opaque token that changes whenever the shard (re)boots from a
	// snapshot — the Router compares it across probes to tell a re-seeded
	// shard from one still serving the state it had before it was
	// excluded (and therefore missing every batch replicated since).
	// Implementations without epoch tracking return "".
	Ping(ctx context.Context) (bootEpoch string, err error)
}

// SnapshotReceiver is the optional snapshot-handoff extension of a Shard:
// the receiving end of the boot/recovery protocol. Handoff ships a full
// trained-engine snapshot (core.SaveTo bytes); the shard reboots from it
// via core.LoadShardFrom, materialising only its owned leaf partition.
// Remote shards implement it; in-process shards boot directly.
type SnapshotReceiver interface {
	Handoff(ctx context.Context, snapshot []byte) error
}

// ReshardPreparer is the optional resharding extension of a Shard: the
// control half of the online split/merge protocol (Router.Reshard). A
// new-fleet member implementing it is told, before the snapshot handoff,
// that its next boot is slot `slot` of the deployment partitioned by the
// versioned block table p — a remote shard stages p so the handoff boots
// via core.LoadPartitionFrom instead of the legacy modular rule. Members
// without it (e.g. in-process shards built by the Router itself) are
// assumed pre-configured for their slot.
type ReshardPreparer interface {
	PrepareReshard(ctx context.Context, slot int, p model.Partition) error
}

// SnapshotProvider is the optional snapshot-export extension of a Shard:
// the SOURCE end of the recovery protocol. Snapshot returns the shard's
// full engine state as core.SaveTo bytes. Because a shard snapshot
// carries the complete replicated state (the index partition is rebuilt
// on load, never serialised), ANY healthy shard's snapshot can re-seed
// ANY replica of ANY slot — the supervisor exploits this to reseed a
// blank replica from whichever healthy sibling answers first.
type SnapshotProvider interface {
	Snapshot(ctx context.Context) ([]byte, error)
}

// ReplayBatch is one replicated write a stale replica missed: either an
// item-registration batch (Items set) or an observation micro-batch (Obs
// set), tagged with the replica set's write sequence. Batches replay in
// sequence order, reproducing exactly the broadcast the replica skipped.
type ReplayBatch struct {
	Seq   uint64
	Items []model.Item
	Obs   []core.Observation
}

// Replayer is the optional delta catch-up extension of a Shard: the
// cheap alternative to a full snapshot Handoff when a stale replica's
// missed-write debt is small. Replay applies the missed batches in
// order; implementations that track a boot epoch mint a fresh one on
// success, so the fail-closed probe rules see the same proof-of-reseed
// signal a snapshot handoff produces.
type Replayer interface {
	Replay(ctx context.Context, batches []ReplayBatch) error
}

// Local is the in-process Shard: a thin adapter over one core.Engine whose
// Config carries the matching ShardIndex/ShardCount.
type Local struct {
	idx int
	eng *core.Engine
}

// NewLocal wraps an engine as shard idx of its deployment.
func NewLocal(idx int, eng *core.Engine) *Local {
	return &Local{idx: idx, eng: eng}
}

// Engine exposes the wrapped engine (tests, local administration).
func (l *Local) Engine() *core.Engine { return l.eng }

// Index implements Shard.
func (l *Local) Index() int { return l.idx }

// RegisterItems implements Shard.
func (l *Local) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	return l.eng.RegisterItemBatch(items), nil
}

// ObserveBatch implements Shard.
func (l *Local) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	return l.eng.ObserveBatch(ctx, batch)
}

// Recommend implements Shard.
func (l *Local) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	return l.eng.RecommendBound(ctx, v, o, b)
}

// Replay implements Replayer: missed batches apply directly to the
// wrapped engine in sequence order.
func (l *Local) Replay(ctx context.Context, batches []ReplayBatch) error {
	for _, b := range batches {
		if len(b.Items) > 0 {
			if _, err := l.RegisterItems(ctx, b.Items); err != nil {
				return err
			}
		}
		if len(b.Obs) > 0 {
			if _, err := l.eng.ObserveBatch(ctx, b.Obs); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements SnapshotProvider: the wrapped engine's full state as
// core.SaveTo bytes.
func (l *Local) Snapshot(ctx context.Context) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := l.eng.SaveTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Stats implements Shard.
func (l *Local) Stats() Stats {
	s := Stats{
		Shard:       l.idx,
		Trained:     l.eng.Trained(),
		Users:       l.eng.Users(),
		Parallelism: l.eng.Parallelism(),
	}
	ist := l.eng.IndexStats()
	s.RefreshErrors = ist.RefreshErrors
	s.OwnedUsers, s.Leaves = ist.OwnedUsers, ist.Leaves
	s.Blocks, s.Trees, s.HashKeys = ist.Blocks, ist.Trees, ist.HashKeys
	return s
}
