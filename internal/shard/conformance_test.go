// conformance_test.go is the deterministic stream-replay conformance
// suite: it replays one seeded interaction stream — interleaved with
// recommendation batches — into a single engine and into sharded
// deployments, and asserts the deployments are OBSERVABLY EQUIVALENT:
// identical ranked results (IDs, scores, order), identical per-item
// errors and identical ingest reports, at every cell of the
// shards × parallelism matrix.
//
//	shards      ∈ {1, 2, 8}
//	parallelism ∈ {1, 4}   (intra-shard partitioned search)
//
// Every deployment boots from the SAME trained-engine snapshot, so the
// only variable is the sharding itself. The replayed stream carries at
// least 10k post-training interactions (the acceptance floor). The
// fixture, replay driver and transcript differ live in
// internal/shardtest, shared with the network-transport suite in
// internal/shardrpc (same workload, remote column).
package shard

import (
	"bytes"
	"fmt"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shardtest"
)

// fixture aliases the shared harness for the older helpers in this
// package's tests.
func fixture(tb testing.TB) *shardtest.Fixture { return shardtest.Load(tb) }

// queryWindow keeps the historical local name used by router_test.go.
func queryWindow(items []model.Item, batchIdx int) []model.Item {
	return shardtest.QueryWindow(items, batchIdx)
}

// TestConformanceStreamReplay is the acceptance gate: every cell of the
// shards × parallelism matrix replays the full seeded stream and must be
// observably equivalent to the single reference engine.
func TestConformanceStreamReplay(t *testing.T) {
	fx := fixture(t)
	maxBatches := 0 // full stream
	shardCounts := []int{1, 2, 8}
	parallelisms := []int{1, 4}
	if testing.Short() {
		maxBatches = 12
		shardCounts = []int{1, 2}
		parallelisms = []int{1}
	}

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)
	t.Logf("reference transcript: %d micro-batches, %d interactions, %d queries",
		len(want.Reports), len(fx.Obs), len(want.Results)*shardtest.ReplayQueryLen)

	for _, n := range shardCounts {
		for _, p := range parallelisms {
			t.Run(fmt.Sprintf("shards=%d/parallelism=%d", n, p), func(t *testing.T) {
				r, err := FromSnapshot(fx.Snapshot, n)
				if err != nil {
					t.Fatalf("boot: %v", err)
				}
				r.SetParallelism(p)
				got := fx.Replay(t, r, maxBatches)
				shardtest.Diff(t, want, got, fmt.Sprintf("shards=%d p=%d", n, p))
			})
		}
	}
}

// TestConformanceReplicatedStreamReplay extends the acceptance gate to
// replica sets: a 2-slot deployment at every replication factor R replays
// the full seeded stream and must be observably equivalent to the single
// reference engine — replication must be invisible in results (writes
// broadcast the same micro-batches to every replica; any replica answers
// a read bit-identically).
func TestConformanceReplicatedStreamReplay(t *testing.T) {
	fx := fixture(t)
	maxBatches := 0 // full stream
	replicas := []int{1, 2, 3}
	if testing.Short() {
		maxBatches = 12
		replicas = []int{2}
	}

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)

	for _, rep := range replicas {
		t.Run(fmt.Sprintf("shards=2/replicas=%d", rep), func(t *testing.T) {
			r, err := FromSnapshotReplicated(fx.Snapshot, 2, rep)
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			got := fx.Replay(t, r, maxBatches)
			shardtest.Diff(t, want, got, fmt.Sprintf("shards=2 replicas=%d", rep))
		})
	}
}

// TestConformanceDirtyMaskStreamReplay is the write-path acceptance gate
// for the dirty-category-mask refresh: at every micro-batch size in
// {1, 64, 256} (batch=1 flushes per observation; larger batches merge
// masks across many observations before one flush), deployments running
// the masked refresh — with and without the incremental BiHMM fold, at
// shards 1 and 2 — must be observably equivalent to a reference engine
// forced onto the rebuild-everything path (SetFullRefresh).
func TestConformanceDirtyMaskStreamReplay(t *testing.T) {
	fx := fixture(t)
	// Query windows fire after every micro-batch, so small batch sizes are
	// query-dominated: cap the batch count to keep the sweep proportionate
	// while still covering hundreds of flushes.
	caps := map[int]int{1: 192, 64: 48, 256: 0} // 0 = full stream
	if testing.Short() {
		caps = map[int]int{1: 32, 64: 12, 256: 12}
	}

	for _, batchSize := range []int{1, 64, 256} {
		maxBatches := caps[batchSize]
		t.Run(fmt.Sprintf("batch=%d", batchSize), func(t *testing.T) {
			reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
			if err != nil {
				t.Fatalf("boot reference: %v", err)
			}
			reference.SetFullRefresh(true)
			want := fx.ReplayBatchSize(t, reference, batchSize, maxBatches)

			arms := []struct {
				name   string
				shards int
				fold   bool
			}{
				{"shards=1/masked", 1, false},
				{"shards=1/masked+fold", 1, true},
				{"shards=2/masked+fold", 2, true},
			}
			for _, arm := range arms {
				t.Run(arm.name, func(t *testing.T) {
					r, err := FromSnapshot(fx.Snapshot, arm.shards)
					if err != nil {
						t.Fatalf("boot: %v", err)
					}
					// Masks are the default path; the fold is opt-in.
					r.SetIncrementalFold(arm.fold)
					got := fx.ReplayBatchSize(t, r, batchSize, maxBatches)
					shardtest.Diff(t, want, got, fmt.Sprintf("batch=%d %s", batchSize, arm.name))
				})
			}
		})
	}
}

// TestConformanceShardStats sanity-checks the partition itself: every user
// is owned by exactly one shard, leaf counts sum to the single-engine
// figure, and the replicated routing structures agree across shards.
func TestConformanceShardStats(t *testing.T) {
	fx := fixture(t)
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	if !reference.Trained() {
		t.Fatal("reference engine reports no index")
	}
	refStats := reference.IndexStats()
	r, err := FromSnapshot(fx.Snapshot, 4)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	stats := r.ShardStats()
	owned, leaves := 0, 0
	for i, st := range stats {
		if st.Shard != i {
			t.Errorf("shard %d reports index %d", i, st.Shard)
		}
		if !st.Trained {
			t.Errorf("shard %d untrained", i)
		}
		if st.Users != refStats.Users {
			t.Errorf("shard %d tracks %d users, reference %d (dictionaries must be replicated)", i, st.Users, refStats.Users)
		}
		if st.Blocks != refStats.Blocks || st.Trees != refStats.Trees || st.HashKeys != refStats.HashKeys {
			t.Errorf("shard %d routing structures diverge: %+v vs reference %+v", i, st, refStats)
		}
		owned += st.OwnedUsers
		leaves += st.Leaves
	}
	if owned != refStats.Users {
		t.Errorf("owned users sum to %d, want %d (exact partition)", owned, refStats.Users)
	}
	if leaves != refStats.Leaves {
		t.Errorf("leaves sum to %d, want single-engine %d", leaves, refStats.Leaves)
	}
	for _, id := range []string{"uc0001", "uc0042", "anyone"} {
		own := r.Owner(id)
		if own < 0 || own >= r.Shards() {
			t.Errorf("Owner(%q) = %d out of range", id, own)
		}
		if own != model.ShardOf(id, r.Shards()) {
			t.Errorf("router and model disagree on owner of %q", id)
		}
	}
}
