// reshard_test.go is the online-resharding acceptance suite — the
// headline gate of the live split/merge machinery. The conformance test
// replays the shared seeded stream while a 2→4 split and a 4→2 merge run
// LIVE at seeded mid-stream batch boundaries, and requires the transcript
// to stay bit-identical to the static single-engine reference: resharding
// must be invisible in results, reports and errors. The hammer test runs
// concurrent writes and reads through both reshards under -race and then
// proves the final state exact against a sequential reference; the cancel
// test aborts a migration mid-seeding and checks the old fleet is
// undisturbed and no goroutines leak.
package shard

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shardtest"
	"ssrec/internal/sigtree"
)

// TestReshardConformanceSplitMerge is the acceptance gate: the full
// seeded stream replays through a deployment that starts 2-way, splits
// to 4 shards at a seeded mid-stream batch boundary and merges back to 2
// at a later one — both migrations overlapping live traffic — and the
// transcript must be bit-identical to the single reference engine. The
// reshard is kicked off by a replay hook and joined a few batches later,
// so observation batches and query windows provably interleave with the
// snapshot/catch-up/flip sequence.
func TestReshardConformanceSplitMerge(t *testing.T) {
	fx := fixture(t)
	maxBatches := 0
	totalBatches := (len(fx.Obs) + shardtest.ReplayBatch - 1) / shardtest.ReplayBatch
	joinAfter := 6
	if testing.Short() {
		maxBatches = 16
		totalBatches = 16
		joinAfter = 3
	}

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)

	r, err := FromSnapshot(fx.Snapshot, 2)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}

	// Seeded, not hand-picked: the boundaries move with the seed but are
	// reproducible run to run.
	rng := rand.New(rand.NewSource(23))
	splitAt := 1 + rng.Intn(totalBatches/3)
	splitJoin := splitAt + joinAfter
	mergeAt := splitJoin + 1 + rng.Intn(totalBatches/3)
	mergeJoin := mergeAt + joinAfter
	if mergeJoin >= totalBatches {
		t.Fatalf("schedule overflow: mergeJoin %d of %d batches", mergeJoin, totalBatches)
	}
	t.Logf("splitting 2→4 before batch %d (join %d), merging 4→2 before batch %d (join %d), of %d batches",
		splitAt, splitJoin, mergeAt, mergeJoin, totalBatches)

	ctx := context.Background()
	var splitErr, mergeErr error
	splitDone := make(chan struct{})
	mergeDone := make(chan struct{})
	hooks := map[int]func(int){
		splitAt: func(int) {
			go func() { defer close(splitDone); splitErr = r.Reshard(ctx, 4) }()
		},
		splitJoin: func(int) {
			<-splitDone
			if splitErr != nil {
				t.Fatalf("split: %v", splitErr)
			}
			if got := r.Shards(); got != 4 {
				t.Fatalf("post-split width %d, want 4", got)
			}
			if p := r.Partition(); p.Epoch != 1 {
				t.Fatalf("post-split partition epoch %d, want 1", p.Epoch)
			}
			st := r.ReshardStatus()
			t.Logf("split complete: %d batches mirrored during migration", st.MirroredBatches)
		},
		mergeAt: func(int) {
			go func() { defer close(mergeDone); mergeErr = r.Reshard(ctx, 2) }()
		},
		mergeJoin: func(int) {
			<-mergeDone
			if mergeErr != nil {
				t.Fatalf("merge: %v", mergeErr)
			}
			if got := r.Shards(); got != 2 {
				t.Fatalf("post-merge width %d, want 2", got)
			}
		},
	}

	got := fx.ReplayWithHooks(t, r, shardtest.ReplayBatch, maxBatches, hooks)
	shardtest.Diff(t, want, got, "live split+merge")

	// Post-reshard invariants: two epochs advanced, the ownership rule
	// agrees exactly with the legacy modular rule at the final width, and
	// the owned-user partition is still exact.
	if p := r.Partition(); p.Epoch != 2 || p.Shards != 2 {
		t.Fatalf("final partition %+v, want epoch 2 at 2 shards", p)
	}
	st := r.ReshardStatus()
	if st.Active || st.Phase != ReshardPhaseDone || st.Completed != 2 {
		t.Fatalf("final reshard status %+v, want idle done with 2 completed", st)
	}
	for _, id := range []string{"uc0001", "uc0042", "anyone"} {
		if r.Owner(id) != model.ShardOf(id, 2) {
			t.Errorf("post-reshard owner of %q diverges from ShardOf", id)
		}
	}
	stats := r.ShardStats()
	owned := 0
	for _, s := range stats {
		owned += s.OwnedUsers
	}
	if want := reference.IndexStats().Users; reference.Trained() && owned != want {
		t.Errorf("post-reshard owned users sum to %d, want %d (exact partition)", owned, want)
	}
}

// TestReshardConcurrentHammer drives concurrent ObserveBatch and
// RecommendBatch traffic through a live 2→4 split AND a 4→2 merge (run
// under -race in CI). No call may error, and after the dust settles the
// router's state must be EXACTLY the state of a sequential reference
// engine that applied the same write prefix — two full migrations under
// concurrent load lose nothing and reorder nothing for a sequential
// writer.
func TestReshardConcurrentHammer(t *testing.T) {
	fx := fixture(t)
	capBatches := 30
	if testing.Short() {
		capBatches = 8
	}

	r, err := FromSnapshot(fx.Snapshot, 2)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx := context.Background()

	// Pre-register the reader query set on the router so the readers'
	// registrations are warm no-ops from here on — order-independent, so
	// the final state stays comparable to a sequential reference.
	qs := fx.Queries[:shardtest.ReplayQueryLen]
	if _, err := r.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK)); err != nil {
		t.Fatalf("pre-register queries: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	record := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	}

	applied := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < capBatches; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := i * shardtest.ReplayBatch
			if lo >= len(fx.Obs) {
				return
			}
			hi := min(lo+shardtest.ReplayBatch, len(fx.Obs))
			if _, err := r.ObserveBatch(ctx, fx.Obs[lo:hi]); err != nil {
				record(err)
				return
			}
			applied = i + 1
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK)); err != nil {
					record(err)
					return
				}
			}
		}()
	}

	if err := r.Reshard(ctx, 4); err != nil {
		t.Errorf("split under load: %v", err)
	}
	if err := r.Reshard(ctx, 2); err != nil {
		t.Errorf("merge under load: %v", err)
	}
	close(stop)
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		t.Fatalf("traffic errored during migration: %v", *ep)
	}
	if got := r.Shards(); got != 2 {
		t.Fatalf("final width %d, want 2", got)
	}

	// Exactness: a sequential reference applying the same prefix must
	// answer the same ranked results as the twice-resharded deployment.
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	if _, err := reference.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK)); err != nil {
		t.Fatalf("pre-register reference queries: %v", err)
	}
	for i := 0; i < applied; i++ {
		lo := i * shardtest.ReplayBatch
		hi := min(lo+shardtest.ReplayBatch, len(fx.Obs))
		if _, err := reference.ObserveBatch(ctx, fx.Obs[lo:hi]); err != nil {
			t.Fatalf("reference batch %d: %v", i, err)
		}
	}
	wantRes, err := reference.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("reference recommend: %v", err)
	}
	gotRes, err := r.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("router recommend: %v", err)
	}
	for i := range wantRes {
		wantRes[i].Stats = sigtree.SearchStats{}
		gotRes[i].Stats = sigtree.SearchStats{}
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("post-hammer state diverged from sequential reference (%d batches applied):\n got %+v\nwant %+v",
			applied, gotRes, wantRes)
	}
}

// stallShard is a reshard member whose snapshot handoff blocks until its
// context is cancelled — it parks a migration in the seeding phase so
// tests can observe and abort it deterministically.
type stallShard struct {
	idx       int
	started   chan struct{}
	startOnce sync.Once
}

func (s *stallShard) Index() int { return s.idx }
func (s *stallShard) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	return false, nil
}
func (s *stallShard) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	return core.BatchReport{}, nil
}
func (s *stallShard) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	return core.Result{ItemID: v.ID}, nil
}
func (s *stallShard) Stats() Stats { return Stats{Shard: s.idx} }
func (s *stallShard) Handoff(ctx context.Context, snapshot []byte) error {
	s.startOnce.Do(func() { close(s.started) })
	<-ctx.Done()
	return ctx.Err()
}

// noHandoffShard is a Shard WITHOUT the SnapshotReceiver extension — it
// must be rejected as a reshard member up front.
type noHandoffShard struct{ idx int }

func (s *noHandoffShard) Index() int { return s.idx }
func (s *noHandoffShard) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	return false, nil
}
func (s *noHandoffShard) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	return core.BatchReport{}, nil
}
func (s *noHandoffShard) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	return core.Result{ItemID: v.ID}, nil
}
func (s *noHandoffShard) Stats() Stats { return Stats{Shard: s.idx} }

// TestReshardCancelNoLeakNoDisruption cancels a migration parked in
// seeding and requires: the old fleet was never disturbed (same width,
// writes that flowed during the doomed migration are in its state), a
// concurrent reshard was refused while the first was active, a follow-up
// reshard succeeds and carries those writes, and the aborted migration
// leaked no goroutines.
func TestReshardCancelNoLeakNoDisruption(t *testing.T) {
	fx := fixture(t)
	r, err := FromSnapshot(fx.Snapshot, 1)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	members := []Shard{
		&stallShard{idx: 0, started: make(chan struct{})},
		&stallShard{idx: 1, started: make(chan struct{})},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Reshard(ctx, 2, members...) }()
	<-members[0].(*stallShard).started

	// The migration is parked mid-seeding: status must say so, a second
	// reshard must be refused, and writes must keep flowing on the old
	// fleet (they land in the mirror ring for the doomed new fleet, which
	// simply gets discarded).
	if st := r.ReshardStatus(); !st.Active || st.Phase != ReshardPhaseSeeding {
		t.Fatalf("mid-seeding status %+v, want active seeding", st)
	}
	if err := r.Reshard(context.Background(), 3); !errors.Is(err, ErrReshardInProgress) {
		t.Fatalf("concurrent reshard: err = %v, want ErrReshardInProgress", err)
	}
	batch := fx.Obs[:shardtest.ReplayBatch]
	if _, err := r.ObserveBatch(context.Background(), batch); err != nil {
		t.Fatalf("write during migration: %v", err)
	}

	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reshard returned %v, want context.Canceled", err)
	}
	if st := r.ReshardStatus(); st.Active || st.Phase != ReshardPhaseCancelled {
		t.Fatalf("post-cancel status %+v, want idle cancelled", st)
	}
	if got := r.Shards(); got != 1 {
		t.Fatalf("old fleet width %d after cancel, want 1 (undisturbed)", got)
	}

	// Recovery: a fresh in-process reshard must succeed and carry the
	// write admitted during the aborted migration — proven against a
	// sequential reference.
	if err := r.Reshard(context.Background(), 2); err != nil {
		t.Fatalf("reshard after cancel: %v", err)
	}
	if got := r.Shards(); got != 2 {
		t.Fatalf("width %d after recovery reshard, want 2", got)
	}
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	if _, err := reference.ObserveBatch(context.Background(), batch); err != nil {
		t.Fatalf("reference batch: %v", err)
	}
	qs := fx.Queries[:shardtest.ReplayQueryLen]
	wantRes, err := reference.RecommendBatch(context.Background(), qs, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("reference recommend: %v", err)
	}
	gotRes, err := r.RecommendBatch(context.Background(), qs, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("router recommend: %v", err)
	}
	for i := range wantRes {
		wantRes[i].Stats = sigtree.SearchStats{}
		gotRes[i].Stats = sigtree.SearchStats{}
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("state after cancel+recovery diverged from reference:\n got %+v\nwant %+v", gotRes, wantRes)
	}

	// Goroutine hygiene: the aborted migration must wind down completely.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked by cancelled reshard: %d before, %d after", before, n)
	}
}

// TestReshardValidation covers the refuse-up-front paths: a bad width,
// a member-count mismatch, a member in the wrong slot and a member that
// cannot receive a snapshot must all fail before any migration state is
// created.
func TestReshardValidation(t *testing.T) {
	fx := fixture(t)
	r, err := FromSnapshot(fx.Snapshot, 1)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
	}{
		{"zero width", func() error { return r.Reshard(ctx, 0) }},
		{"member count mismatch", func() error {
			return r.Reshard(ctx, 2, &stallShard{idx: 0, started: make(chan struct{})})
		}},
		{"member slot mismatch", func() error {
			return r.Reshard(ctx, 2,
				&stallShard{idx: 1, started: make(chan struct{})},
				&stallShard{idx: 0, started: make(chan struct{})})
		}},
		{"member without handoff", func() error {
			return r.Reshard(ctx, 2,
				&stallShard{idx: 0, started: make(chan struct{})},
				&noHandoffShard{idx: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil {
				t.Fatal("want error, got nil")
			}
			if st := r.ReshardStatus(); st.Active {
				t.Fatalf("refused reshard left active state: %+v", st)
			}
			if got := r.Shards(); got != 1 {
				t.Fatalf("refused reshard changed width to %d", got)
			}
		})
	}
}
