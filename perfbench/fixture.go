package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/model"
)

// fixture is the seeded input of every workload: a YTube-shaped stream,
// trained on its leading third. The items newer than the training horizon
// are the queries (in a seeded order); the remaining interactions are the
// write stream, in stream order.
type fixture struct {
	seed     int64
	ds       *dataset.Dataset
	nTrain   int
	queries  []model.Item
	writes   []core.Observation
	genTime  time.Duration
	numUsers int
}

func newFixture(seed int64) (*fixture, error) {
	t0 := time.Now()
	cfg := dataset.YTubeConfig(1)
	cfg.NumConsumers, cfg.NumProducers, cfg.Steps = fixtureConsumers, fixtureProducers, fixtureSteps
	cfg.Seed = seed
	ds := dataset.Generate(cfg)
	fx := &fixture{seed: seed, ds: ds, nTrain: len(ds.Interactions) / 3, genTime: time.Since(t0)}
	if fx.nTrain == 0 {
		return nil, fmt.Errorf("fixture: seed %d generated no interactions", seed)
	}
	horizon := ds.Interactions[fx.nTrain-1].Timestamp
	for _, v := range ds.Items {
		if v.Timestamp > horizon {
			fx.queries = append(fx.queries, v)
		}
	}
	if len(fx.queries) == 0 {
		return nil, fmt.Errorf("fixture: seed %d has no items after the training horizon", seed)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fx.queries), func(i, j int) { fx.queries[i], fx.queries[j] = fx.queries[j], fx.queries[i] })
	for _, ir := range ds.Interactions[fx.nTrain:] {
		if v, ok := ds.Item(ir.ItemID); ok {
			fx.writes = append(fx.writes, core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
	}
	users := map[string]bool{}
	for _, ir := range ds.Interactions {
		users[ir.UserID] = true
	}
	fx.numUsers = len(users)
	return fx, nil
}

// batch returns write batch b of the stream, or false once the stream is
// exhausted: replaying old timestamps would be a different workload, so
// the stream never wraps.
func (fx *fixture) batch(b int) ([]core.Observation, bool) {
	lo, hi := b*batchSize, (b+1)*batchSize
	if hi > len(fx.writes) {
		return nil, false
	}
	return fx.writes[lo:hi], true
}

// probes are the fixed queries of the post-run state checks.
func (fx *fixture) probes() []model.Item { return fx.queries[:min(256, len(fx.queries))] }

// trainEngine trains a default-configured engine (modified by mod, if
// given) on the fixture's training prefix and registers every query item,
// so that queries never mutate the engine.
func (fx *fixture) trainEngine(mod func(*core.Config)) (*core.Engine, time.Duration, error) {
	cfg := core.Config{Categories: fx.ds.Categories, Seed: fx.seed}
	if mod != nil {
		mod(&cfg)
	}
	t0 := time.Now()
	eng := core.New(cfg)
	if err := eng.Train(fx.ds.Items, fx.ds.Interactions[:fx.nTrain], fx.ds.Item); err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	if !eng.Trained() {
		return nil, 0, fmt.Errorf("train: engine reports untrained")
	}
	trainTime := time.Since(t0)
	eng.RegisterItemBatch(fx.queries)
	return eng, trainTime, nil
}

// liveHeapBytes is the live heap after a full collection.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
