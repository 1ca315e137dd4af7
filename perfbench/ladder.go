package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/ranking"
	"ssrec/internal/shard"
	"ssrec/internal/shardrpc"
	"ssrec/internal/wal"
)

// The per-layer cost ladder of a traced run. Every rung times calls into
// one module's public functions from outside, from sigtree search up to
// the ssrec-server HTTP surface, on a freshly set-up fixture. Read rungs
// run one client over the same query order and report the per-item
// median; write rungs replay the same 64-interaction batches from the
// start of the write stream and report the per-batch median. Every rung's
// answers are checked against the single engine's.
const (
	ladderQueries = 400
	ladderBatches = 24
	ladderWarm    = 20 // untimed calls before each read rung
)

func (r *runner) ladder(s *setupResult) error {
	r.spans = r.traced
	defer func() { r.spans = nil }()
	fx, eng := s.fx, s.eng
	ctx := context.Background()
	qs := fx.queries[:min(ladderQueries, len(fx.queries))]
	r.metrics["dataset.generate_s"] = fx.genTime.Seconds()
	r.metrics["core.train_s"] = s.train.Seconds()

	// Engine rungs: encode, search, the search counters, the whole call.
	queries := make([]ranking.ItemQuery, len(qs))
	if err := r.rung("ranking.query_encode_us", len(qs), func(i int) error {
		queries[i] = eng.BuildQuery(qs[i])
		return nil
	}); err != nil {
		return err
	}
	want := make([]uint64, len(qs))
	for i, v := range qs {
		res, err := eng.RecommendCtx(ctx, v, core.WithK(queryK))
		if err != nil {
			return err
		}
		want[i] = digest(res.Recommendations)
	}
	if err := r.rung("cppse.search_us", len(qs), func(i int) error {
		recs, _, err := eng.Index().RecommendCtx(ctx, queries[i], queryK, 0)
		return r.agree("cppse.search_us", recs, want[i], err)
	}); err != nil {
		return err
	}
	var visited, scored, skipped int
	for _, v := range qs {
		_, st := eng.RecommendStats(v, queryK)
		visited += st.NodesVisited
		scored += st.EntriesScored
		skipped += st.EntriesSkipped
	}
	n := float64(len(qs))
	r.metrics["sigtree.nodes_visited"] = float64(visited) / n
	r.metrics["sigtree.entries_scored"] = float64(scored) / n
	r.metrics["sigtree.entries_skipped"] = float64(skipped) / n
	r.metrics["sigtree.pruning_ratio"] = float64(skipped) / float64(max(1, scored+skipped))
	r.report("sigtree counts are means over %d queries of %d users", len(qs), eng.Users())
	if err := r.rung("core.recommend_us", len(qs), func(i int) error {
		res, err := eng.RecommendCtx(ctx, qs[i], core.WithK(queryK))
		return r.agree("core.recommend_us", res.Recommendations, want[i], err)
	}); err != nil {
		return err
	}

	var snap bytes.Buffer
	if err := eng.SaveTo(&snap); err != nil {
		return err
	}
	r.metrics["core.snapshot_bytes"] = float64(snap.Len())

	// Write path on the engine itself, beside an engine in the same state
	// that defers index refresh to an explicit flush. The rungs below boot
	// from the snapshot, taken before these writes.
	if err := r.writeRungs(fx, eng); err != nil {
		return err
	}
	// In-process 2-shard router booted from the snapshot.
	if err := r.routerRung(snap.Bytes(), qs, want); err != nil {
		return err
	}
	// The same router shape over two loopback shard RPC servers.
	if err := r.remoteRung(snap.Bytes(), qs, want, fx); err != nil {
		return err
	}
	// ssrec-server serving the snapshot as a single engine.
	if err := r.serverRung(snap.Bytes(), qs, want, fx); err != nil {
		return err
	}

	wrong := 0
	for _, n := range r.ladderWrong {
		wrong += n
	}
	r.check("ladder_answers_equal_engine", wrong == 0,
		"%d queries on each read rung compared with Engine.RecommendCtx, %d differ", len(qs), wrong)

	remote, scatter, rec := r.metrics["shardrpc.remote_us"], r.metrics["shard.scatter_us"], r.metrics["core.recommend_us"]
	r.metrics["ratio.remote_wire_share"] = (remote - scatter) / remote
	r.metrics["ratio.router2_over_engine"] = scatter / rec
	r.report("ratio.remote_wire_share = (shardrpc.remote_us %.1f - shard.scatter_us %.1f) / shardrpc.remote_us %.1f = %.3f",
		remote, scatter, remote, r.metrics["ratio.remote_wire_share"])
	r.report("ratio.router2_over_engine = shard.scatter_us %.1f / core.recommend_us %.1f = %.3f",
		scatter, rec, r.metrics["ratio.router2_over_engine"])
	return nil
}

// rung times n calls, after a few untimed ones, and records the median
// in microseconds under name.
func (r *runner) rung(name string, n int, call func(i int) error) error {
	for i := range min(ladderWarm, n) {
		if err := call(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	lat := make(series, 0, n)
	for i := range n {
		t0 := time.Now()
		err := call(i)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lat = append(lat, t1.Sub(t0))
		r.spans.add(name, i, t0, t1)
	}
	r.setMedian(name, lat)
	return nil
}

// setMedian records a series' median in the metric's unit.
func (r *runner) setMedian(name string, lat series) {
	med := lat.quantile(0.5)
	switch unitOf(name) {
	case "ms":
		r.metrics[name] = ms(med)
	case "s":
		r.metrics[name] = med.Seconds()
	default:
		r.metrics[name] = us(med)
	}
	r.samples[name] = len(lat)
}

// agree records whether a rung's answer is the single engine's.
func (r *runner) agree(rung string, recs []model.Recommendation, want uint64, err error) error {
	if err != nil {
		return err
	}
	if digest(recs) != want {
		r.ladderWrong[rung]++
	}
	return nil
}

func (r *runner) routerRung(snap []byte, qs []model.Item, want []uint64) error {
	router, err := shard.FromSnapshot(snap, 2)
	if err != nil {
		return err
	}
	ctx := context.Background()
	return r.rung("shard.scatter_us", len(qs), func(i int) error {
		res, err := router.RecommendCtx(ctx, qs[i], core.WithK(queryK))
		return r.agree("shard.scatter_us", res.Recommendations, want[i], err)
	})
}

func (r *runner) remoteRung(snap []byte, qs []model.Item, want []uint64, fx *fixture) error {
	var clients []shard.Shard
	for i := range 2 {
		srv, err := shardrpc.NewServer(i, 2)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := srv.NewHTTPServer(ln.Addr().String())
		served := make(chan struct{})
		go func() {
			defer close(served)
			hs.Serve(ln) //nolint:errcheck // ends with Close below
		}()
		c := shardrpc.NewClient(ln.Addr().String(), i, 2)
		clients = append(clients, c)
		defer func() {
			c.Close()
			hs.Close() //nolint:errcheck // shutting down
			<-served
		}()
	}
	router, err := shard.NewRouter(clients...)
	if err != nil {
		return err
	}
	ctx := context.Background()
	t0 := time.Now()
	if err := router.HandoffSnapshot(ctx, snap); err != nil {
		return err
	}
	r.metrics["shardrpc.handoff_s"] = time.Since(t0).Seconds()
	if err := r.rung("shardrpc.remote_us", len(qs), func(i int) error {
		res, err := router.RecommendCtx(ctx, qs[i], core.WithK(queryK))
		return r.agree("shardrpc.remote_us", res.Recommendations, want[i], err)
	}); err != nil {
		return err
	}
	return r.batchRung("shardrpc.observe_broadcast_ms", fx, func(batch []core.Observation) error {
		rep, err := router.ObserveBatch(ctx, batch)
		if err == nil && rep.Applied != len(batch) {
			err = fmt.Errorf("%d of %d applied", rep.Applied, len(batch))
		}
		return err
	})
}

func (r *runner) serverRung(snap []byte, qs []model.Item, want []uint64, fx *fixture) error {
	model := filepath.Join(r.work, "ladder-model.bin")
	if err := os.WriteFile(model, snap, 0o644); err != nil {
		return err
	}
	d, err := r.procs.start("ladder-server", filepath.Join(r.bin, "ssrec-server"), "-model", model)
	if err != nil {
		return err
	}
	defer r.procs.stop(d)
	if err := d.waitReady("/v2/stats", bootTimeout); err != nil {
		return err
	}
	if err := os.Remove(model); err != nil {
		return err
	}
	c := newV2Client(d.addr)
	defer c.close()
	ctx := context.Background()
	if err := r.rung("server.recommend_http_us", len(qs), func(i int) error {
		got, err := c.recommend(ctx, qs[i], queryK)
		if err != nil {
			return err
		}
		if got != want[i] {
			r.ladderWrong["server.recommend_http_us"]++
		}
		return nil
	}); err != nil {
		return err
	}
	return r.batchRung("server.observe_http_ms", fx, func(batch []core.Observation) error {
		return c.observe(ctx, batch)
	})
}

// batchRung times one call per write batch from the start of the stream.
func (r *runner) batchRung(name string, fx *fixture, call func([]core.Observation) error) error {
	lat := make(series, 0, ladderBatches)
	for b := range ladderBatches {
		batch, ok := fx.batch(b)
		if !ok {
			return fmt.Errorf("%s: write stream too short", name)
		}
		t0 := time.Now()
		err := call(batch)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lat = append(lat, t1.Sub(t0))
		r.spans.add(name, b, t0, t1)
	}
	r.setMedian(name, lat)
	return nil
}

// writeRungs times the engine's write path per batch: Observe without
// refresh and the flush after it on one engine, ObserveBatch on another in
// the same state, and the WAL append and fsync of the batch's record.
func (r *runner) writeRungs(fx *fixture, eng *core.Engine) error {
	base := liveHeapBytes()
	deferred, _, err := fx.trainEngine(func(c *core.Config) { c.UpdateBatch = 1 << 30 })
	if err != nil {
		return err
	}
	perUser := float64(liveHeapBytes()-base) / float64(deferred.Users())
	r.metrics["core.heap_bytes_per_user"] = perUser
	r.report("core.heap_bytes_per_user: live heap of one trained engine over its %d users", deferred.Users())

	dir, err := os.MkdirTemp(r.work, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.PolicyOff})
	if err != nil {
		return err
	}
	defer l.Close()

	ctx := context.Background()
	var observe, flush, batchLat, appendLat, syncLat series
	var flushed, walBytes int
	for b := range ladderBatches {
		batch, ok := fx.batch(b)
		if !ok {
			return fmt.Errorf("write stream too short")
		}
		t0 := time.Now()
		for _, o := range batch {
			deferred.Observe(model.Interaction{UserID: o.UserID, ItemID: o.Item.ID, Timestamp: o.Timestamp}, o.Item)
		}
		t1 := time.Now()
		flushed += deferred.FlushUpdates()
		t2 := time.Now()
		rep, err := eng.ObserveBatch(ctx, batch)
		t3 := time.Now()
		if err != nil {
			return err
		}
		if rep.Applied != len(batch) {
			return fmt.Errorf("core.observe_batch_ms: %d of %d applied", rep.Applied, len(batch))
		}
		payload, err := wal.EncodeObserve(batch)
		if err != nil {
			return err
		}
		before := l.Stats().Bytes
		t4 := time.Now()
		if _, err := l.Append(wal.KindObserve, payload); err != nil {
			return err
		}
		t5 := time.Now()
		if err := l.Sync(); err != nil {
			return err
		}
		t6 := time.Now()
		walBytes += int(l.Stats().Bytes - before)
		observe, flush, batchLat = append(observe, t1.Sub(t0)), append(flush, t2.Sub(t1)), append(batchLat, t3.Sub(t2))
		appendLat, syncLat = append(appendLat, t5.Sub(t4)), append(syncLat, t6.Sub(t5))
		r.spans.add("core.observe_us", b, t0, t1)
		r.spans.add("core.flush_ms", b, t1, t2)
		r.spans.add("core.observe_batch_ms", b, t2, t3)
		r.spans.add("wal.append_us", b, t4, t5)
		r.spans.add("wal.sync_ms", b, t5, t6)
	}
	r.setMedian("core.observe_us", observe)
	r.setMedian("core.flush_ms", flush)
	r.setMedian("core.observe_batch_ms", batchLat)
	r.setMedian("wal.append_us", appendLat)
	r.setMedian("wal.sync_ms", syncLat)
	r.metrics["core.flushed_users"] = float64(flushed) / ladderBatches
	r.metrics["wal.record_bytes"] = float64(walBytes) / ladderBatches

	// Both write paths must leave the same engine.
	got, err := probeDigests(deferred, fx.probes())
	if err != nil {
		return err
	}
	want, err := probeDigests(eng, fx.probes())
	if err != nil {
		return err
	}
	wrong := 0
	for i := range got {
		if got[i] != want[i] {
			wrong++
		}
	}
	r.check("ladder_write_paths_agree", wrong == 0,
		"%d probes after %d batches: Observe+FlushUpdates vs ObserveBatch, %d differ", len(got), ladderBatches, wrong)
	return nil
}
