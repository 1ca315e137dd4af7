package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/server"
	"ssrec/internal/wal"
)

// Every workload sets up three times, identically: the first set-up is
// measured, the second is the fresh reference its answers are checked
// against, and the third feeds the per-layer ladder of a traced run (an
// untraced run only times it). setup_s is the median of the three.

// setupResult is one set-up: the fixture, the engine trained on it, and
// what the workload puts in front of the engine.
type setupResult struct {
	fx     *fixture
	eng    *core.Engine
	train  time.Duration      // training time within the set-up
	wb     *server.WALBackend // ingest_mixed: the durable ingest wrapper
	walLog *wal.Log
	walDir string
	fleet  *fleet // fleet_http: the daemons
}

// setup runs and times one set-up; extra adds the workload's own steps.
func (r *runner) setup(extra func(*setupResult) error) (*setupResult, error) {
	s := &setupResult{}
	err := r.timeSetup(func() error {
		fx, err := newFixture(r.seed)
		if err != nil {
			return err
		}
		s.fx = fx
		if s.eng, s.train, err = fx.trainEngine(nil); err != nil {
			return err
		}
		if extra != nil {
			return extra(s)
		}
		return nil
	})
	if err != nil {
		r.release(s)
		return nil, err
	}
	return s, nil
}

// release frees what a set-up put in front of its engine; the engine
// itself stays usable.
func (r *runner) release(s *setupResult) error {
	var errs []error
	if s.walLog != nil {
		errs = append(errs, s.walLog.Close())
		errs = append(errs, os.RemoveAll(s.walDir))
		s.wb, s.walLog = nil, nil
	}
	if s.fleet != nil {
		r.procs.stop(s.fleet.all()...)
		s.fleet = nil
	}
	return errors.Join(errs...)
}

// lastSetup is the third set-up: timed, then handed to the ladder in a
// traced run.
func (r *runner) lastSetup(extra func(*setupResult) error) error {
	s, err := r.setup(extra)
	if err != nil {
		return err
	}
	if err := r.release(s); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	return r.ladder(s)
}

// answerTable holds the first answer digest seen per query item and
// counts later answers that differ from it.
type answerTable struct {
	first    []atomic.Uint64
	mismatch atomic.Int64
}

func newAnswerTable(n int) *answerTable { return &answerTable{first: make([]atomic.Uint64, n)} }

func (t *answerTable) record(i int, d uint64) {
	if !t.first[i].CompareAndSwap(0, d) && t.first[i].Load() != d {
		t.mismatch.Add(1)
	}
}

// matchLocal: two closed-loop RecommendCtx clients on one static engine.
func (r *runner) matchLocal() error {
	seen, err := r.matchLocalMeasure()
	if err != nil {
		return err
	}
	// Every answer equals the first answer for its item (the index is
	// static); each first answer must equal a fresh engine's.
	ref, err := r.setup(nil)
	if err != nil {
		return err
	}
	checked, wrong := 0, 0
	for i, v := range ref.fx.queries {
		d := seen.first[i].Load()
		if d == 0 {
			continue
		}
		res, err := ref.eng.RecommendCtx(context.Background(), v, core.WithK(queryK))
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		checked++
		if digest(res.Recommendations) != d {
			wrong++
		}
	}
	r.check("answers_equal_reference", wrong == 0 && seen.mismatch.Load() == 0 && checked > 0,
		"%d items checked against a fresh engine, %d differ; %d repeat answers differ from the item's first answer",
		checked, wrong, seen.mismatch.Load())
	return r.lastSetup(nil)
}

func (r *runner) matchLocalMeasure() (*answerTable, error) {
	s, err := r.setup(nil)
	if err != nil {
		return nil, err
	}
	fx := s.fx
	seen := newAnswerTable(len(fx.queries))
	read := func(ctx context.Context, q int) error {
		i := q % len(fx.queries)
		res, err := s.eng.RecommendCtx(ctx, fx.queries[i], core.WithK(queryK))
		if err != nil {
			return err
		}
		seen.record(i, digest(res.Recommendations))
		return nil
	}
	p := pass{name: "match_local", warm: r.warm, dur: r.seconds, readers: 2, items: len(fx.queries), read: read}
	if err := r.measure(p, inProcessProfiler); err != nil {
		return nil, err
	}
	r.metrics["mem_live_mb"] = float64(liveHeapBytes()) / (1 << 20)
	runtime.KeepAlive(s.eng)
	return seen, nil
}

// openWAL puts the production durable-ingest wrapper (fsync policy batch)
// in front of the set-up's engine, anchored by a checkpoint as a daemon
// anchors its boot.
func (r *runner) openWAL(s *setupResult) error {
	dir, err := os.MkdirTemp(r.work, "wal-")
	if err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.PolicyBatch})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.walLog, s.walDir, s.wb = l, dir, server.WrapWAL(s.eng, l)
	return s.wb.Checkpoint()
}

// ingestMixed: one open-loop ObserveBatch writer behind the WAL beside one
// closed-loop reader.
func (r *runner) ingestMixed() error {
	admitted, got, err := r.ingestMeasure()
	if err != nil {
		return err
	}
	// A fresh engine that applies the admitted batches in the same order
	// must answer the probes identically.
	ref, err := r.setup(r.openWAL)
	if err != nil {
		return err
	}
	if err := r.release(ref); err != nil {
		return err
	}
	for _, b := range admitted {
		batch, _ := ref.fx.batch(b)
		if _, err := ref.eng.ObserveBatch(context.Background(), batch); err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
	}
	want, err := probeDigests(ref.eng, ref.fx.probes())
	if err != nil {
		return err
	}
	wrong := 0
	for i := range got {
		if got[i] != want[i] {
			wrong++
		}
	}
	r.check("probes_equal_replayed_reference", wrong == 0 && len(admitted) > 0,
		"%d probe queries after %d admitted batches, %d differ from a fresh engine that replayed them",
		len(got), len(admitted), wrong)
	return r.lastSetup(r.openWAL)
}

// ingestMeasure runs the load and returns the admitted write batches, in
// order, and the probe answers of the engine after the run.
func (r *runner) ingestMeasure() (admitted []int, probes []uint64, err error) {
	s, err := r.setup(r.openWAL)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if rerr := r.release(s); err == nil {
			err = rerr
		}
	}()
	fx := s.fx
	read := func(ctx context.Context, q int) error {
		res, err := s.wb.RecommendBatch(ctx, []model.Item{fx.queries[q%len(fx.queries)]}, core.WithK(queryK))
		if err != nil {
			return err
		}
		return res[0].Err
	}
	write := func(ctx context.Context, b int) error {
		batch, ok := fx.batch(b)
		if !ok {
			return fmt.Errorf("write stream exhausted at batch %d", b)
		}
		rep, err := s.wb.ObserveBatch(ctx, batch)
		if err != nil {
			return err
		}
		if rep.Applied != len(batch) {
			return fmt.Errorf("batch %d: %d of %d applied", b, rep.Applied, len(batch))
		}
		admitted = append(admitted, b)
		return nil
	}
	p := pass{name: "ingest_mixed", warm: r.warm, dur: r.seconds, readers: 1, items: len(fx.queries),
		read: read, write: write, batchesSec: ingestBatchesPerSec}
	if err := r.measure(p, inProcessProfiler); err != nil {
		return nil, nil, err
	}
	r.metrics["mem_live_mb"] = float64(liveHeapBytes()) / (1 << 20)
	appends := s.walLog.Stats().Appends
	r.check("acked_batches_logged", appends == uint64(len(admitted)),
		"%d acknowledged batches, %d WAL appends", len(admitted), appends)
	probes, err = probeDigests(s.eng, fx.probes())
	return admitted, probes, err
}

func probeDigests(eng *core.Engine, probes []model.Item) ([]uint64, error) {
	out := make([]uint64, len(probes))
	for i, v := range probes {
		res, err := eng.RecommendCtx(context.Background(), v, core.WithK(queryK))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", v.ID, err)
		}
		out[i] = digest(res.Recommendations)
	}
	return out, nil
}

// bootTimeout bounds how long a daemon may take to become ready.
const bootTimeout = 120 * time.Second

// fleet is one live deployment: ssrec-server in front of two shardds.
type fleet struct {
	server *daemon
	shards []*daemon
}

// all lists the fleet's started daemons, the server first.
func (f *fleet) all() []*daemon {
	ds := append([]*daemon(nil), f.shards...)
	if f.server != nil {
		ds = append([]*daemon{f.server}, ds...)
	}
	return ds
}

// bootFleet saves the set-up's engine as a model file and boots the
// deployment from it: two blank shardds, then an ssrec-server that loads
// the model and hands it off to them. Readiness is gated on the shardds'
// /readyz and the server's /v2/stats (the server has no /readyz).
func (r *runner) bootFleet(s *setupResult) error {
	model := filepath.Join(r.work, "model.bin")
	if err := s.eng.SaveFile(model); err != nil {
		return err
	}
	f := &fleet{}
	s.fleet = f
	var addrs []string
	for i := range 2 {
		d, err := r.procs.start(fmt.Sprintf("shardd-%d", i), filepath.Join(r.bin, "ssrec-shardd"),
			"-index", fmt.Sprint(i), "-of", "2")
		if err != nil {
			return err
		}
		f.shards = append(f.shards, d)
		addrs = append(addrs, d.addr)
	}
	for _, d := range f.shards {
		if err := d.waitReady("/shard/v1/livez", bootTimeout); err != nil {
			return err
		}
	}
	srv, err := r.procs.start("server", filepath.Join(r.bin, "ssrec-server"),
		"-model", model, "-shard-addrs", addrs[0]+","+addrs[1])
	if err != nil {
		return err
	}
	f.server = srv
	if err := srv.waitReady("/v2/stats", bootTimeout); err != nil {
		return err
	}
	for _, d := range f.shards {
		if err := d.waitReady("/shard/v1/readyz", bootTimeout); err != nil {
			return err
		}
	}
	return os.Remove(model)
}

// fleetEvent is one operation the fleet answered, in the order the
// client-side gate admitted it.
type fleetEvent struct {
	write  bool
	index  int    // query position or write batch
	digest uint64 // reads only
}

// fleetHTTP: one closed-loop /v2/recommend connection and one open-loop
// /v2/observe connection against a live server over two shardds.
//
// A read that overlapped a broadcast write could see it applied on one
// shard and not yet on the other, an answer no single engine gives. So a
// client-side gate keeps reads and writes from overlapping: every read
// then sees exactly the writes acknowledged before it, and after the run
// a fresh single engine replays the same sequence and must give every
// read's answer bit for bit. Write acks are timed from the due time, so
// time spent waiting at the gate counts.
func (r *runner) fleetHTTP() error {
	events, err := r.fleetMeasure()
	if err != nil {
		return err
	}
	ref, err := r.setup(r.bootFleet)
	if err != nil {
		return err
	}
	if err := r.release(ref); err != nil {
		return err
	}
	reads, writes, wrong := 0, 0, 0
	for _, ev := range events {
		if ev.write {
			batch, _ := ref.fx.batch(ev.index)
			if _, err := ref.eng.ObserveBatch(context.Background(), batch); err != nil {
				return fmt.Errorf("reference replay: %w", err)
			}
			writes++
			continue
		}
		v := ref.fx.queries[ev.index%len(ref.fx.queries)]
		res, err := ref.eng.RecommendCtx(context.Background(), v, core.WithK(queryK))
		if err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		reads++
		if digest(res.Recommendations) != ev.digest {
			wrong++
		}
	}
	r.check("answers_equal_single_engine", wrong == 0 && reads > 0,
		"%d HTTP answers replayed in order with %d write batches on a fresh single engine, %d differ",
		reads, writes, wrong)
	return r.lastSetup(r.bootFleet)
}

// fleetMeasure runs the load against a live fleet and returns what it
// answered, in gate order.
func (r *runner) fleetMeasure() (events []fleetEvent, err error) {
	s, err := r.setup(r.bootFleet)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := r.release(s); err == nil {
			err = rerr
		}
	}()
	fx := s.fx
	s.eng = nil // the fleet serves; this process keeps only the fixture
	rc, wc := newV2Client(s.fleet.server.addr), newV2Client(s.fleet.server.addr)
	defer rc.close()
	defer wc.close()
	var gate sync.Mutex
	read := func(ctx context.Context, q int) error {
		gate.Lock()
		defer gate.Unlock()
		d, err := rc.recommend(ctx, fx.queries[q%len(fx.queries)], queryK)
		if err != nil {
			return err
		}
		events = append(events, fleetEvent{index: q, digest: d})
		return nil
	}
	write := func(ctx context.Context, b int) error {
		batch, ok := fx.batch(b)
		if !ok {
			return fmt.Errorf("write stream exhausted at batch %d", b)
		}
		gate.Lock()
		defer gate.Unlock()
		if err := wc.observe(ctx, batch); err != nil {
			return err
		}
		events = append(events, fleetEvent{write: true, index: b})
		return nil
	}
	var pprofAddrs []string
	for _, d := range s.fleet.all() {
		pprofAddrs = append(pprofAddrs, d.pprofAddr)
	}
	p := pass{name: "fleet_http", warm: r.warm, dur: r.seconds, readers: 1, items: len(fx.queries),
		read: read, write: write, batchesSec: fleetBatchesPerSec}
	if err := r.measure(p, daemonProfiler(pprofAddrs)); err != nil {
		return nil, err
	}
	var heap uint64
	for _, d := range s.fleet.all() {
		h, err := d.liveHeapBytes()
		if err != nil {
			return nil, err
		}
		heap += h
	}
	r.metrics["mem_live_mb"] = float64(heap) / (1 << 20)
	return events, nil
}
