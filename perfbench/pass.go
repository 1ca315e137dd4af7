package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// pass describes the load of one measured pass: closed-loop readers and
// an optional open-loop writer, run together for warm+dur. Only
// operations that start after the warm-up count.
type pass struct {
	name    string
	warm    time.Duration
	dur     time.Duration
	readers int
	// items is how many distinct query items the reads cycle through:
	// read q asks for item q % items.
	items int
	// read performs one read; q is the position in the query order.
	read func(ctx context.Context, q int) error
	// write sends write batch b of the stream; nil means read-only.
	write      func(ctx context.Context, b int) error
	batchesSec int
}

// cursor hands out query positions and write batches across passes, so a
// later pass continues the query order and the write stream where the
// earlier one stopped.
type cursor struct {
	query atomic.Int64
	batch int // owned by the single writer goroutine
}

func (r *runner) runPass(p pass) passResult {
	ctx := context.Background()
	start := time.Now()
	measured := start.Add(p.warm)
	end := measured.Add(p.dur)
	var res passResult
	res.reads.items = p.items
	var mu sync.Mutex // guards res.reads across readers
	var wg sync.WaitGroup
	for c := 0; c < p.readers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var samples []readSample
			var attempts, failed int
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				q := int(r.cur.query.Add(1) - 1)
				err := p.read(ctx, q)
				t1 := time.Now()
				if t0.Before(measured) {
					continue
				}
				attempts++
				if err != nil {
					failed++
					r.noteErr("read", err)
					continue
				}
				samples = append(samples, readSample{at: t0.Sub(measured), lat: t1.Sub(t0), item: q % p.items})
				r.spans.add(p.name+".read", q, t0, t1)
			}
			mu.Lock()
			res.reads.samples = append(res.reads.samples, samples...)
			res.reads.attempts += attempts
			res.reads.failed += failed
			mu.Unlock()
		}()
	}
	if p.write != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			period := time.Second / time.Duration(p.batchesSec)
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * period)
				if !due.Before(end) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				b := r.cur.batch
				r.cur.batch++
				t0 := time.Now()
				err := p.write(ctx, b)
				t1 := time.Now()
				if due.Before(measured) {
					continue
				}
				res.writes.attempts++
				if err != nil {
					res.writes.failed++
					r.noteErr("write", err)
					continue
				}
				res.writes.lag = append(res.writes.lag, t0.Sub(due))
				res.writes.ack = append(res.writes.ack, t1.Sub(due))
				r.spans.add(p.name+".write", b, t0, t1)
			}
		}()
	}
	wg.Wait()
	res.reads.elapsed = end.Sub(measured)
	return res
}
