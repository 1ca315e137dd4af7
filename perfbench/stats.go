package main

import (
	"hash/fnv"
	"math"
	"slices"
	"time"

	"ssrec/internal/model"
)

// series collects durations of one kind of operation.
type series []time.Duration

// quantile returns the q-quantile by the nearest-rank rule (0 when empty).
func (s series) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s series) max() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return slices.Max(s)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest fingerprints one answer: users and exact score bits, in rank
// order. Equal digests mean bit-identical answers.
func digest(recs []model.Recommendation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range recs {
		h.Write([]byte(r.UserID))
		bits := math.Float64bits(r.Score)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	// 0 marks "no answer seen yet" in the per-item tables.
	return h.Sum64() | 1
}

// readSample is one read: when it started, from the start of
// measurement, how long it took, and which query item it asked for.
type readSample struct {
	at, lat time.Duration
	item    int
}

// readStats is the read side of a workload pass.
type readStats struct {
	samples  []readSample
	failed   int
	elapsed  time.Duration
	attempts int
	items    int // distinct query items; sample.item < items
}

// measureWindows is how many equal windows a pass's reads are split into.
// The rate and p50 are medians over the windows, so a burst of outside
// interference in a few windows does not move them.
const measureWindows = 20

// readSummary is a pass's read side as reported.
//
// itemsPerSec and p50 are medians over the windows of that window's
// figure. p99 is the tail over the query items: each item's latency is
// the median of its reads in the pass, and p99 is the 99th percentile of
// those per-item latencies. Every item is read many times in a pass (the
// query order cycles), so a read slowed by something outside the
// program (a descheduled vCPU, a neighbour's burst) moves its item's
// median only if it slowed most of that item's reads; the raw 99th
// percentile over reads, printed as readP99, sits where about 1% of
// reads are hit by such events and swung by 40-50% from run to run on a
// shared host.
type readSummary struct {
	itemsPerSec float64
	p50, p99    float64 // microseconds
	readP99     float64 // microseconds, over all reads; diagnostic only
	n           int     // reads in the pass
	nItems      int     // items with at least one read
}

func (s readStats) summary() readSummary {
	wins := make([]series, measureWindows)
	w := s.elapsed / measureWindows
	perItem := make([]series, s.items)
	all := make(series, 0, len(s.samples))
	for _, x := range s.samples {
		i := min(int(x.at/w), measureWindows-1)
		wins[i] = append(wins[i], x.lat)
		perItem[x.item] = append(perItem[x.item], x.lat)
		all = append(all, x.lat)
	}
	var rate, p50 []float64
	for _, win := range wins {
		rate = append(rate, float64(len(win))/w.Seconds())
		if len(win) > 0 { // a window no read started in has no latency
			p50 = append(p50, us(win.quantile(0.50)))
		}
	}
	var itemLat series
	for _, lats := range perItem {
		if len(lats) > 0 {
			itemLat = append(itemLat, lats.quantile(0.50))
		}
	}
	return readSummary{itemsPerSec: median(rate), p50: median(p50), p99: us(itemLat.quantile(0.99)),
		readP99: us(all.quantile(0.99)), n: len(s.samples), nItems: len(itemLat)}
}

func median(v []float64) float64 {
	c := slices.Clone(v)
	slices.Sort(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// writeStats is the write side of a workload pass: ack latency and
// generator lateness, both timed from each batch's due time.
type writeStats struct {
	ack      series
	lag      series
	failed   int
	attempts int
}

// passResult is what one measured pass of a workload yields.
type passResult struct {
	reads  readStats
	writes writeStats
}

func (p passResult) attempted() int { return p.reads.attempts + p.writes.attempts }
func (p passResult) failed() int    { return p.reads.failed + p.writes.failed }
