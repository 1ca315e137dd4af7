package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	if err := checkBenchmarkJSON("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

// TestCPUSharesOfRealProfile decodes a runtime/pprof profile of a loop
// that does nothing but collect a heap of many small objects.
func TestCPUSharesOfRealProfile(t *testing.T) {
	live := make([]*[4]int, 1<<20)
	for i := range live {
		live[i] = new([4]int)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		runtime.GC()
	}
	pprof.StopCPUProfile()
	runtime.KeepAlive(live)
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	shares := cpuShares(p)
	if len(shares) != len(shareRules) {
		t.Fatalf("got %d shares, want %d", len(shares), len(shareRules))
	}
	if gc := shares["cpu.gc_share"]; gc < 0.5 {
		t.Errorf("cpu.gc_share = %.2f for a loop of runtime.GC calls, want most of the time", gc)
	}
	if s := shares["cpu.sigtree_share"]; s != 0 {
		t.Errorf("cpu.sigtree_share = %.2f without any sigtree frame", s)
	}
}

func TestReadSummaryIsMedianOfWindows(t *testing.T) {
	s := readStats{elapsed: measureWindows * time.Second, items: 100}
	for w := range measureWindows {
		lat := time.Duration(w+1) * time.Millisecond
		for i := range 100 {
			s.samples = append(s.samples, readSample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat: lat, item: i})
		}
	}
	// Window w holds 100 reads of w+1 ms each, one per item: the median
	// window's p50 lies between the middle two, and every item's median
	// read is the lower middle one.
	got := s.summary()
	p50 := 1000 * float64(measureWindows+1) / 2
	p99 := 1000 * float64(measureWindows/2)
	if got.itemsPerSec != 100 || got.p50 != p50 || got.p99 != p99 || got.n != 100*measureWindows || got.nItems != 100 {
		t.Errorf("summary = %+v, want 100 items/s, p50 %g us, p99 %g us over %d reads of 100 items", got, p50, p99, 100*measureWindows)
	}
}

// TestItemP99IgnoresScatteredSlowReads: reads slowed at random, as by a
// descheduled CPU, set the all-reads p99 but not the per-item one.
func TestItemP99IgnoresScatteredSlowReads(t *testing.T) {
	s := readStats{elapsed: measureWindows * time.Second, items: 200}
	for k := range 20000 {
		lat := time.Duration(100+k%200) * time.Microsecond // item k%200 costs 100+k%200 us
		// 53 is prime to 200: every item has about 2 slow reads of 100.
		if k%53 == 0 {
			lat = 5 * time.Millisecond
		}
		s.samples = append(s.samples, readSample{at: time.Duration(k) * time.Millisecond, lat: lat, item: k % 200})
	}
	got := s.summary()
	if got.p99 != 297 {
		t.Errorf("per-item p99 = %g us, want 297 (the 198th of 200 item costs)", got.p99)
	}
	if got.readP99 != 5000 {
		t.Errorf("all-reads p99 = %g us, want the 5 ms of the slowed reads", got.readP99)
	}
}
