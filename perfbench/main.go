// Command perfbench is ssRec's duration-bound benchmark. It builds one
// seeded fixture, drives one workload against the system for a fixed
// time, checks that every answer is correct, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer cost ladder) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through the wrapper, which builds this
// package and the daemons first:
//
//	bash perfbench/run.sh --workload match_local --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "fixture seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds per pass")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics instead of the end-to-end ones")
		root     = flag.String("root", ".", "repository checkout holding BENCHMARK.json")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the ssrec-server and ssrec-shardd binaries")
	)
	flag.Parse()
	if err := checkBenchmarkJSON(filepath.Join(*root, "BENCHMARK.json")); err != nil {
		fatalf("%v", err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *trace == 1, *root, *bin); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatalf("unknown -workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames(), ", "))
	}
	work := filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("%v", err)
	}
	r := &runner{
		workload: w.Name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		warm:     time.Second,
		trace:    *trace == 1,
		root:     *root,
		bin:      *bin,
		work:     work,
		procs:    &procSet{logDir: work},
		metrics:  map[string]float64{},
		samples:  map[string]int{},

		ladderWrong: map[string]int{},
	}
	stopOnSignal(r.procs)
	err := w.run(r)
	r.procs.stopAll()
	if err == nil && r.trace {
		err = r.writeSpans()
	}
	os.RemoveAll(work)
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	if !r.finish() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.Name)
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// stopOnSignal stops every started daemon before exiting on SIGINT or
// SIGTERM, so an interrupted run leaves no process behind.
func stopOnSignal(ps *procSet) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-ch
		ps.stopAll()
		fatalf("stopped by %v", s)
	}()
}

// runner carries one run's settings and what it has measured so far.
type runner struct {
	workload  string
	seed      int64
	seconds   time.Duration
	warm      time.Duration
	trace     bool
	root, bin string
	work      string // scratch directory of this run, removed at exit
	procs     *procSet

	cur    cursor
	spans  *spanLog // non-nil during traced passes and the ladder
	traced *spanLog // every span of the traced run, written out at the end

	setups  []time.Duration
	metrics map[string]float64
	samples map[string]int // sample count behind each percentile metric
	lines   []string       // human-readable report, printed before the result
	checks  []checkResult
	// ladderWrong counts, per rung, answers that differ from the engine's.
	ladderWrong map[string]int
	attempted   int
	failed      int

	errMu sync.Mutex
	errs  map[string]int
	first map[string]string
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func (r *runner) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *runner) report(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// noteErr counts a failed operation by kind and keeps the first message.
func (r *runner) noteErr(kind string, err error) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if r.errs == nil {
		r.errs, r.first = map[string]int{}, map[string]string{}
	}
	r.errs[kind]++
	if _, ok := r.first[kind]; !ok {
		r.first[kind] = err.Error()
	}
}

// timeSetup runs one repetition of the workload's set-up and records how
// long it took. A full collection first keeps one repetition's garbage
// out of the next one's time.
func (r *runner) timeSetup(f func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := f(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0))
	return nil
}

// measure runs the workload's load for the run's measured time. An
// untraced run makes one pass. A traced run splits that time between an
// untraced pass and a traced one, with CPU profiling and span recording
// on, so together they cover the same stretch of the write stream as an
// untraced run, and it reports what tracing cost.
func (r *runner) measure(p pass, prof profiler) error {
	if r.trace {
		p.dur /= 2
	}
	u := r.runPass(p)
	r.addPass(u)
	r.reportPass("untraced", u)
	if !r.trace {
		r.setE2E(u)
		return nil
	}
	r.traced = newSpanLog()
	r.spans = r.traced
	stop, err := prof(p.dur)
	if err != nil {
		return err
	}
	p.warm = 0
	t := r.runPass(p)
	shares, err := stop()
	r.spans = nil
	if err != nil {
		return err
	}
	r.addPass(t)
	r.reportPass("traced", t)
	for name, v := range shares {
		r.metrics[name] = v
	}
	// Both overheads are positive when the traced pass did worse, as a
	// share of the untraced pass's figure.
	uSum, tSum := u.reads.summary(), t.reads.summary()
	if uSum.n == 0 || tSum.n == 0 {
		return fmt.Errorf("a pass completed no reads")
	}
	r.metrics["trace.match_p50_overhead_pct"] = 100 * (tSum.p50 - uSum.p50) / uSum.p50
	r.metrics["trace.match_items_per_s_overhead_pct"] = 100 * (uSum.itemsPerSec - tSum.itemsPerSec) / uSum.itemsPerSec
	return nil
}

func (r *runner) addPass(p passResult) {
	r.attempted += p.attempted()
	r.failed += p.failed()
}

// setE2E records the end-to-end metrics of an untraced pass.
func (r *runner) setE2E(p passResult) {
	s := p.reads.summary()
	r.metrics["match_items_per_s"] = s.itemsPerSec
	r.metrics["match_p50_us"] = s.p50
	r.metrics["match_p99_us"] = s.p99
	r.samples["match_p50_us"] = s.n
	r.samples["match_p99_us"] = s.nItems
}

// reportPass prints a pass's end-to-end figures, the write side included,
// with the sample count beside every percentile.
func (r *runner) reportPass(label string, p passResult) {
	s := p.reads.summary()
	r.report("%s pass: match_items_per_s=%.1f 1/s, match_p50_us=%.1f us (medians of %d windows; n=%d reads), match_p99_us=%.1f us (over n=%d items' median reads); all-reads p99 %.1f us (not a metric)",
		label, s.itemsPerSec, s.p50, measureWindows, s.n, s.p99, s.nItems, s.readP99)
	if p.writes.attempts > 0 {
		m := len(p.writes.ack)
		r.report("%s pass: ingest_ack_p50_ms=%.3f ms (n=%d), ingest_ack_p99_ms=%.3f ms (n=%d), ingest_lag_max_ms=%.3f ms (n=%d)",
			label, ms(p.writes.ack.quantile(0.5)), m, ms(p.writes.ack.quantile(0.99)), m, ms(p.writes.lag.max()), m)
	}
	ratio := 0.0
	if a := p.attempted(); a > 0 {
		ratio = float64(p.failed()) / float64(a)
	}
	r.report("%s pass: ops_failed_ratio=%g (%d of %d operations)", label, ratio, p.failed(), p.attempted())
}

func (r *runner) writeSpans() error {
	if r.traced == nil {
		return nil
	}
	dir := filepath.Join(r.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := r.traced.write(path); err != nil {
		return err
	}
	r.report("spans: %d written to %s", r.traced.len(), path)
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish prints the report, the provenance block and the result line, and
// reports whether every correctness check passed.
func (r *runner) finish() bool {
	if len(r.setups) > 0 {
		s := series(r.setups)
		r.metrics["setup_s"] = s.quantile(0.5).Seconds()
		var each []string
		for _, d := range r.setups {
			each = append(each, fmt.Sprintf("%.3f", d.Seconds()))
		}
		r.report("set-up: %d repetitions, seconds each: %s", len(r.setups), strings.Join(each, " "))
	}
	for _, kind := range slices.Sorted(maps.Keys(r.errs)) {
		r.report("failed %s operations: %d, first: %s", kind, r.errs[kind], r.first[kind])
	}
	correct := len(r.checks) > 0
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAILED", false
		}
		r.report("check %s: %s (%s)", c.name, status, c.detail)
	}
	specs := endToEnd
	if r.trace {
		specs = perLayer
	}
	res := resultJSON{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok {
			fatalf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	if r.attempted < 1 {
		fatalf("no operation was attempted")
	}
	for _, line := range r.lines {
		fmt.Println(line)
	}
	fmt.Println("metrics:")
	for _, name := range slices.Sorted(maps.Keys(r.metrics)) {
		extra := ""
		if n, ok := r.samples[name]; ok {
			extra = fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Printf("  %-40s %16.6g %s%s\n", name, r.metrics[name], unitOf(name), extra)
	}
	prov, err := json.Marshal(r.provenance())
	if err == nil {
		fmt.Printf("provenance %s\n", prov)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
	return correct
}

func unitOf(name string) string {
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// benchmarkJSON is the committed definition at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkBenchmarkJSON refuses to run when BENCHMARK.json and spec.go
// disagree on a workload or a metric.
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, "workload "+w.Name+": "+w.Why)
	}
	for _, m := range b.EndToEnd {
		got = append(got, fmt.Sprintf("end_to_end %s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range b.PerLayer {
		got = append(got, fmt.Sprintf("per_layer %s %s %s", m.Name, m.Unit, m.Better))
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.Name+": "+w.Why)
	}
	for _, m := range endToEnd {
		want = append(want, fmt.Sprintf("end_to_end %s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range perLayer {
		want = append(want, fmt.Sprintf("per_layer %s %s %s", m.Name, m.Unit, m.Better))
	}
	if !slices.Equal(got, want) {
		for i := range max(len(got), len(want)) {
			g, w := "(none)", "(none)"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				return fmt.Errorf("%s disagrees with perfbench/spec.go: entry %d is %q, want %q", path, i, g, w)
			}
		}
	}
	return nil
}
