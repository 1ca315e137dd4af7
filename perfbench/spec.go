package main

// spec.go is the benchmark's definition: its workloads, its end-to-end
// metrics and its per-layer metrics, each with the reason it exists and —
// for the per-layer metrics — which end-to-end metric it should move on
// which workload. BENCHMARK.json at the repository root must list the same
// names and units; every run checks that it does.

// The fixture: a YTube-shaped stream from internal/dataset, sized near
// 10^4 consumers so that index search, not bookkeeping, dominates a query.
const (
	fixtureConsumers = 10000
	fixtureProducers = 300
	fixtureSteps     = 60
	queryK           = 30 // result size of every query
	batchSize        = 64 // interactions per write micro-batch
)

// Write rates of the open-loop generators. One writer alone manages about
// 5.6k interactions/s behind the WAL wrapper (fsync policy batch) at the
// write stream's start and about 3.7k/s by its 75,000th interaction, since
// each refresh replays a user's whole history (2-core x86-64 box, Go
// 1.24). At about half of that (30 batches/s) the single reader waits
// behind one write per batch for a third of the time, so every read figure
// follows the write cost, which on that box switches between two levels
// about 18% apart from run to run: ten-run spreads reached 24% on
// match_items_per_s and 25% on match_p99_us. At 15 batches/s about 1% of
// reads wait, and match_p99_us sits on the edge between waiting and
// unhindered reads (five runs spread by 47%). ingestBatchesPerSec keeps the
// waits to about 0.2% of reads: the writes, their WAL appends, fsyncs and
// refreshes still run beside the reader and show in ingest_ack_*, while the
// bounded read figures stay steady (five runs: 5%, 4% and 10%).
// fleetBatchesPerSec is deliberately low: the fleet workload is about the
// read path, with a steady trickle of broadcast writes beside it.
const (
	ingestBatchesPerSec = 4 // 256 interactions/s
	fleetBatchesPerSec  = 5 // 320 interactions/s
)

type workloadSpec struct {
	Name string
	Why  string
	run  func(*runner) error
}

// workloads lists the benchmark's workloads, as BENCHMARK.json does.
// Closed-loop clients plus open-loop generators never exceed 2, the core
// count the benchmark was sized on.
var workloads = []workloadSpec{
	{
		Name: "match_local",
		// Read-only. Two closed-loop clients call Engine.RecommendCtx (k=30)
		// on one in-process engine; every query item is registered in
		// set-up, so the index is static. It reproduces the paper's Fig. 10
		// setting: about 95% of the time is cppse/sigtree search, so search
		// and encoding optimisations show here and wire, HTTP and ingest
		// changes should not.
		Why: "paper Fig. 10 setting: 2 closed-loop RecommendCtx clients on a static in-process index; search and encoding changes show here",
		run: (*runner).matchLocal,
	},
	{
		Name: "ingest_mixed",
		// Writes beside reads on one in-process engine behind the
		// production WAL wrapper (server.WrapWAL, fsync policy batch). One
		// open-loop writer sends ObserveBatch micro-batches of 64 at
		// ingestBatchesPerSec; one closed-loop reader queries through the
		// same wrapper beside it. BiHMM fold, index refresh, WAL and GC
		// changes show in the write acks, and the wrapper's read path and
		// the writer's garbage in the read figures.
		Why: "one open-loop ObserveBatch(64) writer at 256 interactions/s behind the WAL (fsync batch) beside one closed-loop reader; BiHMM, refresh, WAL and GC changes show here",
		run: (*runner).ingestMixed,
	},
}

// unlistedWorkloads run by name (and under -workload all) but are not in
// BENCHMARK.json, so no bound judges them.
//
// fleet_http is unlisted because it is not steady on the 2-core box the
// benchmark was sized on: three daemons and the client share two cores,
// so the box's own speed swings (the same deterministic set-up took 4.7 s
// to 6.1 s within six minutes) are amplified, and ten runs spread by 27%
// (match_items_per_s), 19% (match_p50_us) and 42% (match_p99_us) of their
// medians, beyond any bound the benchmark may set. Every layer it drives is
// still measured by the ladder of every traced run: server.*_http_*,
// shardrpc.remote_us, shardrpc.observe_broadcast_ms, shardrpc.handoff_s.
var unlistedWorkloads = []workloadSpec{
	{
		Name: "fleet_http",
		// The product surface: a live ssrec-server subprocess fronts two
		// ssrec-shardd subprocesses over loopback. One closed-loop
		// connection sends single-item /v2/recommend requests; one
		// open-loop connection posts /v2/observe batches of 64 at
		// fleetBatchesPerSec. HTTP, router scatter and the shard RPC make up
		// most of a remote query, so wire and HTTP optimisations show here
		// and not in match_local; the broadcast write leg exercises the
		// shard layer differently from reads.
		Why: "ssrec-server over 2 ssrec-shardd on loopback: one closed-loop /v2/recommend connection, one open-loop /v2/observe connection at 320 interactions/s; wire and HTTP changes show here",
		run: (*runner).fleetHTTP,
	},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	// Moves names the end-to-end metric a per-layer metric should move,
	// and on which workload.
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, so only metrics that every workload has are listed; the
// write-side figures (ingest_ack_p50_ms, ingest_ack_p99_ms,
// ingest_lag_max_ms) and ops_failed_ratio are printed by every run that
// has them, beside the sample counts, but carry no bound: the ratio is 0
// on a healthy run and the lag is a maximum.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "match_items_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "match_p50_us", Unit: "us", Better: "lower", Bound: 0.24},
	{Name: "match_p99_us", Unit: "us", Better: "lower", Bound: 0.24},
	{Name: "mem_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer is what the traced run reports. Read-path rungs run a single
// client over the same query order; write-path rungs replay the same
// 64-interaction batches. Every traced run measures the whole ladder on a
// freshly set-up fixture, so the ladder figures do not depend on the
// workload; the cpu.* shares and trace.* deltas come from the workload's
// own traced pass.
var perLayer = []metricSpec{
	// Read path.
	{Name: "ranking.query_encode_us", Unit: "us", Better: "lower", Moves: "match_p50_us on match_local (ceiling about 4%)"},
	{Name: "cppse.search_us", Unit: "us", Better: "lower", Moves: "match_items_per_s and match_p50_us on match_local; fleet_http weakly"},
	{Name: "sigtree.nodes_visited", Unit: "count", Better: "lower", Moves: "as cppse.search_us"},
	{Name: "sigtree.entries_scored", Unit: "count", Better: "lower", Moves: "as cppse.search_us"},
	{Name: "sigtree.entries_skipped", Unit: "count", Better: "higher", Moves: "as cppse.search_us"},
	{Name: "sigtree.pruning_ratio", Unit: "ratio", Better: "higher", Moves: "as cppse.search_us"},
	{Name: "core.recommend_us", Unit: "us", Better: "lower", Moves: "match_p50_us on match_local and ingest_mixed (self time over encode + search is lock, prologue and scratch)"},
	{Name: "shard.scatter_us", Unit: "us", Better: "lower", Moves: "match_p50_us on fleet_http"},
	{Name: "shardrpc.remote_us", Unit: "us", Better: "lower", Moves: "match_p50_us and match_items_per_s on fleet_http"},
	{Name: "server.recommend_http_us", Unit: "us", Better: "lower", Moves: "match_p50_us on fleet_http"},
	// Write path, per 64-interaction batch.
	{Name: "core.observe_us", Unit: "us", Better: "lower", Moves: "ingest_ack_p50_ms and ingest_ack_p99_ms on ingest_mixed; nothing on match_local"},
	{Name: "core.flush_ms", Unit: "ms", Better: "lower", Moves: "as core.observe_us"},
	{Name: "core.flushed_users", Unit: "count", Better: "lower", Moves: "as core.observe_us"},
	{Name: "core.observe_batch_ms", Unit: "ms", Better: "lower", Moves: "as core.observe_us"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", Moves: "ingest_ack_p99_ms on ingest_mixed"},
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower", Moves: "ingest_ack_p99_ms on ingest_mixed"},
	{Name: "wal.record_bytes", Unit: "bytes", Better: "lower", Moves: "ingest_ack_p99_ms on ingest_mixed"},
	{Name: "shardrpc.observe_broadcast_ms", Unit: "ms", Better: "lower", Moves: "ingest_ack_* on fleet_http"},
	{Name: "server.observe_http_ms", Unit: "ms", Better: "lower", Moves: "ingest_ack_* on fleet_http"},
	// Set-up and memory.
	{Name: "dataset.generate_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "core.train_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "core.snapshot_bytes", Unit: "bytes", Better: "lower", Moves: "setup_s on fleet_http"},
	{Name: "shardrpc.handoff_s", Unit: "s", Better: "lower", Moves: "setup_s on fleet_http"},
	{Name: "core.heap_bytes_per_user", Unit: "bytes", Better: "lower", Moves: "mem_live_mb"},
	// CPU shares of the workload's traced pass: the fraction of CPU
	// samples whose stack holds the package (in-process: this process;
	// fleet_http: the three daemons, via their -pprof-addr).
	{Name: "cpu.bihmm_share", Unit: "ratio", Better: "lower", Moves: "ingest_ack_* on ingest_mixed"},
	{Name: "cpu.cppse_share", Unit: "ratio", Better: "lower", Moves: "match_items_per_s on match_local"},
	{Name: "cpu.sigtree_share", Unit: "ratio", Better: "lower", Moves: "match_items_per_s on match_local"},
	{Name: "cpu.shardrpc_share", Unit: "ratio", Better: "lower", Moves: "match_p50_us on fleet_http"},
	{Name: "cpu.server_share", Unit: "ratio", Better: "lower", Moves: "match_p50_us on fleet_http"},
	{Name: "cpu.gc_share", Unit: "ratio", Better: "lower", Moves: "ingest_ack_* on ingest_mixed"},
	// Standing multi-core facts, as ratios with their bases printed beside.
	{Name: "ratio.remote_wire_share", Unit: "ratio", Better: "lower", Moves: "match_p50_us on fleet_http; (shardrpc.remote_us - shard.scatter_us) / shardrpc.remote_us"},
	{Name: "ratio.router2_over_engine", Unit: "ratio", Better: "lower", Moves: "match_p50_us on fleet_http; shard.scatter_us / core.recommend_us"},
	// What tracing costs: the traced pass against the untraced pass of
	// the same run, in percent (positive = the traced pass was slower).
	{Name: "trace.match_p50_overhead_pct", Unit: "%", Better: "lower", Moves: "none; tracing cost on match_p50_us"},
	{Name: "trace.match_items_per_s_overhead_pct", Unit: "%", Better: "lower", Moves: "none; tracing cost on match_items_per_s"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func allWorkloads() []workloadSpec {
	return append(append([]workloadSpec(nil), workloads...), unlistedWorkloads...)
}
