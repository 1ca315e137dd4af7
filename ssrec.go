// Package ssrec is a Go implementation of the social stream recommendation
// framework of Zhou, Qin, Lu, Chen and Zhang, "Online Social Media
// Recommendation over Streams" (ICDE 2019, arXiv:1901.01003).
//
// Given a stream of social items (videos, posts — anything with a
// category, a producer and a set of description entities) and a stream of
// user–item interactions, a Recommender continuously answers: which k
// users should this new item be delivered to?
//
// The pipeline is the paper's:
//
//   - a Bi-Layer Hidden Markov Model (BiHMM) predicts each user's next
//     interesting category from their own trajectory and the hidden states
//     of the producers they follow (long-term and short-term interests);
//   - an entity-based matching function scores item–user relevance with
//     Dirichlet-smoothed MLEs and proximity-driven entity expansion for
//     diversity;
//   - the CPPse-index (chained shift-add-xor hash table over
//     category–entity pairs + extended signature trees per user block)
//     serves top-k queries with upper-bound pruning and supports dynamic
//     maintenance as profiles evolve.
//
// # Quick start (API v2)
//
//	ds := ssrec.GenerateYTubeLike(0.25, 42)          // or bring your own data
//	rec := ssrec.New(ssrec.Config{Categories: ds.Categories()})
//	_ = rec.TrainDataset(ds, 2.0/6)                  // bootstrap on the first third
//	ctx := context.Background()
//	for _, v := range newItems {
//	    res, err := rec.RecommendCtx(ctx, v, ssrec.WithK(10))
//	    ...                                          // deliver v to res.Recommendations
//	}
//	// Stream maintenance: micro-batch interactions so the engine takes
//	// one write lock + one index flush per batch, not per event.
//	report, err := rec.ObserveBatch(ctx, observations)
//
// The batch-first calls (RecommendBatch, ObserveBatch) are the throughput
// path; the v1 per-item methods (Recommend, Observe) remain as thin
// equivalents without error reporting. Per-call behavior is tuned with
// functional options (WithK, WithParallelism, WithoutExpansion);
// failures surface as wrapped sentinel errors (ErrNotTrained,
// ErrUnknownCategory, ErrInvalidObservation) and honor context
// cancellation down to the index search loop.
//
// # Sessions — the continuous profile
//
// OpenSession turns the request/response API into the paper's standing
// stream loop: one ordered full-duplex stream of pushed observations and
// asked items, answered in admission order, with every answer reflecting
// exactly the events pushed before it:
//
//	ses := rec.OpenSession(ctx)
//	go func() { for res := range ses.Results() { deliver(res) } }()
//	ses.Push(obs)                      // micro-batched ingest
//	ses.Ask(item, ssrec.WithK(10))     // answered after everything above
//	ses.Close()
//
// A session replay is bit-identical to hand-issued ObserveBatch /
// RecommendBatch calls at the same boundaries, on every deployment shape
// (the session conformance suites enforce it). Over HTTP the same
// protocol is POST /v2/session (NDJSON over h2c with credit-based flow
// control — see DESIGN.md, "Session protocol").
//
// # Scaling out
//
// Open with WithShards(n) serves the same API from an n-shard
// scatter-gather deployment: user blocks are partitioned across n engine
// shards, every query fans out under a shared score lower bound, and the
// results are observably identical to the single engine (enforced by the
// conformance suite in internal/shard):
//
//	rec := ssrec.Open(cfg, ssrec.WithShards(8))
//
// WithRemoteShards serves the same deployment from separate ssrec-shardd
// processes over the shard RPC transport (HTTP/2 + streamed bound
// updates, internal/shardrpc) — still observably identical, plus health
// probing and failover: an unreachable shard is excluded and calls carry
// ErrShardUnavailable beside their partial results until a snapshot
// handoff (Handoff) brings it back:
//
//	rec := ssrec.Open(cfg, ssrec.WithRemoteShards("10.0.0.1:9100", "10.0.0.2:9100"))
//	err := rec.Train(items, interactions, resolve) // trains once, boots every shardd
//
// See the examples/ directory for runnable scenarios, DESIGN.md for the
// system inventory and the API design, and OPERATIONS.md for deployment
// topologies, failover semantics and the recovery runbook.
package ssrec

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/shardrpc"
)

// Core data types, shared with the internal packages.
type (
	// Item is a social item v = ⟨category, producer, entities⟩.
	Item = model.Item
	// Interaction is one user-item interaction event.
	Interaction = model.Interaction
	// Recommendation is one entry of a top-k user list.
	Recommendation = model.Recommendation
	// Config parameterises the recommender; zero values take the paper's
	// defaults (|W|=5, λs=0.4, 3+3 hidden states, expansion on).
	Config = core.Config
)

// API v2 types: the batch-first, context-aware query and ingestion surface.
type (
	// Result is one item's answer from RecommendCtx/RecommendBatch.
	Result = core.Result
	// Observation is one interaction prepared for ObserveBatch.
	Observation = core.Observation
	// BatchReport summarises one ObserveBatch call.
	BatchReport = core.BatchReport
	// ObservationError details one rejected ObserveBatch entry.
	ObservationError = core.ObservationError
	// Option is a per-call query option (WithK, WithParallelism,
	// WithoutExpansion).
	Option = core.Option
	// QueryOptions is the resolved option set an Option mutates.
	QueryOptions = core.QueryOptions
)

// Session types: the continuous-recommendation surface of OpenSession.
type (
	// Session is one ordered full-duplex recommendation stream (see
	// Recommender.OpenSession).
	Session = core.Session
	// SessionResult is one answer delivered on Session.Results.
	SessionResult = core.SessionResult
	// SessionOption configures OpenSession (WithSessionBatch,
	// WithAutoRecommend, ...).
	SessionOption = core.SessionOption
	// SessionStats snapshots a session's counters.
	SessionStats = core.SessionStats
)

// ErrSessionClosed is returned by session calls after Close.
var ErrSessionClosed = core.ErrSessionClosed

// WithSessionBatch sets a session's observation micro-batch size.
func WithSessionBatch(n int) SessionOption { return core.WithSessionBatch(n) }

// WithSessionLinger bounds how long a session's pending observations wait
// for a full micro-batch before being admitted anyway.
func WithSessionLinger(d time.Duration) SessionOption { return core.WithSessionLinger(d) }

// WithAutoRecommend answers every item first seen in a pushed observation
// with a top-k query, without a separate Ask — the paper's standing
// "which k users should receive this new item?" loop driven directly by
// the event stream.
func WithAutoRecommend(k int) SessionOption { return core.WithAutoRecommend(k) }

// WithSessionAskOptions sets default query options for every Ask.
func WithSessionAskOptions(opts ...Option) SessionOption {
	return core.WithSessionAskOptions(opts...)
}

// Sentinel errors of the v2 API; match with errors.Is.
var (
	// ErrNotTrained is returned when a query arrives before training.
	ErrNotTrained = core.ErrNotTrained
	// ErrUnknownCategory marks an item outside the configured category
	// universe.
	ErrUnknownCategory = core.ErrUnknownCategory
	// ErrInvalidObservation marks a rejected ObserveBatch entry.
	ErrInvalidObservation = core.ErrInvalidObservation
	// ErrShardUnavailable marks a degraded sharded deployment: one or more
	// shards were unreachable, so the call's results (still returned) may
	// be missing those shards' owned users, and ingested batches were not
	// replicated everywhere. The router excludes failed shards and
	// re-includes them automatically once they pass a health probe after a
	// snapshot handoff; see OPERATIONS.md for the recovery runbook.
	ErrShardUnavailable = shard.ErrShardUnavailable
)

// WithK sets the number of users a query returns (default core.DefaultK).
func WithK(k int) Option { return core.WithK(k) }

// WithParallelism overrides the partitioned-search worker count for one
// call; n <= 0 keeps the engine's configured value.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithoutExpansion disables proximity entity expansion for one call.
func WithoutExpansion() Option { return core.WithoutExpansion() }

// Recommender is the assembled ssRec system: either one in-process engine
// (New, or Open without options) or a sharded scatter-gather deployment
// (Open with WithShards) behind the same method set. The two are
// observably equivalent — identical rankings, scores and order — which the
// conformance suite in internal/shard enforces.
type Recommender struct {
	eng    *core.Engine  // single-engine deployment; nil when sharded
	router *shard.Router // sharded deployment; nil when single-engine
	cfg    Config        // the Open config (remote Train builds from it)
	remote bool          // true when the shards live behind WithRemoteShards
}

// OpenOption configures Open.
type OpenOption func(*openOptions)

type openOptions struct {
	shards    int
	replicas  int
	addrs     []string
	authToken string
}

// WithAuthToken authenticates every shard RPC call of a WithRemoteShards
// deployment as "Authorization: Bearer <token>" — pair it with
// ssrec-shardd -auth-token. It has no effect on in-process deployments.
func WithAuthToken(token string) OpenOption {
	return func(o *openOptions) { o.authToken = token }
}

// WithShards serves the recommender as an n-shard deployment: user blocks
// are partitioned across n engine shards and every query is scattered to
// all of them under a shared score bound (see internal/shard). n <= 1 is
// the ordinary single engine.
func WithShards(n int) OpenOption {
	return func(o *openOptions) { o.shards = n }
}

// WithReplicas replicates every shard slot r ways (r <= 1 keeps single
// replicas). Writes broadcast to every replica of a slot — the
// micro-batch stays the atomic replication unit, so results remain
// bit-identical to the single engine — while each query's scatter leg is
// load-balanced across the slot's healthy replicas by latency EWMA. A
// slot stays fully available while ANY of its replicas survives, and a
// crashed replica is re-seeded from a healthy sibling (by the supervisor,
// see shard.Router.StartSupervisor, or a manual Handoff).
//
// In-process (WithShards) it composes as n*r engines; with
// WithRemoteShards the address list must be slot-major with n*r entries:
// addrs[i*r : (i+1)*r] are the replicas of slot i.
func WithReplicas(r int) OpenOption {
	return func(o *openOptions) { o.replicas = r }
}

// WithRemoteShards serves the recommender from remote shardd processes
// (cmd/ssrec-shardd), one per address, in shard-index order: addrs[i] is
// shard i of a len(addrs)-wide deployment. The same scatter-gather
// protocol as WithShards runs over HTTP/2 — shared-lower-bound pruning,
// micro-batch replication, observably identical results — plus health
// probing with failover: an unreachable shard is excluded, calls carry
// ErrShardUnavailable alongside partial results, and the shard rejoins
// after a snapshot handoff (see Handoff and OPERATIONS.md).
//
// No I/O happens at Open: connections dial lazily and blank shardds boot
// on the first Train or Handoff call. WithRemoteShards takes precedence
// over WithShards when both are given.
func WithRemoteShards(addrs ...string) OpenOption {
	return func(o *openOptions) { o.addrs = addrs }
}

// Open creates a recommender with deployment options. Open(cfg) is
// equivalent to New(cfg).
func Open(cfg Config, opts ...OpenOption) *Recommender {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if len(o.addrs) > 0 {
		if o.replicas > 1 {
			// Errors only on an empty or non-divisible address list; the
			// former is checked above and the latter panics loudly below
			// rather than silently serving a mis-shaped fleet.
			router, err := shardrpc.DialReplicaRouterAuth(o.addrs, o.replicas, o.authToken)
			if err != nil {
				panic(fmt.Sprintf("ssrec: WithRemoteShards/WithReplicas: %v", err))
			}
			return &Recommender{router: router, cfg: cfg, remote: true}
		}
		// DialRouterAuth errors only on an empty address list, checked above.
		router, _ := shardrpc.DialRouterAuth(o.addrs, o.authToken)
		return &Recommender{router: router, cfg: cfg, remote: true}
	}
	if o.shards > 1 {
		if o.replicas > 1 {
			// NewReplicated errors only on n < 1 or rep < 1, excluded here.
			router, _ := shard.NewReplicated(cfg, o.shards, o.replicas)
			return &Recommender{router: router, cfg: cfg}
		}
		return &Recommender{router: shard.New(cfg, o.shards), cfg: cfg}
	}
	return &Recommender{eng: core.New(cfg), cfg: cfg}
}

// New creates a single-engine recommender. Config.Categories is required.
func New(cfg Config) *Recommender {
	return Open(cfg)
}

// Shards reports the deployment width (1 for a single engine).
func (r *Recommender) Shards() int {
	if r.router != nil {
		return r.router.Shards()
	}
	return 1
}

// Engine exposes the underlying single engine for advanced use
// (persistence, experiments). It is nil for a sharded deployment — the
// shards are managed through the router and must not be mutated
// individually.
func (r *Recommender) Engine() *core.Engine { return r.eng }

// Router exposes the shard router of a sharded deployment (nil for a
// single engine).
func (r *Recommender) Router() *shard.Router { return r.router }

// Name identifies the configured system arm.
func (r *Recommender) Name() string {
	if r.router != nil {
		return fmt.Sprintf("ssRec[%d shards]", r.router.Shards())
	}
	return r.eng.Name()
}

// Train bootstraps the recommender on a batch of items and interactions.
// A sharded deployment trains once and boots every shard from the
// resulting snapshot; a remote deployment (WithRemoteShards) additionally
// ships that snapshot to every shardd over the handoff protocol, so ONE
// Train call boots the whole fleet.
func (r *Recommender) Train(items []Item, interactions []Interaction, resolve func(string) (Item, bool)) error {
	if r.remote {
		eng := core.New(r.cfg)
		if err := eng.Train(items, interactions, resolve); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := eng.SaveTo(&buf); err != nil {
			return fmt.Errorf("ssrec: snapshot trained engine: %w", err)
		}
		return r.router.HandoffSnapshot(context.Background(), buf.Bytes())
	}
	if r.router != nil {
		return r.router.Train(items, interactions, resolve)
	}
	return r.eng.Train(items, interactions, resolve)
}

// Handoff ships a trained-engine snapshot (Engine.SaveTo / core.SaveFile
// bytes) to every remote shard and re-includes recovered ones — the boot
// path for a pre-trained model ("one -save run, N boots") and the
// recovery runbook step after a shardd restart. It is a no-op for
// in-process deployments, whose shards boot through Train.
func (r *Recommender) Handoff(ctx context.Context, snapshot []byte) error {
	if r.router == nil {
		return nil
	}
	return r.router.HandoffSnapshot(ctx, snapshot)
}

// TrainDataset bootstraps the recommender on the leading fraction of a
// dataset's interaction stream (the paper trains on the first 2 of 6
// partitions, i.e. fraction 1/3).
func (r *Recommender) TrainDataset(ds *Dataset, fraction float64) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("ssrec: fraction %v out of (0,1]", fraction)
	}
	n := int(float64(len(ds.d.Interactions)) * fraction)
	return r.Train(ds.d.Items, ds.d.Interactions[:n], ds.d.Item)
}

// RecommendCtx is the v2 single-item query (see core.Engine.RecommendCtx).
func (r *Recommender) RecommendCtx(ctx context.Context, v Item, opts ...Option) (Result, error) {
	if r.router != nil {
		return r.router.RecommendCtx(ctx, v, opts...)
	}
	return r.eng.RecommendCtx(ctx, v, opts...)
}

// RecommendBatch is the v2 multi-item query (see core.Engine.RecommendBatch).
func (r *Recommender) RecommendBatch(ctx context.Context, items []Item, opts ...Option) ([]Result, error) {
	if r.router != nil {
		return r.router.RecommendBatch(ctx, items, opts...)
	}
	return r.eng.RecommendBatch(ctx, items, opts...)
}

// ObserveBatch is the v2 micro-batched stream ingest (see
// core.Engine.ObserveBatch). On a sharded deployment the batch is the
// atomic replication unit: it is broadcast to every shard uncancellably,
// and cancellation applies between batches.
func (r *Recommender) ObserveBatch(ctx context.Context, batch []Observation) (BatchReport, error) {
	if r.router != nil {
		return r.router.ObserveBatch(ctx, batch)
	}
	return r.eng.ObserveBatch(ctx, batch)
}

// OpenSession turns the request/response API into the paper's standing
// stream loop: ONE ordered full-duplex stream carrying interleaved
// observations (Push) and queries (Ask), answered in admission order on
// the Results channel. Every answer reflects exactly the events admitted
// before it — pushed observations are micro-batched (one ObserveBatch per
// WithSessionBatch-sized group) and every Ask is a barrier that admits
// the pending batch first. Replaying a Push/Ask interleaving through a
// session is bit-identical to issuing the same ObserveBatch /
// RecommendBatch calls by hand, on every deployment shape (single engine,
// WithShards, WithRemoteShards) — the session conformance suite enforces
// it.
//
// The context bounds the session's lifetime; Close flushes and drains
// cleanly. With WithAutoRecommend(k), every item first seen in a pushed
// observation is answered automatically. The wire equivalent is POST
// /v2/session (see internal/server and DESIGN.md, "Session protocol").
func (r *Recommender) OpenSession(ctx context.Context, opts ...SessionOption) *Session {
	return core.NewSession(ctx, r, opts...)
}

// Recommend is the v1 query: top-k users for an incoming item.
func (r *Recommender) Recommend(v Item, k int) []Recommendation {
	if r.router != nil {
		return r.router.Recommend(v, k)
	}
	return r.eng.Recommend(v, k)
}

// Observe is the v1 single-interaction ingest.
func (r *Recommender) Observe(ir Interaction, v Item) {
	if r.router != nil {
		r.router.Observe(ir, v)
		return
	}
	r.eng.Observe(ir, v)
}

// RegisterItem tells the deployment about a newly arrived item.
func (r *Recommender) RegisterItem(v Item) {
	if r.router != nil {
		r.router.RegisterItem(v)
		return
	}
	r.eng.RegisterItem(v)
}

// Users reports the number of tracked profiles.
func (r *Recommender) Users() int {
	if r.router != nil {
		return r.router.Users()
	}
	return r.eng.Users()
}

// Evaluate runs the paper's stream-simulation protocol (6 timestamp
// partitions, train on 2, test on 4) against this recommender's fresh
// configuration and returns precision/latency metrics.
func Evaluate(cfg Config, ds *Dataset, ks []int) (EvalResult, error) {
	res, err := evalx.Run(core.New(cfg), ds.d, evalx.Setup{}, ks)
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{
		System:             res.System,
		PAtK:               res.PAtK,
		ItemsTested:        res.ItemsTested,
		RecommendLatencyNs: res.RecommendLatency.Nanoseconds(),
		UpdateLatencyNs:    res.UpdateLatency.Nanoseconds(),
	}, nil
}

// EvalResult summarises one evaluation run.
type EvalResult struct {
	System             string
	PAtK               map[int]float64
	ItemsTested        int
	RecommendLatencyNs int64
	UpdateLatencyNs    int64
}

// Dataset is a collection of items and time-ordered interactions.
type Dataset struct {
	d *dataset.Dataset
}

// GenerateYTubeLike builds a synthetic dataset with the shape of the
// paper's YTube crawl (19 categories, many items, producer-driven
// consumer behavior). scale 1.0 ≈ laptop default; seed fixes the run.
func GenerateYTubeLike(scale float64, seed int64) *Dataset {
	cfg := dataset.YTubeConfig(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	return &Dataset{d: dataset.Generate(cfg)}
}

// GenerateMLensLike builds a synthetic dataset with the shape of the
// paper's derived MovieLens collection (15 categories, dense
// interactions per item).
func GenerateMLensLike(scale float64, seed int64) *Dataset {
	cfg := dataset.MLensConfig(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	return &Dataset{d: dataset.Generate(cfg)}
}

// Replicate produces a synthpop-style synthetic twin of a dataset
// (the paper's SynYTube/SynMLens construction).
func Replicate(src *Dataset, name string, seed int64) *Dataset {
	return &Dataset{d: dataset.Replicate(src.d, name, seed)}
}

// Name returns the dataset's name.
func (ds *Dataset) Name() string { return ds.d.Name }

// Categories returns the category universe.
func (ds *Dataset) Categories() []string { return append([]string(nil), ds.d.Categories...) }

// Items returns the items in timestamp order.
func (ds *Dataset) Items() []Item { return ds.d.Items }

// Interactions returns the interactions in timestamp order.
func (ds *Dataset) Interactions() []Interaction { return ds.d.Interactions }

// Item resolves an item by ID.
func (ds *Dataset) Item(id string) (Item, bool) { return ds.d.Item(id) }

// Summary returns the Table III row for the dataset.
func (ds *Dataset) Summary() string { return ds.d.ComputeStats().String() }

// SaveFile / LoadFile persist datasets as gzip-compressed gob.
func (ds *Dataset) SaveFile(path string) error { return ds.d.SaveFile(path) }

// LoadDataset reads a dataset written by SaveFile.
func LoadDataset(path string) (*Dataset, error) {
	d, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}
