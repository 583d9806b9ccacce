package service

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/dcand"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/naive"
	"seqmine/internal/obs"
	"seqmine/internal/seqdb"
)

// Algorithm names a mining backend. The string values double as the wire
// format of the HTTP API.
type Algorithm string

const (
	AlgoDFS       Algorithm = "dfs"
	AlgoCount     Algorithm = "count"
	AlgoDSeq      Algorithm = "dseq"
	AlgoDCand     Algorithm = "dcand"
	AlgoNaive     Algorithm = "naive"
	AlgoSemiNaive Algorithm = "seminaive"
)

// ParseAlgorithm validates an algorithm name; the empty string selects DSeq.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(strings.ToLower(s)); a {
	case "":
		return AlgoDSeq, nil
	case AlgoDFS, AlgoCount, AlgoDSeq, AlgoDCand, AlgoNaive, AlgoSemiNaive:
		return a, nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", s)
	}
}

// ExecOptions configures one query's execution. The zero value mines with
// D-SEQ and none of the paper's enhancements enabled, mirroring the root
// package's Options; start from DefaultExecOptions for the recommended
// configuration.
type ExecOptions struct {
	// Algorithm selects the backend miner; empty means D-SEQ.
	Algorithm Algorithm
	// Workers bounds the map/reduce worker pool of the distributed backends;
	// 0 uses all CPUs. The sequential backends (dfs, count) mine the whole
	// database on one goroutine and ignore it.
	Workers int

	// D-SEQ toggles (defaults on when zero-valued via DefaultExecOptions).
	UseGrid            bool
	Rewrite            bool
	EarlyStopping      bool
	AggregateSequences bool
	// D-CAND toggles.
	MinimizeNFAs  bool
	AggregateNFAs bool

	// Prefilter enables the paper's two-pass trick on every backend: a cheap
	// backward reachability scan rejects input sequences without any
	// accepting run before the expensive per-sequence work (full simulation,
	// pivot analysis, or candidate enumeration). Mining output is
	// byte-identical with and without it. Off by default.
	Prefilter bool

	// SpillThreshold bounds the in-memory shuffle footprint of the
	// distributed backends, in bytes per peer: past it, shuffle partitions
	// spill to sorted temp-file segments that the reduce phase
	// merge-streams, so shuffles larger than memory still complete.
	// 0 inherits the service default (Config.SpillThreshold) when run
	// through Service.Mine; <= 0 at Execute time keeps the shuffle in
	// memory. The sequential backends (dfs, count) do not shuffle and
	// ignore it.
	SpillThreshold int64
	// SpillTmpDir is where spill segments are created for in-process runs;
	// empty uses the system temp directory. It is a daemon-local path and is
	// never shipped to cluster workers — they spill into their own
	// -spill-dir.
	SpillTmpDir string
	// SendBufferBytes, when > 0, switches the distributed backends to the
	// streaming pipelined shuffle: map workers emit into bounded per-peer
	// send buffers drained while mapping continues, overlapping map compute
	// with transfer and bounding map-side memory. 0 inherits the service
	// default (Config.SendBufferBytes) when run through Service.Mine; <= 0
	// at Execute time keeps the phase-synchronous barrier.
	SendBufferBytes int64
	// SendBufferMaxBytes, when > SendBufferBytes, lets the streaming
	// shuffle grow a destination's send buffer adaptively up to this
	// bound. 0 inherits the service default (Config.SendBufferMaxBytes)
	// when run through Service.Mine; <= SendBufferBytes at Execute time
	// keeps the buffers fixed.
	SendBufferMaxBytes int64
	// CompressSpill compresses spill segments (receive-side runs and
	// map-side send overflow) with DEFLATE; SpilledBytes then reports the
	// compressed on-disk size.
	CompressSpill bool
	// CompressSpillSet marks CompressSpill as an explicit per-query choice:
	// when set, Service.Mine honors CompressSpill verbatim (including false
	// overriding a daemon-wide -compress-spill default) instead of merging
	// it with the service default. The HTTP API sets it whenever the request
	// body carries a "compress_spill" field (tri-state *bool).
	CompressSpillSet bool

	// TaskRetries is the cluster scheduler's retry budget: how many failed
	// attempts it relaunches on the surviving workers before the job fails.
	// 0 inherits the service default (Config.TaskRetries) when run through
	// Service.Mine, falling back to the scheduler's built-in budget of 2;
	// negative disables retries. In-process backends never retry and ignore
	// it.
	TaskRetries int
	// SpeculativeAfter launches one speculative duplicate attempt when a
	// cluster job's running attempt exceeds this duration (straggler
	// mitigation; first attempt to finish wins). 0 inherits the service
	// default (Config.SpeculativeAfter); negative disables speculation.
	SpeculativeAfter time.Duration
	// TaskPartitions is the number of per-partition tasks a cluster job is
	// decomposed into; 0 uses one task per live worker.
	TaskPartitions int

	// Cluster, when non-nil, runs the distributed backends (dseq, dcand)
	// across remote worker processes over the TCP shuffle transport instead
	// of the in-process BSP engine.
	Cluster *ClusterOptions

	// Obs receives the execution's registry metrics: the in-process engine's
	// spill-segment and send-buffer histograms, or the cluster scheduler's
	// attempt and heartbeat histograms. Nil disables registry metrics.
	// Service.Mine fills it in from its own registry when unset.
	Obs *obs.Registry
}

// ClusterOptions selects distributed execution across worker processes.
type ClusterOptions struct {
	// Workers are the control URLs of the worker processes
	// ("http://host:port"), one per peer.
	Workers []string
	// Expression is the pattern expression shipped to the workers, which
	// compile it against the dataset dictionary themselves. Service.Mine
	// fills it in from the query; direct Execute callers must set it (the
	// compiled FST cannot be sent over the wire).
	Expression string
}

// DefaultExecOptions mirrors seqmine.DefaultOptions: D-SEQ with every
// enhancement enabled.
func DefaultExecOptions() ExecOptions {
	return ExecOptions{
		Algorithm:          AlgoDSeq,
		UseGrid:            true,
		Rewrite:            true,
		EarlyStopping:      true,
		AggregateSequences: true,
		MinimizeNFAs:       true,
		AggregateNFAs:      true,
	}
}

// ExecStats describes how a query was executed.
type ExecStats struct {
	// Shards is the number of processes that mined the query: 1 in-process,
	// the number of worker processes on a cluster.
	Shards int `json:"shards"`
	// Candidates equals the number of patterns found: no backend mines a
	// candidate superset that a second round must verify, so the precision
	// patterns/candidates is 1. Readers that compute that precision rely on
	// the field.
	Candidates int `json:"candidates"`
	// Cluster carries the scheduler's attempt/retry and dataset-store
	// accounting for cluster-executed queries (nil otherwise).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the fault-tolerance and dataset-store accounting of one
// cluster-executed query.
type ClusterStats struct {
	// Tasks is the number of per-partition tasks of the job.
	Tasks int `json:"tasks"`
	// Attempts is the number of attempts launched (>= 1); Retries counts
	// relaunches after failures and SpeculativeAttempts counts straggler
	// races.
	Attempts            int `json:"attempts"`
	Retries             int `json:"retries"`
	SpeculativeAttempts int `json:"speculative_attempts"`
	// DeadWorkers is how many pool members were declared dead during the
	// job.
	DeadWorkers int `json:"dead_workers"`
	// StoreHits / StoreMisses / StorePutBytes describe the dataset-store
	// traffic: a resubmission against an already-pushed dataset reports
	// zero misses and zero put bytes.
	StoreHits     int   `json:"store_hits"`
	StoreMisses   int   `json:"store_misses"`
	StorePutBytes int64 `json:"store_put_bytes"`
}

// Execute runs one mining job. The sequential backends (dfs, count) mine the
// whole database once, as in the paper. The distributed backends (dseq,
// dcand, naive, seminaive) partition by pivot item, which mines each pattern
// exactly once, and run on the in-process BSP engine with Workers map/reduce
// workers (or on a worker cluster when opts.Cluster is set).
//
// Cancellation: the job runs in a goroutine and the call returns ctx.Err()
// as soon as the context is done. The BSP engine checks the context between
// map inputs and between reduce groups and stops early; a sequential miner,
// or the input or group in progress, runs to completion in the background
// and its result is dropped.
func Execute(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	return execute(ctx, f, db, sigma, opts, nil)
}

// execute is Execute with a completion hook: onDone (when non-nil) is called
// exactly once, after the mining goroutine has actually finished — even when
// the call itself returned early on context cancellation. Callers use it to
// hold resources (concurrency slots, dataset leases) for the true lifetime
// of the work rather than the lifetime of the request.
func execute(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions, onDone func()) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	fail := func(err error) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
		if onDone != nil {
			onDone()
		}
		return nil, mapreduce.Metrics{}, ExecStats{}, err
	}
	if sigma <= 0 {
		return fail(fmt.Errorf("minimum support must be positive, got %d", sigma))
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	type jobResult struct {
		patterns []miner.Pattern
		metrics  mapreduce.Metrics
		stats    ExecStats
		err      error
	}
	ch := make(chan jobResult, 1)
	go func() {
		var r jobResult
		switch opts.Algorithm {
		case AlgoDFS, AlgoCount:
			if opts.Cluster != nil {
				// Reject rather than silently running locally: the caller
				// asked for cluster execution and would misread the local
				// metrics as cluster metrics.
				r.err = fmt.Errorf("algorithm %q cannot run on a worker cluster (want %s or %s)", opts.Algorithm, AlgoDSeq, AlgoDCand)
			} else {
				r.patterns, r.stats = mineSequential(f, db, sigma, opts), ExecStats{Shards: 1}
			}
		case "", AlgoDSeq, AlgoDCand, AlgoNaive, AlgoSemiNaive:
			if opts.Cluster != nil {
				r.patterns, r.metrics, r.stats, r.err = mineCluster(ctx, db, sigma, opts)
			} else {
				r.patterns, r.metrics, r.stats, r.err = mineDistributed(ctx, f, db, sigma, opts, workers)
			}
		default:
			r.err = fmt.Errorf("unknown algorithm %q", opts.Algorithm)
		}
		r.stats.Candidates = len(r.patterns)
		ch <- r
		if onDone != nil {
			onDone()
		}
	}()
	select {
	case <-ctx.Done():
		return nil, mapreduce.Metrics{}, ExecStats{}, ctx.Err()
	case r := <-ch:
		return r.patterns, r.metrics, r.stats, r.err
	}
}

// mineDistributed runs one of the BSP algorithms whole-database. The context
// is threaded into the engine for cooperative cancellation and trace-span
// recording (the mapreduce.run span and its stage children parent under the
// caller's service.mine span when the context carries a recorder).
func mineDistributed(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions, workers int) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	cfg := mapreduce.Config{
		MapWorkers:    workers,
		ReduceWorkers: workers,
		Shuffle:       opts.shuffleConfig(),
		Context:       ctx,
		Obs:           opts.Obs,
	}
	var (
		patterns []miner.Pattern
		metrics  mapreduce.Metrics
		err      error
	)
	switch opts.Algorithm {
	case "", AlgoDSeq:
		patterns, metrics, err = dseq.MineLocal(f, db.Sequences, sigma, dseq.Options{
			UseGrid:       opts.UseGrid,
			Rewrite:       opts.Rewrite,
			EarlyStopping: opts.EarlyStopping,
			Aggregate:     opts.AggregateSequences,
			Prefilter:     opts.Prefilter,
		}, cfg)
	case AlgoDCand:
		patterns, metrics, err = dcand.MineLocal(f, db.Sequences, sigma, dcand.Options{
			Minimize:  opts.MinimizeNFAs,
			Aggregate: opts.AggregateNFAs,
			Prefilter: opts.Prefilter,
		}, cfg)
	case AlgoNaive:
		patterns, metrics, err = naive.MineLocal(f, db.Sequences, sigma, naive.Naive, naive.Options{Spill: cfg.Shuffle, Prefilter: opts.Prefilter}, cfg)
	case AlgoSemiNaive:
		patterns, metrics, err = naive.MineLocal(f, db.Sequences, sigma, naive.SemiNaive, naive.Options{Spill: cfg.Shuffle, Prefilter: opts.Prefilter}, cfg)
	}
	if err != nil {
		return nil, metrics, ExecStats{}, err
	}
	return patterns, metrics, ExecStats{Shards: 1}, nil
}

// shuffleConfig maps the spill/streaming options to the engine's shuffle
// bounds.
func (o ExecOptions) shuffleConfig() mapreduce.ShuffleConfig {
	var sc mapreduce.ShuffleConfig
	if o.SpillThreshold > 0 {
		sc.SpillThreshold = o.SpillThreshold
	}
	if o.SendBufferBytes > 0 {
		sc.SendBufferBytes = o.SendBufferBytes
		if o.SendBufferMaxBytes > o.SendBufferBytes {
			sc.SendBufferMaxBytes = o.SendBufferMaxBytes
		}
	}
	if sc == (mapreduce.ShuffleConfig{}) {
		return sc
	}
	sc.TmpDir = o.SpillTmpDir
	sc.Compression = o.CompressSpill
	return sc
}

// mineCluster fans a distributed backend out across worker processes: the
// coordinator splits the database over the configured workers, which shuffle
// among themselves over the TCP transport and return their pivot partitions'
// patterns. The merged metrics report real socket traffic as ShuffleBytes.
func mineCluster(ctx context.Context, db *seqdb.Database, sigma int64, opts ExecOptions) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	var algo string
	switch opts.Algorithm {
	case "", AlgoDSeq:
		algo = cluster.AlgoDSeq
	case AlgoDCand:
		algo = cluster.AlgoDCand
	default:
		return nil, mapreduce.Metrics{}, ExecStats{}, fmt.Errorf("algorithm %q cannot run on a worker cluster (want %s or %s)", opts.Algorithm, AlgoDSeq, AlgoDCand)
	}
	if opts.Cluster.Expression == "" {
		return nil, mapreduce.Metrics{}, ExecStats{}, fmt.Errorf("cluster execution requires the pattern expression")
	}
	copts := cluster.Options{
		UseGrid:            opts.UseGrid,
		Rewrite:            opts.Rewrite,
		EarlyStopping:      opts.EarlyStopping,
		AggregateSequences: opts.AggregateSequences,
		MinimizeNFAs:       opts.MinimizeNFAs,
		AggregateNFAs:      opts.AggregateNFAs,
		Prefilter:          opts.Prefilter,
		TaskPartitions:     opts.TaskPartitions,
	}
	if opts.SpillThreshold > 0 {
		copts.SpillThresholdBytes = opts.SpillThreshold
		// SpillTmpDir is deliberately NOT forwarded: it names a path on the
		// daemon's filesystem (often the -spill-dir service default), which
		// is meaningless on remote workers. Left empty in the JobSpec, each
		// worker spills into its own -spill-dir (or system temp dir).
	}
	if opts.SendBufferBytes > 0 {
		copts.SendBufferBytes = opts.SendBufferBytes
		if opts.SendBufferMaxBytes > opts.SendBufferBytes {
			copts.SendBufferMaxBytes = opts.SendBufferMaxBytes
		}
	}
	copts.CompressSpill = opts.CompressSpill
	// Retry/speculation knobs: 0 means "unset" all the way down (Service.Mine
	// resolves it to the daemon default first, which may itself be 0), so the
	// scheduler's built-in budget applies; negative is the explicit "off".
	copts.ApplyRetryKnobs(opts.TaskRetries, opts.SpeculativeAfter)
	coord := &cluster.Coordinator{Workers: opts.Cluster.Workers, Obs: opts.Obs}
	res, err := coord.Mine(ctx, db, opts.Cluster.Expression, sigma, algo, copts)
	if err != nil {
		return nil, mapreduce.Metrics{}, ExecStats{}, err
	}
	stats := ExecStats{
		Shards: len(opts.Cluster.Workers),
		Cluster: &ClusterStats{
			Tasks:               res.Tasks,
			Attempts:            res.Attempts,
			Retries:             res.Retries,
			SpeculativeAttempts: res.SpeculativeAttempts,
			DeadWorkers:         len(res.DeadWorkers),
			StoreHits:           res.StoreHits,
			StoreMisses:         res.StoreMisses,
			StorePutBytes:       res.StorePutBytes,
		},
	}
	return res.Patterns, res.Metrics, stats, nil
}

// mineSequential runs DESQ-DFS or DESQ-COUNT on the whole database.
func mineSequential(f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions) []miner.Pattern {
	seqs := miner.Weighted(db.Sequences)
	if opts.Algorithm == AlgoCount {
		return miner.MineCountOpts(f, seqs, sigma, miner.CountOptions{Prefilter: opts.Prefilter})
	}
	return miner.MineDFS(f, seqs, sigma, miner.DFSOptions{Prefilter: opts.Prefilter})
}
