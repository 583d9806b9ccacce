package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/pivot"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
)

// tracedReplays is how often the traced run replays each distinct query
// through the probes of the layers the workload's traffic reaches. Probes of
// layers it does not reach (see workload.native) run once per query, so that
// every per-layer metric exists on every workload.
const tracedReplays = 3

// tracedWorkers is the worker count of the multi-threaded probes, matching
// the daemon's default on the 2-CPU hosts the bounds were sized on.
const tracedWorkers = 2

// tracedTargets caps how many of the workload's targets the traced run
// replays: all five text queries, or the loose query on the first five
// datasets. Per-layer figures are means over targets, so replaying all
// 32 loose datasets would lengthen the run without changing what it
// shows.
const tracedTargets = 5

// The probes that not every workload's traffic reaches. fst.Compile,
// miner.MineDFS and the response encode run on every replay everywhere.
const (
	probePivot      = "pivot"
	probePartitions = "partitions"
	probeDSeq       = "dseq"
	probeDCand      = "dcand"
	probeSON        = "son"
)

// native lists the optional probes of the layers a workload's traffic
// reaches.
func (w workload) native() []string {
	switch w.Algorithm {
	case "dseq":
		return []string{probePivot, probePartitions, probeDSeq}
	case "dcand":
		return []string{probePivot, probeDCand}
	default:
		return []string{probeSON}
	}
}

// mapReduceProbe is the distributed algorithm whose mapreduce.Metrics give
// the workload's mapreduce.* figures: its own algorithm, or D-SEQ, the
// daemon's default, for a workload that never reaches mapreduce.
func (w workload) mapReduceProbe() string {
	if w.Algorithm == "dcand" {
		return probeDCand
	}
	return probeDSeq
}

// algorithmSpan names the span of the workload's own algorithm call, the
// one trace.coverage counts.
func (w workload) algorithmSpan() string {
	switch w.Algorithm {
	case "dseq", "dcand":
		return w.Algorithm + ".MineLocal"
	default:
		return "service.Execute"
	}
}

// tracedResult holds the traced run's per-layer figures and its spans.
type tracedResult struct {
	metrics map[string]float64
	spans   []obs.SpanRecord
}

// tracer accumulates per-target samples: metric -> target index -> replays.
type tracer struct {
	samples map[string]map[int][]float64
}

func (t *tracer) add(metric string, q int, v float64) {
	if t.samples[metric] == nil {
		t.samples[metric] = map[int][]float64{}
	}
	t.samples[metric][q] = append(t.samples[metric][q], v)
}

// value is the mean over targets of each target's median over replays.
func (t *tracer) value(metric string) float64 {
	byTarget := t.samples[metric]
	sum := 0.0
	for _, vs := range byTarget {
		sum += median(vs)
	}
	return sum / float64(len(byTarget))
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timed runs fn inside a benchmark-owned child span of ctx and attaches the
// heap allocations fn made. The layers themselves get recorder-free
// contexts, so only these spans are recorded. fn may record derived child
// spans under the context it is given.
func timed(ctx context.Context, name string, fn func(ctx context.Context) []obs.Attr) (time.Duration, float64) {
	runtime.GC() // start every probe from a collected heap
	ctx, sp := obs.StartSpan(ctx, name)
	m0 := mallocs()
	start := time.Now()
	attrs := fn(ctx)
	d := time.Since(start)
	n := mallocs() - m0
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	sp.SetAttrInt("allocs", int64(n))
	sp.End()
	return d, float64(n)
}

// runTraced replays the workload's targets in-process and measures each
// layer through its public functions.
func runTraced(w workload, ts []target) (*tracedResult, error) {
	rec := obs.NewRecorder("perfbench", 0)
	t := &tracer{samples: map[string]map[int][]float64{}}
	var traces []obs.TraceID
	native := w.native()
	ts = ts[:min(len(ts), tracedTargets)]
	for replay := range tracedReplays {
		for i, tg := range ts {
			run := func(probe string) bool { return replay == 0 || slices.Contains(native, probe) }
			ctx, root := obs.StartSpan(obs.WithRecorder(context.Background(), rec), "query",
				obs.String("query", tg.q.Label), obs.String("dataset", tg.dataset), obs.Int("replay", int64(replay)))
			traces = append(traces, root.TraceID())
			err := tracedQuery(ctx, t, w, run, tg.db, i, tg.q, tg.ref)
			root.End()
			if err != nil {
				return nil, fmt.Errorf("traced %s on %s: %w", tg.q.Label, tg.dataset, err)
			}
		}
	}
	res := &tracedResult{metrics: map[string]float64{}}
	for metric := range t.samples {
		res.metrics[metric] = t.value(metric)
	}
	for _, id := range traces {
		res.spans = append(res.spans, rec.TraceSpans(id)...)
	}
	return res, nil
}

func tracedQuery(ctx context.Context, t *tracer, w workload, run func(string) bool,
	db *seqdb.Database, qi int, q query, ref *reference) error {
	// fst: cold compile. The daemon caches compiled FSTs, so this cost
	// reaches only the first query of each expression.
	var (
		f          *fst.FST
		compileErr error
	)
	d, _ := timed(ctx, "fst.Compile", func(context.Context) []obs.Attr {
		f, compileErr = fst.Compile(q.Expression, db.Dict)
		if compileErr != nil {
			return nil
		}
		return []obs.Attr{obs.Int("states", int64(f.NumStates())), obs.Int("transitions", int64(f.NumTransitions()))}
	})
	if compileErr != nil {
		return compileErr
	}
	t.add("fst.compile_ms", qi, ms(d))
	t.add("fst.states", qi, float64(f.NumStates()))
	t.add("fst.transitions", qi, float64(f.NumTransitions()))
	// The daemon flattens a cached FST once; do it outside the probes.
	f.Flatten()

	var groups map[dict.ItemID][]miner.WeightedSequence
	if run(probePivot) || run(probePartitions) {
		groups = pivotProbe(ctx, t, db, f, qi, q)
	}
	if run(probePartitions) {
		if err := partitionProbe(ctx, t, db, f, qi, q, ref, groups); err != nil {
			return err
		}
	}

	// miner: the unpartitioned sequential baseline, whose answer the
	// encode probe serializes.
	var patterns []miner.Pattern
	d, allocs := timed(ctx, "miner.MineDFS", func(context.Context) []obs.Attr {
		patterns = miner.MineDFS(f, miner.Weighted(db.Sequences), q.Sigma, miner.DFSOptions{})
		return []obs.Attr{obs.Int("patterns", int64(len(patterns)))}
	})
	t.add("miner.dfs_ms", qi, ms(d))
	t.add("miner.dfs_allocs", qi, allocs)

	mrCfg := mapreduce.Config{MapWorkers: tracedWorkers, ReduceWorkers: tracedWorkers, Context: context.Background()}
	for _, algo := range []string{probeDSeq, probeDCand} {
		if !run(algo) {
			continue
		}
		var (
			ps  []miner.Pattern
			m   mapreduce.Metrics
			err error
		)
		name := algo + ".MineLocal"
		_, allocs := timed(ctx, name, func(ctx context.Context) []obs.Attr {
			start := time.Now()
			if algo == probeDSeq {
				ps, m, err = dseq.MineLocal(f, db.Sequences, q.Sigma, dseq.DefaultOptions(), mrCfg)
			} else {
				ps, m, err = dcand.MineLocal(f, db.Sequences, q.Sigma, dcand.DefaultOptions(), mrCfg)
			}
			// Barrier mode: map, then reduce, which contains the shuffle.
			obs.Observe(ctx, "mapreduce.map", start, m.MapTime)
			obs.Observe(ctx, "mapreduce.reduce", start.Add(m.MapTime), m.ReduceTime)
			obs.Observe(ctx, "mapreduce.shuffle", start.Add(m.MapTime), m.ShuffleTime)
			return []obs.Attr{
				obs.Int("map_records", m.MapOutputRecords), obs.Int("shuffle_records", m.ShuffleRecords),
				obs.Int("shuffle_bytes", m.ShuffleBytes), obs.Int("partitions", m.Partitions),
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := ref.compareMined(db.Dict, ps); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if algo == probeDCand && m.ShuffleRecords > 0 {
			t.add("nfa.bytes_per_record", qi, float64(m.ShuffleBytes)/float64(m.ShuffleRecords))
		}
		if algo == w.mapReduceProbe() {
			addMapReduce(t, qi, m, allocs)
		}
	}

	if run(probeSON) {
		var (
			ps    []miner.Pattern
			stats service.ExecStats
			err   error
		)
		opts := service.DefaultExecOptions()
		opts.Algorithm = service.AlgoDFS
		opts.Workers = tracedWorkers
		d, _ := timed(ctx, "service.Execute", func(context.Context) []obs.Attr {
			ps, _, stats, err = service.Execute(context.Background(), f, db, q.Sigma, opts)
			return []obs.Attr{obs.Int("candidates", int64(stats.Candidates)), obs.Int("patterns", int64(len(ps)))}
		})
		if err != nil {
			return fmt.Errorf("service.Execute: %w", err)
		}
		if err := ref.compareMined(db.Dict, ps); err != nil {
			return fmt.Errorf("service.Execute: %w", err)
		}
		t.add("service.execute_ms", qi, ms(d))
		t.add("service.son_candidates", qi, float64(stats.Candidates))
		if stats.Candidates > 0 {
			t.add("service.son_precision", qi, float64(len(ps))/float64(stats.Candidates))
		}
	}

	var encErr error
	d, allocs = timed(ctx, "http.encode", func(context.Context) []obs.Attr {
		encErr = encodeResponse(db.Dict, patterns)
		return nil
	})
	if encErr != nil {
		return encErr
	}
	t.add("http.encode_ms", qi, ms(d))
	t.add("http.encode_allocs", qi, allocs)
	return nil
}

// encodeResponse does what the /mine handler does with an answer: decode
// the items to names and JSON-encode a service.MineResponse with HTML
// escaping off.
func encodeResponse(d *dict.Dictionary, ps []miner.Pattern) error {
	out := service.MineResponse{Total: len(ps), Patterns: make([]service.MinePattern, len(ps))}
	for i, p := range ps {
		out.Patterns[i] = service.MinePattern{Items: d.DecodeSequence(p.Items), Freq: p.Freq}
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}

func addMapReduce(t *tracer, qi int, m mapreduce.Metrics, allocs float64) {
	t.add("mapreduce.map_ms", qi, ms(m.MapTime))
	t.add("mapreduce.shuffle_ms", qi, ms(m.ShuffleTime))
	t.add("mapreduce.reduce_ms", qi, ms(m.ReduceTime))
	t.add("mapreduce.map_records", qi, float64(m.MapOutputRecords))
	t.add("mapreduce.shuffle_records", qi, float64(m.ShuffleRecords))
	if m.MapOutputRecords > 0 {
		t.add("mapreduce.combine_ratio", qi, float64(m.ShuffleRecords)/float64(m.MapOutputRecords))
	}
	t.add("mapreduce.shuffle_kb", qi, float64(m.ShuffleBytes)/1024)
	t.add("mapreduce.partitions", qi, float64(m.Partitions))
	if m.ShuffleRecords > 0 {
		t.add("mapreduce.max_partition_share", qi, float64(m.MaxPartitionRecords)/float64(m.ShuffleRecords))
	}
	t.add("mapreduce.allocs", qi, allocs)
}

// pivotProbe runs D-SEQ's map-side pivot search single-threaded over every
// input sequence and returns the rewritten sequences grouped by pivot,
// aggregated like D-SEQ's combiner.
func pivotProbe(ctx context.Context, t *tracer, db *seqdb.Database, f *fst.FST, qi int, q query) map[dict.ItemID][]miner.WeightedSequence {
	s := pivot.NewSearcher(f, q.Sigma, pivot.DefaultOptions())
	analyses := make([]*pivot.Analysis, len(db.Sequences))
	pivots, hits := 0, 0
	dA, allocsA := timed(ctx, "pivot.Analyze", func(context.Context) []obs.Attr {
		for i, T := range db.Sequences {
			analyses[i] = s.Analyze(T)
		}
		return nil
	})
	for _, a := range analyses {
		pivots += len(a.Pivots)
		if len(a.Pivots) > 0 {
			hits++
		}
	}
	type routed struct {
		k   dict.ItemID
		rho []dict.ItemID
	}
	out := make([]routed, 0, pivots)
	dR, allocsR := timed(ctx, "pivot.Rewrite", func(context.Context) []obs.Attr {
		for i, T := range db.Sequences {
			for _, k := range analyses[i].Pivots {
				out = append(out, routed{k, s.Rewrite(T, analyses[i], k)})
			}
		}
		return []obs.Attr{obs.Int("pivots", int64(pivots))}
	})
	n := float64(len(db.Sequences))
	t.add("pivot.analyze_ms", qi, ms(dA))
	t.add("pivot.rewrite_ms", qi, ms(dR))
	t.add("pivot.allocs", qi, allocsA+allocsR)
	t.add("pivot.pivots_per_seq", qi, float64(pivots)/n)
	t.add("pivot.hit_ratio", qi, float64(hits)/n)

	groups := map[dict.ItemID][]miner.WeightedSequence{}
	index := map[dict.ItemID]map[string]int{}
	for _, r := range out {
		if index[r.k] == nil {
			index[r.k] = map[string]int{}
		}
		key := dict.PackKey(r.rho)
		if j, ok := index[r.k][key]; ok {
			groups[r.k][j].Weight++
			continue
		}
		index[r.k][key] = len(groups[r.k])
		groups[r.k] = append(groups[r.k], miner.WeightedSequence{Items: r.rho, Weight: 1})
	}
	return groups
}

// partitionProbe mines every pivot group single-threaded with D-SEQ's
// reduce-side options and checks that the union equals the reference.
func partitionProbe(ctx context.Context, t *tracer, db *seqdb.Database, f *fst.FST, qi int, q query,
	ref *reference, groups map[dict.ItemID][]miner.WeightedSequence) error {
	keys := make([]dict.ItemID, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var (
		union   []miner.Pattern
		slowest time.Duration
	)
	d, allocs := timed(ctx, "miner.MineDFS/partitions", func(context.Context) []obs.Attr {
		for _, k := range keys {
			start := time.Now()
			ps := miner.MineDFS(f, groups[k], q.Sigma, miner.DFSOptions{Pivot: k, EarlyStopping: true})
			slowest = max(slowest, time.Since(start))
			union = append(union, ps...)
		}
		return []obs.Attr{obs.Int("partitions", int64(len(keys))), obs.String("max_ms", strconv.FormatFloat(ms(slowest), 'f', 3, 64))}
	})
	if err := ref.compareMined(db.Dict, union); err != nil {
		return fmt.Errorf("union of pivot partitions: %w", err)
	}
	t.add("miner.partition_ms", qi, ms(d))
	t.add("miner.partition_max_ms", qi, ms(slowest))
	t.add("miner.partition_allocs", qi, allocs)
	return nil
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Name     string
	Count    int
	MedianMS float64
	SelfMS   float64 // total self time
}

// spanStats computes per-name counts, median durations and total self time,
// where a span's self time is its duration minus the part of it that its
// child spans cover. Spans below a layer call are named after their parent,
// as in "dcand.MineLocal > mapreduce.reduce".
func spanStats(spans []obs.SpanRecord) []spanStat {
	children := map[obs.SpanID][]obs.SpanRecord{}
	names := map[obs.SpanID]string{}
	for _, s := range spans {
		names[s.Span] = s.Name
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	for _, s := range spans {
		name := s.Name
		if p := names[s.Parent]; p != "" && p != "query" {
			name = p + " > " + name
		}
		durs[name] = append(durs[name], float64(s.DurationNS)/1e6)
		self[name] += float64(s.DurationNS-covered(s, children[s.Span])) / 1e6
	}
	out := make([]spanStat, 0, len(durs))
	for name, ds := range durs {
		out = append(out, spanStat{Name: name, Count: len(ds), MedianMS: median(ds), SelfMS: self[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	lo, hi := parent.StartUnixNS, parent.StartUnixNS+parent.DurationNS
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUnixNS, lo), min(k.StartUnixNS+k.DurationNS, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// medianSpanMS is the median duration of the spans named name.
func medianSpanMS(spans []obs.SpanRecord, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.DurationNS)/1e6)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}
