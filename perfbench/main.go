// Command perfbench is the repository's end-to-end benchmark. For one
// workload it generates the dataset from a seed, starts a seqmined daemon on
// it, drives the daemon over loopback HTTP with a closed-loop client for
// a fixed window, checks every answer against an in-process reference, and
// reports end-to-end metrics measured from outside the daemon. With -trace 1
// it then stops the daemon and replays the workload in-process with
// benchmark-owned spans around each layer's public functions, reporting
// per-layer metrics and writing the spans as a Chrome trace.
//
// Run it through run.sh, which builds it and the daemon first:
//
//	bash perfbench/run.sh --workload loose-dseq --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero when any answer
// differs from the reference or a measurement cannot be taken.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"seqmine/internal/obs"
	"seqmine/internal/seqdb"
)

// setupRuns is how often the daemon is started per run; setup_s is the
// median.
const setupRuns = 9

// warmupQueries is how many full queries run before the window opens.
const warmupQueries = 5

func main() {
	os.Exit(run())
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	work     string
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated dataset")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run the traced per-layer run and report per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/bin/seqmined", "seqmined binary built from this tree")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for datasets, daemon logs and traces")
	flag.Parse()
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func bench(w workload, o options) (*result, error) {
	calBefore := calibrate()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.Name, o.seed, o.seconds, o.trace)
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	dir := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var (
		datasets []dataFiles
		dbs      []*seqdb.Database
	)
	for j := range w.Datasets {
		name := fmt.Sprintf("bench%d", j)
		seed := w.datasetSeed(o.seed, j)
		files, err := writeDataset(w, seed, name, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, files)
		db, err := seqdb.ReadFiles(files.Sequences, files.Hierarchy)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
		st := db.Stats()
		fmt.Printf("dataset %s: %s size=%d datagen_seed=%d sequences=%d items=%d unique=%d hierarchy=%d\n",
			name, w.Dataset, w.Size, seed, st.NumSequences, st.TotalItems, st.UniqueItems, st.HierarchyItems)
	}
	ts, err := targets(w, datasets, dbs)
	if err != nil {
		return nil, err
	}
	for _, t := range ts {
		fmt.Printf("  query %s on %s %q sigma=%d algorithm=%s reference_patterns=%d\n",
			t.q.Label, t.dataset, t.q.Expression, t.q.Sigma, w.Algorithm, len(t.ref.lines))
	}

	m, err := timedRun(w, o, datasets, ts, filepath.Join(dir, "seqmined.log"))
	if err != nil {
		return nil, err
	}

	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		tr, err := runTraced(w, ts)
		if err != nil {
			// A traced answer that differs from the reference is a wrong
			// output, not a failed measurement.
			fmt.Println("traced run failed:", err)
			res.Correct = false
			return res, nil
		}
		for k, v := range tr.metrics {
			m.values[k] = v
		}
		m.values["trace.coverage"] = (medianSpanMS(tr.spans, "fst.Compile") + medianSpanMS(tr.spans, w.algorithmSpan()) +
			medianSpanMS(tr.spans, "http.encode")) / m.values["latency_p50_ms"]
		path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
		if err := writeTrace(path, tr.spans); err != nil {
			return nil, err
		}
		printPerLayer(m.values)
		printSelfTimes(tr.spans)
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	}
	calAfter := calibrate()
	change := (calAfter - calBefore) / calBefore
	note := ""
	if change > noisyCalibration || change < -noisyCalibration {
		note = " NOISY-NEIGHBOUR: machine speed changed during the run"
	}
	fmt.Printf("calibration_ms: before=%.3f after=%.3f change=%+.1f%%%s\n", calBefore, calAfter, 100*change, note)

	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// timedMeasurement is the outcome of the set-up and the timed window.
type timedMeasurement struct {
	values    map[string]float64
	attempted int
	failed    int
}

func timedRun(w workload, o options, datasets []dataFiles, ts []target, logPath string) (*timedMeasurement, error) {
	var (
		d      *daemon
		setups []float64
	)
	for i := range setupRuns {
		dd, took, err := startDaemon(o.daemon, datasets, logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	client := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{DisableCompression: true},
	}
	scraper := &http.Client{Timeout: 10 * time.Second}
	url := "http://" + d.api + "/mine"

	m := &timedMeasurement{values: map[string]float64{}}
	// Warm-up. A query at a threshold above the dataset's size makes the
	// daemon compile and cache the target's FST but leaves it nothing to
	// mine, so every query in the window hits the compile cache without
	// paying a full answer per dataset here. A few full queries then grow
	// the heap to its steady size before the window opens.
	var warmup []target
	for _, t := range ts {
		c, err := t.compileOnly(w.Algorithm)
		if err != nil {
			return nil, err
		}
		warmup = append(warmup, c)
	}
	warmup = append(warmup, ts[:min(len(ts), warmupQueries)]...)
	for _, t := range warmup {
		m.attempted++
		if _, _, err := send(client, url, t); err != nil {
			m.failed++
			fmt.Printf("warm-up %s (sigma %d) on %s failed: %v\n", t.q.Label, t.q.Sigma, t.dataset, err)
		}
	}

	e0, err := d.scrape(scraper)
	if err != nil {
		return nil, err
	}
	lr := runClosedLoop(client, url, ts, time.Duration(o.seconds)*time.Second)
	e1, err := d.scrape(scraper)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.attempted += lr.attempted
	m.failed += lr.failed
	for _, e := range lr.errs {
		fmt.Println("failed query:", e)
	}
	n := len(lr.latencies)
	if n == 0 {
		return nil, fmt.Errorf("no query completed correctly in the window (%d attempted)", lr.attempted)
	}
	v := m.values
	v["setup_s"] = median(setups)
	v["latency_p50_ms"] = ms(percentile(lr.latencies, 0.5))
	v["latency_p90_ms"] = ms(percentile(lr.latencies, 0.9))
	v["throughput_qps"] = float64(n) / lr.elapsed.Seconds()
	v["cpu_ms_per_query"] = float64(e1.cpuTicks-e0.cpuTicks) * 1000 / clockTicksPerSecond / float64(n)
	v["alloc_mb_per_query"] = float64(e1.totalAlloc-e0.totalAlloc) / 1e6 / float64(n)
	v["peak_rss_mb"] = rss

	var stageMS float64
	for _, st := range stages {
		count := e1.stageCount[st] - e0.stageCount[st]
		if count <= 0 {
			return nil, fmt.Errorf("no %q stage observations in the window", st)
		}
		mean := (e1.stageSum[st] - e0.stageSum[st]) / count * 1000
		v["service."+st+"_ms"] = mean
		stageMS += mean
	}
	lookups := float64(e1.cacheHits-e0.cacheHits) + float64(e1.cacheMisses-e0.cacheMisses)
	if lookups <= 0 {
		return nil, fmt.Errorf("no compiled-pattern cache lookups in the window")
	}
	v["service.compile_cache_hit_ratio"] = float64(e1.cacheHits-e0.cacheHits) / lookups
	var sum time.Duration
	for _, l := range lr.latencies {
		sum += l
	}
	v["http.overhead_ms"] = ms(sum)/float64(n) - stageMS
	v["http.response_kb"] = float64(lr.bytes) / float64(n) / 1024

	fmt.Printf("end-to-end: window %.2fs, 1 client, closed loop, %d correct of %d attempted\n",
		lr.elapsed.Seconds(), n, lr.attempted)
	for _, def := range endToEnd {
		note := ""
		switch def.Name {
		case "latency_p50_ms":
			note = fmt.Sprintf("(%d samples)", n)
		case "latency_p90_ms":
			note = fmt.Sprintf("(%d samples, %d beyond)", n, beyond(n, 0.9))
			if beyond(n, 0.9) < 10 {
				note += " WARNING: fewer than 10 samples beyond p90"
			}
		case "setup_s":
			note = fmt.Sprintf("(median of %d daemon starts)", setupRuns)
		}
		fmt.Printf("  %-22s %14.4f %-6s %s\n", def.Name, v[def.Name], def.Unit, note)
	}
	fmt.Printf("  %-22s %14.4f %-6s (%d failed of %d attempted, warm-up included)\n", "error_rate",
		float64(m.failed)/float64(m.attempted), "ratio", m.failed, m.attempted)
	return m, nil
}

func printPerLayer(v map[string]float64) {
	fmt.Println("per-layer:")
	for _, d := range perLayer {
		fmt.Printf("  %-32s %14.4f %-6s moves %s on %s\n", d.Name, v[d.Name], d.Unit, d.Moves, d.On)
	}
}

func printSelfTimes(spans []obs.SpanRecord) {
	fmt.Println("spans (self time = duration minus the time child spans cover):")
	fmt.Printf("  %-36s %6s %12s %14s\n", "span", "count", "median_ms", "self_total_ms")
	for _, s := range spanStats(spans) {
		fmt.Printf("  %-36s %6d %12.3f %14.3f\n", s.Name, s.Count, s.MedianMS, s.SelfMS)
	}
}

func writeTrace(path string, spans []obs.SpanRecord) error {
	buf, err := obs.ChromeTrace(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
