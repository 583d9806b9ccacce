package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"seqmine/internal/obs"
	"seqmine/internal/paperex"
	"seqmine/internal/seqdb"
)

// exampleTarget is the paper's running example as a benchmark query: its
// reference answer is a1 b:3, a1 A b:2, a1 a1 b:2.
func exampleTarget(t *testing.T) target {
	t.Helper()
	db, err := seqdb.Build(paperex.RawDB(), seqdb.Hierarchy{"a1": {"A"}, "a2": {"A"}})
	if err != nil {
		t.Fatal(err)
	}
	q := query{Label: "example", Expression: paperex.PatternExpression, Sigma: paperex.Sigma}
	ref, err := computeReference(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.lines) != len(paperex.ExpectedFrequent()) {
		t.Fatalf("reference has %d patterns, want %d", len(ref.lines), len(paperex.ExpectedFrequent()))
	}
	tgt, err := newTarget("example", db, q, "dfs", ref)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestClosedLoopCountsWrongAnswers(t *testing.T) {
	const (
		correct     = `{"patterns":[{"items":["a1","b"],"freq":3},{"items":["a1","A","b"],"freq":2},{"items":["a1","a1","b"],"freq":2}],"total":3}`
		reordered   = `{"patterns":[{"items":["a1","a1","b"],"freq":2},{"items":["a1","b"],"freq":3},{"items":["a1","A","b"],"freq":2}],"total":3}`
		changedFreq = `{"patterns":[{"items":["a1","b"],"freq":3},{"items":["a1","A","b"],"freq":2},{"items":["a1","a1","b"],"freq":1}],"total":3}`
		missing     = `{"patterns":[{"items":["a1","b"],"freq":3},{"items":["a1","A","b"],"freq":2}],"total":2}`
		// Another field order takes the full-decode path.
		otherOrder = `{"total":3,"patterns":[{"items":["a1","b"],"freq":3},{"items":["a1","A","b"],"freq":2},{"items":["a1","a1","b"],"freq":2}]}`
		otherWrong = `{"total":3,"patterns":[{"items":["a1","b"],"freq":3},{"items":["a1","A","b"],"freq":2},{"items":["a1","a1","b"],"freq":1}]}`
	)
	tgt := exampleTarget(t)
	for _, tc := range []struct {
		name      string
		status    int
		body      string
		wantWrong bool
	}{
		{"correct", http.StatusOK, correct, false},
		{"reordered", http.StatusOK, reordered, false},
		{"one frequency changed", http.StatusOK, changedFreq, true},
		{"pattern missing", http.StatusOK, missing, true},
		{"other field order", http.StatusOK, otherOrder, false},
		{"other field order, frequency changed", http.StatusOK, otherWrong, true},
		{"not JSON", http.StatusOK, `{"patterns":[`, true},
		{"server error", http.StatusInternalServerError, `{"error":"boom"}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			// A fresh reference per case: proven raw forms must not leak
			// between cases.
			tgt := tgt
			tgt.ref = &reference{lines: tgt.ref.lines, proven: map[string]struct{}{}}
			res := runClosedLoop(srv.Client(), srv.URL+"/mine", []target{tgt}, 50*time.Millisecond)
			if res.attempted == 0 {
				t.Fatal("no query attempted")
			}
			wantFailed := 0
			if tc.wantWrong {
				wantFailed = res.attempted
			}
			if res.failed != wantFailed {
				t.Fatalf("failed = %d of %d attempted, want %d (errors %v)", res.failed, res.attempted, wantFailed, res.errs)
			}
			if len(res.latencies) != res.attempted-res.failed {
				t.Fatalf("%d latencies recorded for %d correct answers", len(res.latencies), res.attempted-res.failed)
			}
		})
	}
}

func TestScrapeParsersRejectMissingSeries(t *testing.T) {
	profile := []byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 10\n# TotalAlloc = 12345\n# Mallocs = 67\n")
	if v, err := memStat(profile, "TotalAlloc"); err != nil || v != 12345 {
		t.Fatalf("memStat(TotalAlloc) = %d, %v", v, err)
	}
	if _, err := memStat(profile, "Frees"); err == nil {
		t.Fatal("memStat of a missing line returned no error")
	}
	series := parseExposition([]byte("# TYPE seqmine_query_stage_seconds histogram\n" +
		`seqmine_query_stage_seconds_sum{stage="mine"} 1.5` + "\n" +
		`seqmine_query_stage_seconds_count{stage="mine"} 3` + "\n"))
	if v := series[`seqmine_query_stage_seconds_sum{stage="mine"}`]; v != 1.5 {
		t.Fatalf("sum = %v, want 1.5", v)
	}
	if _, ok := series[`seqmine_query_stage_seconds_sum{stage="queue"}`]; ok {
		t.Fatal("a series absent from the exposition was found")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []obs.SpanRecord{
		{Span: "p", Name: "parent", StartUnixNS: 0, DurationNS: 100 * ms},
		// Overlapping children cover [10,50]; one sticks out past the parent.
		{Span: "a", Parent: "p", Name: "child", StartUnixNS: 10 * ms, DurationNS: 30 * ms},
		{Span: "b", Parent: "p", Name: "child", StartUnixNS: 20 * ms, DurationNS: 30 * ms},
		{Span: "c", Parent: "p", Name: "child", StartUnixNS: 90 * ms, DurationNS: 30 * ms},
	}
	for _, s := range spanStats(spans) {
		if s.Name == "parent" && s.SelfMS != 50 {
			t.Fatalf("parent self time = %v ms, want 50", s.SelfMS)
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if kind == "end_to_end" && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound differs from the program's %v", d.Name, d.Bound)
			}
			if kind == "per_layer" && (d.Moves == "" || d.On == "") {
				t.Errorf("%s: no end-to-end metric or workload recorded", d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
