package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"seqmine/internal/seqdb"
)

// requestTimeout fails a query that has not answered in time.
const requestTimeout = 60 * time.Second

// target is one distinct query of the traffic mix: a query against one
// served dataset, with its request body and expected answer.
type target struct {
	dataset string
	db      *seqdb.Database
	q       query
	body    []byte
	ref     *reference
}

func newTarget(dataset string, db *seqdb.Database, q query, algorithm string, ref *reference) (target, error) {
	body, err := json.Marshal(map[string]any{
		"dataset":   dataset,
		"pattern":   q.Expression,
		"sigma":     q.Sigma,
		"algorithm": algorithm,
	})
	return target{dataset: dataset, db: db, q: q, body: body, ref: ref}, err
}

// targets builds the workload's targets, every query on every dataset in
// that order, computing the references on all CPUs: they are independent
// and, for 32 loose datasets, the longest part of a run's set-up.
func targets(w workload, datasets []dataFiles, dbs []*seqdb.Database) ([]target, error) {
	ts := make([]target, len(dbs)*len(w.Queries))
	errs := make([]error, len(ts))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				db, q := dbs[i/len(w.Queries)], w.Queries[i%len(w.Queries)]
				ref, err := computeReference(db, q)
				if err == nil {
					ts[i], err = newTarget(datasets[i/len(w.Queries)].Name, db, q, w.Algorithm, ref)
				}
				errs[i] = err
			}
		}()
	}
	for i := range ts {
		next <- i
	}
	close(next)
	wg.Wait()
	return ts, errors.Join(errs...)
}

// compileOnly returns t's query at a threshold above the number of input
// sequences, which no pattern can reach: the daemon compiles and caches the
// FST, and the answer must be empty.
func (t target) compileOnly(algorithm string) (target, error) {
	q := t.q
	q.Sigma = int64(t.db.NumSequences()) + 1
	return newTarget(t.dataset, t.db, q, algorithm, newReference(t.db.Dict, nil))
}

// loopResult is the outcome of a closed-loop run.
type loopResult struct {
	latencies []time.Duration // of correct answers, send to last body byte
	bytes     int64           // response bytes of correct answers
	attempted int
	failed    int
	errs      []string // first few failure reasons
	elapsed   time.Duration
}

// runClosedLoop drives the /mine endpoint at url for d with one client,
// which sends its next query only after the previous answer has arrived and
// been checked, taking queries from the targets round-robin. One client
// keeps the daemon's workers and the client within the host's two CPUs; a
// second client made the run measure the scheduler. A query fails on a
// transport error or timeout, a non-200 status, or an answer that differs
// from the reference.
func runClosedLoop(c *http.Client, url string, ts []target, d time.Duration) loopResult {
	var r loopResult
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t := ts[i%len(ts)]
		r.attempted++
		lat, n, err := send(c, url, t)
		if err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, fmt.Sprintf("%s on %s: %v", t.q.Label, t.dataset, err))
			}
			continue
		}
		r.latencies = append(r.latencies, lat)
		r.bytes += int64(n)
	}
	r.elapsed = time.Since(start)
	return r
}

// send posts one query and checks the answer; the latency covers sending
// the request until the last body byte has arrived, not the check.
func send(c *http.Client, url string, t target) (time.Duration, int, error) {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(t.body))
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if err := t.ref.verify(resp.StatusCode, body); err != nil {
		return 0, 0, err
	}
	return lat, len(body), nil
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// beyond returns how many of n samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}
