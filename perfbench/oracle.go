package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/seqdb"
)

// reference is the expected answer of one query, computed in-process with
// unpartitioned miner.MineDFS. D-SEQ, D-CAND and the SON executor are all
// checked against it, so every comparison crosses algorithms.
type reference struct {
	lines []string // canonical (items, freq) lines, sorted

	// proven holds raw "patterns" JSON arrays already decoded and found equal
	// to lines. The daemon's encoding is deterministic, so later responses
	// carrying a byte-identical array are proven by one map lookup instead of
	// a full decode of a megabyte-sized answer.
	proven map[string]struct{}
}

// maxProvenForms bounds the raw forms remembered per query.
const maxProvenForms = 4

func newReference(d *dict.Dictionary, ps []miner.Pattern) *reference {
	lines := make([]string, len(ps))
	for i, p := range ps {
		lines[i] = canonicalLine(d.DecodeSequence(p.Items), p.Freq)
	}
	slices.Sort(lines)
	return &reference{lines: lines, proven: map[string]struct{}{}}
}

// computeReference mines q on db with the sequential DESQ-DFS miner.
func computeReference(db *seqdb.Database, q query) (*reference, error) {
	f, err := fst.Compile(q.Expression, db.Dict)
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", q.Label, err)
	}
	ps := miner.MineDFS(f, miner.Weighted(db.Sequences), q.Sigma, miner.DFSOptions{})
	return newReference(db.Dict, ps), nil
}

func canonicalLine(items []string, freq int64) string {
	return strings.Join(items, "\x1f") + "\x1e" + strconv.FormatInt(freq, 10)
}

// wirePattern mirrors service.MinePattern.
type wirePattern struct {
	Items []string `json:"items"`
	Freq  int64    `json:"freq"`
}

// verify checks one /mine answer against the reference: the status must be
// 200 and the sorted (items, freq) set must equal the reference exactly.
func (r *reference) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	raw, err := patternsJSON(body)
	if err != nil {
		return err
	}
	if _, ok := r.proven[string(raw)]; ok {
		return nil
	}
	var ps []wirePattern
	if err := json.Unmarshal(raw, &ps); err != nil {
		return fmt.Errorf("decoding patterns: %w", err)
	}
	if err := r.compare(ps); err != nil {
		return err
	}
	if len(r.proven) < maxProvenForms {
		r.proven[string(raw)] = struct{}{}
	}
	return nil
}

// patternsJSON returns the raw "patterns" array of a /mine answer. The
// daemon writes it as the first field, followed by "total", and a "total"
// key cannot occur inside the array, so the array is cut out without
// scanning the megabytes of JSON around it. Any other layout falls back to
// a full decode.
func patternsJSON(body []byte) ([]byte, error) {
	const head, tail = `{"patterns":`, `,"total":`
	if bytes.HasPrefix(body, []byte(head)) {
		if i := bytes.Index(body, []byte(tail)); i > 0 {
			return body[len(head):i], nil
		}
	}
	var resp struct {
		Patterns json.RawMessage `json:"patterns"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.Patterns == nil {
		return nil, fmt.Errorf("response has no patterns field")
	}
	return resp.Patterns, nil
}

func (r *reference) compare(ps []wirePattern) error {
	got := make([]string, len(ps))
	for i, p := range ps {
		got[i] = canonicalLine(p.Items, p.Freq)
	}
	slices.Sort(got)
	for i := 0; i < len(got) && i < len(r.lines); i++ {
		if got[i] != r.lines[i] {
			return fmt.Errorf("pattern set differs from the reference at sorted entry %d: got %q, want %q",
				i, readable(got[i]), readable(r.lines[i]))
		}
	}
	if len(got) != len(r.lines) {
		return fmt.Errorf("got %d patterns, reference has %d", len(got), len(r.lines))
	}
	return nil
}

func readable(line string) string {
	return strings.NewReplacer("\x1f", " ", "\x1e", " : ").Replace(line)
}

// compareMined checks an in-process result against the reference.
func (r *reference) compareMined(d *dict.Dictionary, ps []miner.Pattern) error {
	wire := make([]wirePattern, len(ps))
	for i, p := range ps {
		wire[i] = wirePattern{Items: d.DecodeSequence(p.Items), Freq: p.Freq}
	}
	return r.compare(wire)
}
