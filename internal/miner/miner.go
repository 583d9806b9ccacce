// Package miner implements the sequential mining algorithms of the DESQ
// framework that the distributed algorithms of the paper build on:
//
//   - MineCount (DESQ-COUNT): enumerate the candidate subsequences of every
//     input sequence and count them. Simple, but exponential in the worst
//     case; used as the reference implementation and by the naive distributed
//     baselines.
//   - MineDFS (DESQ-DFS): pattern-growth mining with projected databases of
//     FST snapshots. This is the local miner used by D-SEQ (Sec. V-C) and the
//     sequential baseline of Table V. It supports pivot-restricted mining and
//     the early-stopping heuristic of the paper.
package miner

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
)

// Pattern is one mined frequent sequence together with its frequency.
type Pattern struct {
	Items []dict.ItemID
	Freq  int64
}

// WeightedSequence is an input sequence with a multiplicity. Plain databases
// use weight 1; aggregated representations (D-CAND NFAs, deduplicated
// rewritten sequences) use larger weights.
type WeightedSequence struct {
	Items  []dict.ItemID
	Weight int64
}

// Weighted wraps a plain database into weight-1 sequences.
func Weighted(db [][]dict.ItemID) []WeightedSequence {
	out := make([]WeightedSequence, len(db))
	for i, s := range db {
		out[i] = WeightedSequence{Items: s, Weight: 1}
	}
	return out
}

// SortPatterns orders patterns by decreasing frequency and then
// lexicographically by items, in place.
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Freq != ps[j].Freq {
			return ps[i].Freq > ps[j].Freq
		}
		return lessSeq(ps[i].Items, ps[j].Items)
	})
}

// PatternsToMap converts patterns into a map keyed by the decoded
// space-separated item names. Mostly useful in tests.
func PatternsToMap(d *dict.Dictionary, ps []Pattern) map[string]int64 {
	out := make(map[string]int64, len(ps))
	for _, p := range ps {
		out[d.DecodeString(p.Items)] = p.Freq
	}
	return out
}

func lessSeq(a, b []dict.ItemID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// CountOptions configures MineCountOpts.
type CountOptions struct {
	// Prefilter enables the two-pass trick: a cheap backward reachability scan
	// (fst.Flat.CanAccept) skips sequences without any accepting run before
	// the full candidate enumeration. Output is identical either way, since
	// such sequences contribute no candidates.
	Prefilter bool
}

// MineCount implements DESQ-COUNT: it enumerates Gσπ(T) for every input
// sequence, sums the weights per candidate, and reports the candidates whose
// support reaches sigma.
func MineCount(f *fst.FST, db []WeightedSequence, sigma int64) []Pattern {
	return MineCountOpts(f, db, sigma, CountOptions{})
}

// MineCountOpts is MineCount with options. The counting loop runs entirely on
// the flat FST form: candidates are enumerated by Flat.ForEachDistinctCandidate
// (scratch-backed, deduplicated per sequence) and aggregated in a pooled
// open-addressing table over interned item slices, so steady-state counting
// allocates only arena growth and the reported patterns.
func MineCountOpts(f *fst.FST, db []WeightedSequence, sigma int64, opts CountOptions) []Pattern {
	fl := f.Flatten()
	tab := candPool.Get().(*candTable)
	tab.reset()
	var weight int64
	add := func(cand []dict.ItemID) bool {
		tab.entries[tab.intern(cand)].count += weight
		return true
	}
	for _, ws := range db {
		if opts.Prefilter && !fl.CanAccept(ws.Items) {
			continue
		}
		weight = ws.Weight
		fl.ForEachDistinctCandidate(ws.Items, sigma, add)
	}
	var out []Pattern
	for i := range tab.entries {
		e := &tab.entries[i]
		if e.count >= sigma {
			items := append([]dict.ItemID(nil), tab.arena[e.off:e.off+e.n]...)
			out = append(out, Pattern{Items: items, Freq: e.count})
		}
	}
	SortPatterns(out)
	candPool.Put(tab)
	return out
}

// candTable is an open-addressing hash table from candidate item sequences to
// weighted counts. Candidates are interned back-to-back in one arena and slots
// hold entry indices, so lookups and counting allocate nothing beyond arena
// growth; keys are hashed with dict.HashItems.
type candTable struct {
	arena   []dict.ItemID
	entries []candEntry
	slots   []int32 // entry index + 1; 0 = empty
}

type candEntry struct {
	off, n int32
	hash   uint64
	count  int64
}

var candPool = sync.Pool{New: func() any { return new(candTable) }}

func (ct *candTable) reset() {
	ct.arena = ct.arena[:0]
	ct.entries = ct.entries[:0]
	if len(ct.slots) == 0 {
		ct.slots = make([]int32, 256)
	} else {
		clear(ct.slots)
	}
}

// intern returns the entry index of cand, inserting a zero-count entry (and
// copying the items into the arena) when absent.
func (ct *candTable) intern(cand []dict.ItemID) int {
	h := dict.HashItems(cand)
	mask := uint64(len(ct.slots) - 1)
	i := h & mask
	for {
		s := ct.slots[i]
		if s == 0 {
			break
		}
		e := &ct.entries[s-1]
		if e.hash == h && slices.Equal(ct.arena[e.off:e.off+e.n], cand) {
			return int(s - 1)
		}
		i = (i + 1) & mask
	}
	idx := len(ct.entries)
	off := int32(len(ct.arena))
	ct.arena = append(ct.arena, cand...)
	ct.entries = append(ct.entries, candEntry{off: off, n: int32(len(cand)), hash: h})
	ct.slots[i] = int32(idx + 1)
	if 4*len(ct.entries) >= 3*len(ct.slots) {
		ct.grow()
	}
	return idx
}

// grow doubles the slot table and reinserts the live entries.
func (ct *candTable) grow() {
	size := 2 * len(ct.slots)
	ct.slots = make([]int32, size)
	mask := uint64(size - 1)
	for idx := range ct.entries {
		i := ct.entries[idx].hash & mask
		for ct.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ct.slots[i] = int32(idx + 1)
	}
}

// DFSOptions configures MineDFS.
type DFSOptions struct {
	// Pivot restricts mining to a partition of item-based partitioning: only
	// expansion items <= Pivot are considered and only patterns that contain
	// Pivot are reported. Zero disables the restriction.
	Pivot dict.ItemID
	// EarlyStopping enables the heuristic of Sec. V-C: input sequences are
	// not used to grow prefixes that do not yet contain the pivot item beyond
	// the last position at which the pivot can still be produced. It has no
	// effect when Pivot is zero.
	EarlyStopping bool
	// Prefilter enables the paper's two-pass trick: a cheap two-row backward
	// reachability scan (fst.Flat.CanAccept) rejects sequences without any
	// accepting run before the per-sequence accept/finish matrices are built.
	// Output is byte-identical either way — such sequences contribute no
	// candidates and no pivots — the pass only avoids the full simulation
	// set-up for them.
	Prefilter bool
}

// MineDFS implements DESQ-DFS, the pattern-growth miner. It reports every
// subsequence S with fπ(S) >= sigma, subject to the pivot restriction in
// opts.
//
// The implementation works entirely on the flattened FST form (fst.Flat):
// per-sequence accept/finish matrices are bitsets, simulation snapshots are
// packed (pos, state) cells in int32 arrays, per-expansion projected databases
// are flat int32 buffers, and all per-call scratch comes from a free list —
// D-SEQ's reducer calls MineDFS once per pivot partition, so steady-state
// mining allocates only the per-sequence matrices and the reported patterns.
func MineDFS(f *fst.FST, db []WeightedSequence, sigma int64, opts DFSOptions) []Pattern {
	fl := f.Flatten()
	d := f.Dict()
	m := &dfsMiner{
		flat:  fl,
		dict:  d,
		db:    db,
		sigma: sigma,
		opts:  opts,
		cache: make([]seqCache, len(db)),
		words: fl.Words(),
	}
	if n := fl.NumStates(); n > 1 {
		m.stateBits = uint(bits.Len(uint(n - 1)))
	}
	// When fids are frequency-ordered (always true for built dictionaries),
	// the frequent-item and pivot checks collapse into one integer compare.
	if d.FrequencySorted() {
		m.useLimit = true
		m.limit = d.MaxFrequentFid(sigma)
		if opts.Pivot != dict.None && opts.Pivot < m.limit {
			m.limit = opts.Pivot
		}
	}
	m.sc = getScratch()
	out := m.run()
	putScratch(m.sc)
	return out
}

// seqCache holds the per-sequence bitset matrices used during mining. Rows are
// words-sized bitsets over states; row i covers the input suffix T[i:].
type seqCache struct {
	accept    []uint64 // accepting-reachable coordinates (any outputs)
	finish    []uint64 // reachable end-of-input via ε-output transitions only
	lastPivot int32    // last position that can produce the pivot item (-1 if none)
	ready     bool
}

// maxStampCells caps the size of the epoch-stamped snapshot-dedup array (16MB
// of uint32 stamps); larger position×state spaces fall back to a hash set.
const maxStampCells = 1 << 22

// dfsScratch is the pooled per-call working memory of the miner: everything
// the expansion loop needs that is not per-sequence or per-output. Slices keep
// their capacity across MineDFS calls; generation counters make stale stamp
// contents harmless.
type dfsScratch struct {
	snapGen   uint32
	snapStamp []uint32           // per-cell generation stamps (snapshot dedup)
	snapSeen  map[int32]struct{} // fallback when the cell space exceeds maxStampCells
	stack     []int32            // DFS traversal stack of cells
	keys      []uint64           // packed (item<<32 | cell) targets of one sequence
	itemGen   uint32
	itemStamp []uint32 // per-item generation; itemSlot valid iff stamp == itemGen
	itemSlot  []int32
	frames    []frame
	rootProj  []int32
	prefix    []dict.ItemID
}

// frame is the per-recursion-depth expansion scratch: the distinct expansion
// items found at this depth and one projected-database buffer per item.
type frame struct {
	order []uint64 // packed (item<<32 | slot), sorted ascending before recursion
	exps  []expBuf
}

// expBuf accumulates the projected database of one expansion item as flat
// int32 records: [seqIdx, snapCount, cell, cell, ...].
type expBuf struct {
	buf      []int32
	lastSeq  int32
	countIdx int32
}

// scratchFree holds at most GOMAXPROCS idle scratches. Unlike a sync.Pool it
// survives garbage collection: a scratch's projected-database buffers grow to
// the size of the largest mining run, and regrowing them after every GC
// dominated the allocation of whole-database runs. A call that finds the list
// empty allocates a fresh scratch; a full list drops the returned one.
var scratchFree = make(chan *dfsScratch, runtime.GOMAXPROCS(0))

func getScratch() *dfsScratch {
	select {
	case sc := <-scratchFree:
		return sc
	default:
		return new(dfsScratch)
	}
}

func putScratch(sc *dfsScratch) {
	select {
	case scratchFree <- sc:
	default:
	}
}

type dfsMiner struct {
	flat  *fst.Flat
	dict  *dict.Dictionary
	db    []WeightedSequence
	sigma int64
	opts  DFSOptions
	cache []seqCache
	out   []Pattern

	words     int         // bitset words per matrix row
	stateBits uint        // cell = pos<<stateBits | state
	limit     dict.ItemID // expansion items must be <= limit (frequency ∧ pivot)
	useLimit  bool

	sc *dfsScratch
}

func (m *dfsMiner) run() []Pattern {
	sc := m.sc
	maxLen := 0
	for i := range m.db {
		if l := len(m.db[i].Items); l > maxLen {
			maxLen = l
		}
	}
	if cells := (maxLen + 1) << m.stateBits; cells <= maxStampCells {
		if len(sc.snapStamp) < cells {
			sc.snapStamp = make([]uint32, cells)
			sc.snapGen = 0
		}
	} else {
		sc.snapStamp = nil
		if sc.snapSeen == nil {
			sc.snapSeen = make(map[int32]struct{})
		}
	}
	if vocab := m.dict.Size() + 1; len(sc.itemStamp) < vocab {
		sc.itemStamp = make([]uint32, vocab)
		sc.itemSlot = make([]int32, vocab)
		sc.itemGen = 0
	}

	sc.rootProj = sc.rootProj[:0]
	initCell := int32(m.flat.Initial()) // pos 0 → cell = state
	initState := m.flat.Initial()
	for i := range m.db {
		T := m.db[i].Items
		if len(T) == 0 {
			continue
		}
		if m.opts.Prefilter && !m.flat.CanAccept(T) {
			continue // sequence has no accepting run at all
		}
		c := m.cacheFor(i)
		if c.accept[initState>>6]&(1<<(uint(initState)&63)) == 0 {
			continue // sequence has no accepting run at all
		}
		sc.rootProj = append(sc.rootProj, int32(i), 1, initCell)
	}
	if m.prefixSupport(sc.rootProj) >= m.sigma {
		m.expand(0, sc.rootProj)
	}
	SortPatterns(m.out)
	return m.out
}

func (m *dfsMiner) cacheFor(i int) *seqCache {
	c := &m.cache[i]
	if c.ready {
		return c
	}
	T := m.db[i].Items
	rows := (len(T) + 1) * m.words
	buf := make([]uint64, 2*rows)
	c.accept = m.flat.AcceptBits(T, buf[:rows])
	c.finish = m.flat.FinishBits(T, buf[rows:])
	c.lastPivot = -1
	if m.opts.Pivot != dict.None {
		c.lastPivot = int32(m.lastPivotPosition(T))
	}
	c.ready = true
	return c
}

// lastPivotPosition returns the last position of T at which some transition
// can output the pivot item (conservatively ignoring states), or -1.
func (m *dfsMiner) lastPivotPosition(T []dict.ItemID) int {
	last := -1
	nt := m.flat.NumTransitions()
	for i, t := range T {
		for tr := 0; tr < nt; tr++ {
			if !m.flat.ProducesOutput(tr) || !m.flat.Matches(tr, t) {
				continue
			}
			single, set := m.flat.OutputsFor(tr, t)
			if single == m.opts.Pivot || containsItem(set, m.opts.Pivot) {
				last = i
				break
			}
		}
	}
	return last
}

// prefixSupport sums the weights of the sequences present in the projected
// database (antimonotone pruning quantity).
func (m *dfsMiner) prefixSupport(proj []int32) int64 {
	var s int64
	for i := 0; i < len(proj); i += 2 + int(proj[i+1]) {
		s += m.db[proj[i]].Weight
	}
	return s
}

// completeSupport sums the weights of sequences for which the current prefix
// is a complete candidate subsequence: some snapshot can reach the end of the
// input in a final state without producing further output.
func (m *dfsMiner) completeSupport(proj []int32) int64 {
	var s int64
	sb := m.stateBits
	mask := int32(1)<<sb - 1
	for i := 0; i < len(proj); {
		seq := proj[i]
		n := int(proj[i+1])
		c := &m.cache[seq]
		for k := 0; k < n; k++ {
			cell := proj[i+2+k]
			pos := int(cell >> sb)
			q := uint(cell & mask)
			if c.finish[pos*m.words+int(q>>6)]&(1<<(q&63)) != 0 {
				s += m.db[seq].Weight
				break
			}
		}
		i += 2 + n
	}
	return s
}

// expandable reports whether output item w may grow the prefix.
func (m *dfsMiner) expandable(w dict.ItemID) bool {
	if m.useLimit {
		return w <= m.limit
	}
	return m.dict.IsFrequent(w, m.sigma) &&
		(m.opts.Pivot == dict.None || w <= m.opts.Pivot)
}

// markSnap records a simulation cell as visited for the current sequence and
// reports whether it was new.
func (m *dfsMiner) markSnap(cell int32) bool {
	sc := m.sc
	if sc.snapStamp != nil {
		if sc.snapStamp[cell] == sc.snapGen {
			return false
		}
		sc.snapStamp[cell] = sc.snapGen
		return true
	}
	if _, ok := sc.snapSeen[cell]; ok {
		return false
	}
	sc.snapSeen[cell] = struct{}{}
	return true
}

// expand recursively grows the prefix (sc.prefix[:depth]) by one output item
// at a time.
func (m *dfsMiner) expand(depth int, proj []int32) {
	sc := m.sc
	prefix := sc.prefix[:depth]

	// Report the prefix if it is a frequent (pivot) sequence.
	if depth > 0 {
		if m.opts.Pivot == dict.None || containsItem(prefix, m.opts.Pivot) {
			if freq := m.completeSupport(proj); freq >= m.sigma {
				m.out = append(m.out, Pattern{Items: append([]dict.ItemID(nil), prefix...), Freq: freq})
			}
		}
	}

	for len(sc.frames) <= depth {
		sc.frames = append(sc.frames, frame{})
	}
	fr := &sc.frames[depth]
	fr.order = fr.order[:0]
	used := int32(0)

	hasPivot := m.opts.Pivot != dict.None && containsItem(prefix, m.opts.Pivot)
	earlyStop := m.opts.EarlyStopping && m.opts.Pivot != dict.None && !hasPivot

	sc.itemGen++
	if sc.itemGen == 0 {
		clear(sc.itemStamp)
		sc.itemGen = 1
	}
	itemGen := sc.itemGen

	sb := m.stateBits
	mask := int32(1)<<sb - 1
	W := m.words

	for pi := 0; pi < len(proj); {
		seq := proj[pi]
		nsn := int(proj[pi+1])
		snaps := proj[pi+2 : pi+2+nsn]
		pi += 2 + nsn

		c := &m.cache[seq]
		T := m.db[seq].Items

		if sc.snapStamp != nil {
			sc.snapGen++
			if sc.snapGen == 0 {
				clear(sc.snapStamp)
				sc.snapGen = 1
			}
		} else {
			clear(sc.snapSeen)
		}
		sc.stack = sc.stack[:0]
		for _, cell := range snaps {
			if earlyStop && c.lastPivot >= 0 && cell>>sb > c.lastPivot {
				continue // this snapshot can no longer produce the pivot
			}
			if m.markSnap(cell) {
				sc.stack = append(sc.stack, cell)
			}
		}

		// Simulate: follow ε-output transitions, collect output targets as
		// packed (item, cell) keys.
		sc.keys = sc.keys[:0]
		for len(sc.stack) > 0 {
			cell := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			pos := int(cell >> sb)
			if pos >= len(T) {
				continue
			}
			q := int(cell & mask)
			t := T[pos]
			nextRow := c.accept[(pos+1)*W:]
			lo, hi := m.flat.TransitionsOf(q)
			for tr := lo; tr < hi; tr++ {
				to := m.flat.To(int(tr))
				if nextRow[uint32(to)>>6]&(1<<(uint32(to)&63)) == 0 {
					continue // target cannot reach acceptance
				}
				if !m.flat.Matches(int(tr), t) {
					continue
				}
				nextCell := int32(pos+1)<<sb | to
				single, set := m.flat.OutputsFor(int(tr), t)
				if single == dict.None && set == nil {
					if m.markSnap(nextCell) {
						sc.stack = append(sc.stack, nextCell)
					}
					continue
				}
				if single != dict.None {
					if m.expandable(single) {
						sc.keys = append(sc.keys, uint64(single)<<32|uint64(uint32(nextCell)))
					}
					continue
				}
				for _, w := range set {
					if m.expandable(w) {
						sc.keys = append(sc.keys, uint64(w)<<32|uint64(uint32(nextCell)))
					}
				}
			}
		}
		if len(sc.keys) == 0 {
			continue
		}

		// Sorting the packed keys both deduplicates (item, cell) targets and
		// hands each expansion its snapshots grouped per item.
		slices.Sort(sc.keys)
		prev := ^uint64(0)
		for _, k := range sc.keys {
			if k == prev {
				continue
			}
			prev = k
			w := dict.ItemID(k >> 32)
			var slot int32
			if sc.itemStamp[w] != itemGen {
				sc.itemStamp[w] = itemGen
				slot = used
				sc.itemSlot[w] = slot
				used++
				fr.order = append(fr.order, uint64(w)<<32|uint64(uint32(slot)))
				for len(fr.exps) <= int(slot) {
					fr.exps = append(fr.exps, expBuf{})
				}
				e := &fr.exps[slot]
				e.buf = e.buf[:0]
				e.lastSeq = -1
			} else {
				slot = sc.itemSlot[w]
			}
			e := &fr.exps[slot]
			if e.lastSeq != seq {
				e.lastSeq = seq
				e.countIdx = int32(len(e.buf) + 1)
				e.buf = append(e.buf, seq, 0)
			}
			e.buf = append(e.buf, int32(uint32(k)))
			e.buf[e.countIdx]++
		}
	}

	// Recurse on sufficiently supported expansions, in ascending item order
	// for deterministic output.
	slices.Sort(fr.order)
	for _, p := range fr.order {
		w := dict.ItemID(p >> 32)
		e := &fr.exps[uint32(p)]
		if m.prefixSupport(e.buf) < m.sigma {
			continue
		}
		sc.prefix = append(sc.prefix[:depth], w)
		m.expand(depth+1, e.buf)
	}
}

func containsItem(seq []dict.ItemID, w dict.ItemID) bool {
	for _, it := range seq {
		if it == w {
			return true
		}
	}
	return false
}
