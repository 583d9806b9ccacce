package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"seqmine/internal/seqdb"
)

// ErrUnknownDataset is returned (wrapped) when a named dataset is not
// registered; check with errors.Is.
var ErrUnknownDataset = errors.New("unknown dataset")

// Registry holds named sequence databases for the mining service. It is safe
// for concurrent use: any number of queries may hold a dataset while others
// register, replace or unregister datasets. Replacing or unregistering a
// dataset never disturbs in-flight queries — they keep the handle they
// acquired; the old database is garbage collected once the last holder
// releases it.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*datasetEntry
	nextGen atomic.Uint64
}

type datasetEntry struct {
	name  string
	gen   uint64
	owner string // tenant that registered the dataset ("" = anonymous/admin)
	db    *seqdb.Database
	stats seqdb.Stats  // computed once at registration; the database is immutable
	refs  atomic.Int64 // active queries holding this entry
}

// Dataset is a leased reference to a registered database. Callers must call
// Release exactly once when done.
type Dataset struct {
	Name string
	// Gen is the registration generation, unique per Register call. It keys
	// compiled-pattern cache entries so that replacing a dataset under the
	// same name cannot serve stale FSTs.
	Gen uint64
	DB  *seqdb.Database

	entry    *datasetEntry
	released atomic.Bool
}

// Release returns the lease. Releasing twice is a no-op.
func (d *Dataset) Release() {
	if d.entry != nil && d.released.CompareAndSwap(false, true) {
		d.entry.refs.Add(-1)
	}
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name          string      `json:"name"`
	Generation    uint64      `json:"generation"`
	ActiveQueries int64       `json:"active_queries"`
	Stats         seqdb.Stats `json:"stats"`
	// Tenant is the owner recorded at registration ("" for datasets loaded
	// by the daemon itself or registered without authentication).
	Tenant string `json:"tenant,omitempty"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*datasetEntry)}
}

// Register adds (or replaces) a database under the given name and returns its
// generation number.
func (r *Registry) Register(name string, db *seqdb.Database) (uint64, error) {
	return r.RegisterOwned(name, db, "")
}

// RegisterOwned is Register with an owning tenant recorded for quota
// accounting and deletion policy.
func (r *Registry) RegisterOwned(name string, db *seqdb.Database, owner string) (uint64, error) {
	if name == "" {
		return 0, fmt.Errorf("dataset name must not be empty")
	}
	if db == nil {
		return 0, fmt.Errorf("dataset %q: database must not be nil", name)
	}
	gen := r.nextGen.Add(1)
	e := &datasetEntry{name: name, gen: gen, owner: owner, db: db, stats: db.Stats()}
	r.mu.Lock()
	r.entries[name] = e
	r.mu.Unlock()
	return gen, nil
}

// Owner returns the owning tenant of a dataset and whether it is registered.
func (r *Registry) Owner(name string) (string, bool) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return "", false
	}
	return e.owner, true
}

// CountOwned returns how many datasets the tenant currently owns.
func (r *Registry) CountOwned(owner string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if e.owner == owner {
			n++
		}
	}
	return n
}

// Acquire leases the named dataset for the duration of a query.
func (r *Registry) Acquire(name string) (*Dataset, error) {
	r.mu.RLock()
	e := r.entries[name]
	if e != nil {
		// Take the reference under the read lock so Unregister observing
		// refs cannot race past an acquisition in progress.
		e.refs.Add(1)
	}
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return &Dataset{Name: e.name, Gen: e.gen, DB: e.db, entry: e}, nil
}

// Unregister removes the named dataset. In-flight queries holding a lease are
// unaffected. It reports whether the dataset existed.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	r.mu.Unlock()
	return ok
}

// List describes all registered datasets, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	entries := make([]*datasetEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]DatasetInfo, len(entries))
	for i, e := range entries {
		out[i] = DatasetInfo{
			Name:          e.name,
			Generation:    e.gen,
			ActiveQueries: e.refs.Load(),
			Stats:         e.stats,
			Tenant:        e.owner,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
