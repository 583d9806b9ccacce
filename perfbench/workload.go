package main

import (
	"fmt"
	"os"
	"path/filepath"

	"seqmine/internal/datagen"
	"seqmine/internal/seqdb"
)

// query is one distinct /mine request of a workload's traffic mix.
type query struct {
	Label      string
	Expression string
	Sigma      int64
}

// workload is one traffic mix against one generated dataset.
type workload struct {
	Name    string
	Why     string
	Dataset string // "amzn-f" or "nyt"
	Size    int    // customers or sentences
	// Datasets is how many independently seeded datasets of Size the
	// daemon serves; queries go to them round-robin. On AMZN-F-like data
	// the mining work of one 800-customer dataset varies by about ±15%
	// between seeds, with a heavy tail (about one seed in twenty needs twice
	// the median work), driven by a few long sequences. Averaging over 32
	// datasets per run cuts that spread to under a fifth without making a
	// query slower.
	Datasets  int
	Algorithm string  // the /mine "algorithm" field
	Queries   []query // sent round-robin
}

// The expressions and thresholds are Table III's, with σ scaled to the
// dataset sizes below the same way internal/experiments scales them. They
// are pinned here rather than imported so that a change to the experiment
// harness cannot silently change what this benchmark measures.
var (
	t3Loose  = query{Label: "T3(3,1,5)", Expression: ".*(.^)[.{0,1}(.^)]{1,4}.*", Sigma: 3}
	nQueries = []query{
		{Label: "N1(3)", Expression: ".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*", Sigma: 3},
		{Label: "N2(6)", Expression: ".*(ENTITY^ VERB+ NOUN+? PREP? ENTITY^).*", Sigma: 6},
		{Label: "N3(3)", Expression: ".*(ENTITY^ be^=) DET? (ADV? ADJ? NOUN).*", Sigma: 3},
		{Label: "N4(30)", Expression: ".*(.^){3} NOUN.*", Sigma: 30},
		{Label: "N5(30)", Expression: ".*([.^. .]|[. .^.]|[. . .^]).*", Sigma: 30},
	}
)

var workloads = []workload{
	{
		Name:      "loose-dseq",
		Why:       "Loose LASH constraint T3 on AMZN-F-like data through D-SEQ: reduce-side miner.MineDFS over the pivot partitions does most of the work.",
		Dataset:   "amzn-f",
		Size:      800,
		Datasets:  32,
		Algorithm: "dseq",
		Queries:   []query{t3Loose},
	},
	{
		Name:      "loose-dcand",
		Why:       "The same data and query through D-CAND: NFA build/minimize and NFA mining do the work and miner does none, so an NFA change moves this and leaves loose-dseq flat.",
		Dataset:   "amzn-f",
		Size:      800,
		Datasets:  32,
		Algorithm: "dcand",
		Queries:   []query{t3Loose},
	},
	{
		Name:      "text-dfs",
		Why:       "Selective N1-N5 on NYT-like text through the SON sharded DESQ-DFS executor, 1 client: small answers, no mapreduce, miner on whole shards.",
		Dataset:   "nyt",
		Size:      6000,
		Datasets:  1,
		Algorithm: "dfs",
		Queries:   nQueries,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dataFiles are the sequence and hierarchy files one dataset was written to;
// the daemon loads them with -load under Name, and the in-process oracle and
// traced run read them back through the same seqdb.ReadFiles path.
type dataFiles struct {
	Name      string
	Sequences string
	Hierarchy string
}

// datasetSeed is the datagen seed of the workload's j-th dataset for the
// benchmark seed: distinct for every (seed, j) pair.
func (w workload) datasetSeed(seed int64, j int) int64 {
	return seed*int64(w.Datasets) + int64(j)
}

// writeDataset generates one dataset of the workload from seed with
// internal/datagen and writes it under dir.
func writeDataset(w workload, seed int64, name, dir string) (dataFiles, error) {
	var (
		raw [][]string
		h   seqdb.Hierarchy
	)
	switch w.Dataset {
	case "amzn-f":
		raw, h = datagen.AmazonRaw(datagen.AmazonConfig{NumCustomers: w.Size, Seed: seed, Forest: true})
	case "nyt":
		raw, h = datagen.NYTRaw(datagen.NYTConfig{NumSentences: w.Size, Seed: seed})
	default:
		return dataFiles{}, fmt.Errorf("unknown dataset %q", w.Dataset)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return dataFiles{}, err
	}
	files := dataFiles{
		Name:      name,
		Sequences: filepath.Join(dir, "sequences.txt"),
		Hierarchy: filepath.Join(dir, "hierarchy.txt"),
	}
	if err := writeFile(files.Sequences, func(f *os.File) error { return seqdb.WriteSequences(f, raw) }); err != nil {
		return dataFiles{}, err
	}
	if err := writeFile(files.Hierarchy, func(f *os.File) error { return seqdb.WriteHierarchy(f, h) }); err != nil {
		return dataFiles{}, err
	}
	return files, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
