// Package workload generates synthetic crowdsourcing workloads shaped like
// the data of the paper's experiments (Section V-B):
//
//   - The offline experiments crawled 152,221 task groups from Amazon
//     Mechanical Turk; each group carries metadata (title, reward,
//     requester, keywords) shared by all its tasks. The experiments vary
//     #task groups × #tasks per group = |T|, using the group structure to
//     control task diversity (Figure 3: 10 → 10,000 groups at fixed |T|).
//   - Workers are synthetic: five uniformly drawn keywords each, plus
//     random (α, β).
//
// We cannot redistribute the crawl, so Generator reproduces its degrees of
// freedom: a keyword vocabulary with a Zipf-like popularity skew (AMT
// keywords such as "survey" and "english" dominate), per-group keyword
// sets, rewards in the micro-task range, and group-structured tasks. Every
// quantity the offline experiments read — keyword vectors and group
// structure — is generated; everything else (titles, requesters) is
// produced for realism and round-tripping.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
)

// vocabulary seeds the keyword universe with terms that actually dominate
// AMT/CrowdFlower metadata; indexes beyond the list are synthesized.
var vocabulary = []string{
	"survey", "english", "audio", "transcription", "image", "tagging",
	"sentiment", "analysis", "classification", "tweet", "news", "video",
	"google", "street", "view", "search", "web", "research", "writing",
	"translation", "spanish", "french", "german", "data", "entry",
	"collection", "categorization", "moderation", "content", "adult",
	"photo", "receipt", "product", "shopping", "review", "opinion",
	"question", "answer", "quiz", "psychology", "study", "academic",
	"easy", "quick", "fun", "bonus", "qualification", "spam", "detection",
	"entity", "resolution", "matching", "deduplication", "extraction",
	"annotation", "labeling", "bounding", "box", "ocr", "handwriting",
	"speech", "recording", "voice", "music", "podcast", "interview",
	"medical", "legal", "finance", "sports", "politics", "celebrity",
	"food", "restaurant", "travel", "hotel", "map", "location", "address",
	"phone", "email", "website", "url", "verification", "validation",
	"comparison", "ranking", "rating", "summarization", "keyword",
	"relevance", "judgment", "evaluation", "testing", "usability",
	"demographics", "health", "fitness", "education", "language",
}

// Keyword returns the display name of keyword index i.
func Keyword(i int) string {
	if i < len(vocabulary) {
		return vocabulary[i]
	}
	return fmt.Sprintf("kw%d", i)
}

// Config parameterizes a Generator.
type Config struct {
	// Universe is the number of distinct keywords (R in the paper).
	// Defaults to 100.
	Universe int
	// KeywordsPerGroup is the number of keywords attached to each task
	// group's metadata. Defaults to 5, matching typical AMT groups.
	KeywordsPerGroup int
	// KeywordsPerWorker is the number of interests drawn per worker.
	// The paper uses 5 for synthetic workers and asked live workers to
	// choose at least 6. Defaults to 5.
	KeywordsPerWorker int
	// ZipfS is the skew of keyword popularity (s parameter of the Zipf
	// distribution); 0 disables the skew (uniform draws). Defaults to 1.2.
	ZipfS float64
	// Seed makes generation reproducible.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Universe == 0 {
		c.Universe = 100
	}
	if c.KeywordsPerGroup == 0 {
		c.KeywordsPerGroup = 5
	}
	if c.KeywordsPerWorker == 0 {
		c.KeywordsPerWorker = 5
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
}

// Generator produces tasks, task groups and workers.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewGenerator builds a generator; zero-valued Config fields get defaults.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg.applyDefaults()
	if cfg.Universe < 1 {
		return nil, fmt.Errorf("workload: Universe = %d", cfg.Universe)
	}
	if cfg.KeywordsPerGroup < 1 || cfg.KeywordsPerGroup > cfg.Universe {
		return nil, fmt.Errorf("workload: KeywordsPerGroup = %d with universe %d", cfg.KeywordsPerGroup, cfg.Universe)
	}
	if cfg.KeywordsPerWorker < 1 || cfg.KeywordsPerWorker > cfg.Universe {
		return nil, fmt.Errorf("workload: KeywordsPerWorker = %d with universe %d", cfg.KeywordsPerWorker, cfg.Universe)
	}
	if cfg.ZipfS < 0 {
		return nil, fmt.Errorf("workload: ZipfS = %g", cfg.ZipfS)
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.ZipfS > 0 {
		// rand.Zipf requires s > 1; interpret 0 < s <= 1 as mild skew 1.01.
		s := cfg.ZipfS
		if s <= 1 {
			s = 1.01
		}
		g.zipf = rand.NewZipf(g.rng, s, 1, uint64(cfg.Universe-1))
	}
	return g, nil
}

// Universe returns the keyword universe size.
func (g *Generator) Universe() int { return g.cfg.Universe }

// drawKeyword samples one keyword index with the configured skew.
func (g *Generator) drawKeyword() int {
	if g.zipf == nil {
		return g.rng.Intn(g.cfg.Universe)
	}
	return int(g.zipf.Uint64())
}

// keywordSet draws a set of exactly n distinct keyword indices.
func (g *Generator) keywordSet(n int) *bitset.Set {
	s := bitset.New(g.cfg.Universe)
	for s.Count() < n {
		s.Add(g.drawKeyword())
	}
	return s
}

// Group is the metadata shared by all tasks generated from one AMT-like
// task group.
type Group struct {
	ID        string
	Title     string
	Requester string
	Reward    float64
	Keywords  *bitset.Set
}

// Groups generates n task groups.
func (g *Generator) Groups(n int) []*Group {
	groups := make([]*Group, n)
	for i := range groups {
		kw := g.keywordSet(g.cfg.KeywordsPerGroup)
		first := 0
		if idx := kw.Indices(); len(idx) > 0 {
			first = idx[0]
		}
		groups[i] = &Group{
			ID:        fmt.Sprintf("g%04d", i),
			Title:     fmt.Sprintf("%s task batch %d", Keyword(first), i),
			Requester: fmt.Sprintf("requester-%02d", g.rng.Intn(40)),
			// Micro-task rewards: the paper's live tasks paid $0.01–$0.12.
			Reward:   0.01 + float64(g.rng.Intn(12))/100,
			Keywords: kw,
		}
	}
	return groups
}

// Tasks generates numGroups×tasksPerGroup tasks; tasks of one group share
// the group's keyword vector exactly, as on AMT, which is what lets the
// Figure 3 experiment steer aggregate diversity through the group count.
func (g *Generator) Tasks(numGroups, tasksPerGroup int) []*core.Task {
	groups := g.Groups(numGroups)
	tasks := make([]*core.Task, 0, numGroups*tasksPerGroup)
	for _, grp := range groups {
		for j := 0; j < tasksPerGroup; j++ {
			tasks = append(tasks, &core.Task{
				ID:       fmt.Sprintf("%s-t%03d", grp.ID, j),
				Group:    grp.ID,
				Reward:   grp.Reward,
				Keywords: grp.Keywords, // shared, immutable by convention
			})
		}
	}
	return tasks
}

// Workers generates n synthetic workers with KeywordsPerWorker uniform
// keyword interests and uniform-random motivation weights (normalized to
// α+β = 1), exactly as in Section V-B.
func (g *Generator) Workers(n int) []*core.Worker {
	workers := make([]*core.Worker, n)
	for i := range workers {
		// Interests are drawn uniformly (not Zipf): the paper states a
		// pseudo-random uniform generator.
		kw := bitset.New(g.cfg.Universe)
		for kw.Count() < g.cfg.KeywordsPerWorker {
			kw.Add(g.rng.Intn(g.cfg.Universe))
		}
		w := &core.Worker{
			ID:       fmt.Sprintf("w%04d", i),
			Keywords: kw,
			Alpha:    g.rng.Float64(),
			Beta:     g.rng.Float64(),
		}
		w.NormalizeWeights()
		workers[i] = w
	}
	return workers
}

// taskJSON is a task line: the task record plus its keywords' display
// names, which readers ignore.
type taskJSON struct {
	core.TaskRecord
	Names []string `json:"names,omitempty"`
}

// WriteTasks streams tasks as JSON lines.
func WriteTasks(w io.Writer, tasks []*core.Task) error {
	enc := json.NewEncoder(w)
	for _, t := range tasks {
		rec := taskJSON{TaskRecord: core.RecordOf(t)}
		rec.Names = make([]string, len(rec.Keywords))
		for i, k := range rec.Keywords {
			rec.Names[i] = Keyword(k)
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("workload: encoding task %s: %w", t.ID, err)
		}
	}
	return nil
}

// ReadTasks parses tasks written by WriteTasks.
func ReadTasks(r io.Reader) ([]*core.Task, error) {
	dec := json.NewDecoder(r)
	var out []*core.Task
	for {
		var rec taskJSON
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("workload: decoding task %d: %w", len(out), err)
		}
		t, err := rec.Task()
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		out = append(out, t)
	}
}

// WriteWorkers streams workers as JSON lines.
func WriteWorkers(w io.Writer, workers []*core.Worker) error {
	enc := json.NewEncoder(w)
	for _, wk := range workers {
		if err := enc.Encode(core.WorkerRecordOf(wk)); err != nil {
			return fmt.Errorf("workload: encoding worker %s: %w", wk.ID, err)
		}
	}
	return nil
}

// ReadWorkers parses workers written by WriteWorkers.
func ReadWorkers(r io.Reader) ([]*core.Worker, error) {
	dec := json.NewDecoder(r)
	var out []*core.Worker
	for {
		var rec core.WorkerRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("workload: decoding worker %d: %w", len(out), err)
		}
		wk, err := rec.Worker()
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		out = append(out, wk)
	}
}
