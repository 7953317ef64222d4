package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// The adhoc workload: one connection against the small dataset in
// memory, every request a one-shot text never seen before. Texts come
// from the CBQT-relevant classes of workload.Generate and, for most
// requests, from the Table-2 family with 2..6 unnestable subqueries, with
// their numeric literals jittered through workload.Parameterize, so the
// plan cache misses by construction and parse, bind, the CBQT search and
// physical planning do most of the work.

// One round of the adhoc mix holds each Table-2 family text
// adhocTable2PerRound times and adhocClassesPerRound generated class
// texts: 5×3 = 15 and 10, i.e. 60% and 40%.
const (
	adhocTable2PerRound  = 3
	adhocClassesPerRound = 10
)

func adhocSpec(sizes testkit.Sizes) *spec {
	return &spec{
		name:      "adhoc",
		sizes:     sizes,
		conns:     1,
		segment:   32,
		newStream: newAdhocStream,
		oracle:    true,
	}
}

type adhocStream struct {
	rng     *rand.Rand
	db      *storage.DB
	table2  []string        // Table2FamilyQuery(2..6)
	classes []string        // generated CBQT-relevant texts
	seen    map[uint64]bool // FNV-1a hashes of the normalized texts sent
	round   []string        // base texts left in the current round
	perm    []int           // class texts left in the current pass over the pool
}

func newAdhocStream(db *storage.DB, seed int64, conn int) (stream, error) {
	s := &adhocStream{
		rng:  rand.New(rand.NewSource(seed*104729 + int64(conn))),
		db:   db,
		seen: map[uint64]bool{},
	}
	for k := 2; k <= 6; k++ {
		s.table2 = append(s.table2, bench.Table2FamilyQuery(k))
	}
	sizes := testkit.SmallSizes()
	cfg := workload.DefaultConfig(adhocPoolSeed, 200, sizes.Employees, sizes.Departments, sizes.Jobs)
	cfg.RelevantFraction = 1
	for _, q := range workload.Generate(cfg) {
		if _, ok := workload.Parameterize(q.SQL, 1, 0); ok {
			s.classes = append(s.classes, q.SQL)
		}
	}
	if len(s.classes) == 0 {
		return nil, fmt.Errorf("adhoc: no parameterizable class queries")
	}
	return s, nil
}

// adhocPoolSeed fixes the pool of generated class texts and adhocWarmSeed
// the warm-up texts, so a run's seed changes which texts are drawn and how
// they are jittered but not the mix's make-up: with per-seed pools the
// cost per request moved with the seed, not with the code.
const (
	adhocPoolSeed = 1
	adhocWarmSeed = 1
)

// warm runs each Table-2 family text twice, jittered from a fixed seed,
// so the process's heap and GC pacing settle before timing; the texts
// count as seen.
func (s *adhocStream) warm() []request {
	run := s.rng
	s.rng = rand.New(rand.NewSource(adhocWarmSeed))
	defer func() { s.rng = run }()
	var out []request
	for len(out) < 2*len(s.table2) {
		if req, ok := s.jittered(s.table2[len(out)%len(s.table2)]); ok {
			out = append(out, req)
		}
	}
	return out
}

// next returns the next text of the seeded mix. Each round is the
// Table-2 family at k = 2..6, adhocTable2PerRound times each, plus
// adhocClassesPerRound class texts, in shuffled order; class texts are
// taken in a seeded permutation of the pool. Every run thus draws the same
// make-up, and the seed changes only the order and the jitter.
func (s *adhocStream) next() request {
	for {
		if len(s.round) == 0 {
			s.newRound()
		}
		base := s.round[0]
		s.round = s.round[1:]
		if req, ok := s.jittered(base); ok {
			return req
		}
	}
}

func (s *adhocStream) newRound() {
	for i := 0; i < adhocTable2PerRound; i++ {
		s.round = append(s.round, s.table2...)
	}
	for i := 0; i < adhocClassesPerRound; i++ {
		if len(s.perm) == 0 {
			s.perm = s.rng.Perm(len(s.classes))
		}
		s.round = append(s.round, s.classes[s.perm[0]])
		s.perm = s.perm[1:]
	}
	s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
}

// jitterTries bounds the jitters tried per base text: a base with few or
// small literals has only a handful of variants, which run out.
const jitterTries = 8

// jittered rewrites base's literals until the normalized text is new and
// binds cleanly; ok is false when no try of jitterTries was.
func (s *adhocStream) jittered(base string) (request, bool) {
	for try := 0; try < jitterTries; try++ {
		pq, ok := workload.Parameterize(base, 2, s.rng.Int63())
		if !ok {
			return request{}, false
		}
		text := pq.Literal(1)
		h := fnv.New64a()
		h.Write([]byte(plancache.Normalize(text)))
		norm := h.Sum64()
		if s.seen[norm] || !s.valid(text) {
			continue
		}
		s.seen[norm] = true
		return request{stmt: -1, text: text}, true
	}
	return request{}, false
}

// valid reports whether text parses and binds, so a jittered literal
// never turns a request into an error.
func (s *adhocStream) valid(text string) bool {
	parsed, err := sql.ParseStatement(text)
	if err != nil {
		return false
	}
	_, err = qtree.BindStatement(parsed, s.db.Catalog)
	return err == nil
}

func (s *adhocStream) check(request, result) error { return nil }
