package main

import (
	"math/rand"

	"repro/internal/bench"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// The analytic workload: one reporting connection against the medium
// dataset in memory, plan cache warmed. It runs a fixed set of reporting
// queries — the vec experiment's shapes plus one window query and one set
// operation — several of which return thousands of rows, so executor
// operators, storage scans and the wire encoding of large results do the
// work. The optimizer runs once per text, during warm-up.

func analyticSpec(sizes testkit.Sizes) *spec {
	return &spec{
		name:      "analytic",
		sizes:     sizes,
		conns:     1,
		segment:   7,
		stmts:     analyticStmts(),
		newStream: newAnalyticStream,
		oracle:    true,
	}
}

// analyticStmts are the reporting queries.
func analyticStmts() []string {
	var stmts []string
	for _, q := range bench.VecQueries() {
		stmts = append(stmts, q.SQL)
	}
	return append(stmts,
		`SELECT e.emp_id, e.dept_id, e.salary, AVG(e.salary) OVER (PARTITION BY e.dept_id) avg_dept
		 FROM employees e WHERE e.emp_id <= 5000`,
		`SELECT s.emp_id FROM sales s WHERE s.amount > 950
		 UNION SELECT j.emp_id FROM job_history j WHERE j.start_date > '20030101'`,
	)
}

// analyticCycle is one round of the report mix: every query once and the
// join-aggregate summary twice. Seven slots keep the median inside one
// query's latency cluster (the window query's) instead of on the edge
// between two, so read_p50_ms does not flip between clusters.
var analyticCycle = []int{0, 1, 2, 2, 3, 4, 5}

// analyticStream runs the report mix cycle after cycle, each cycle in a
// fresh seeded order, so every run executes the same mix.
type analyticStream struct {
	rng   *rand.Rand
	order []int
}

func newAnalyticStream(_ *storage.DB, seed int64, conn int) (stream, error) {
	return &analyticStream{rng: rand.New(rand.NewSource(seed*31 + int64(conn)))}, nil
}

func (s *analyticStream) warm() []request {
	out := make([]request, len(analyticStmts()))
	for i := range out {
		out[i] = request{stmt: i}
	}
	return out
}

func (s *analyticStream) next() request {
	if len(s.order) == 0 {
		for _, p := range s.rng.Perm(len(analyticCycle)) {
			s.order = append(s.order, analyticCycle[p])
		}
	}
	i := s.order[0]
	s.order = s.order[1:]
	return request{stmt: i}
}

func (s *analyticStream) check(request, result) error { return nil }
