package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/storage"
)

// connLog is what one connection saw in a served phase.
type connLog struct {
	warm    []digest // results of the warm-up requests, in order
	digests []digest // results of the timed requests, in order
	samples []sample
	failed  int
	wrong   int
}

// sample is one timed request's latency.
type sample struct {
	ms    float64 // +Inf for a failed request: it misses every limit
	write bool
}

func (l *connLog) attempted() int { return len(l.digests) }

// outcome is one timed request as the client saw it, kept until its
// segment ends.
type outcome struct {
	req request
	res result
	err error
	ms  float64
}

// record checks a segment's outcomes in order against the stream's model
// and logs their latencies and result digests.
func (l *connLog) record(st stream, outs []outcome) {
	for _, o := range outs {
		ms := o.ms
		if o.err != nil {
			// A failed request misses every latency limit.
			ms = math.Inf(1)
			l.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", describe(o.req), o.err)
		} else if cerr := st.check(o.req, o.res); cerr != nil {
			l.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: wrong result: %v\n", cerr)
		}
		l.samples = append(l.samples, sample{ms: ms, write: o.req.write})
		l.digests = append(l.digests, digestRows(o.res.rows))
	}
}

// runWarm runs each stream's warm-up requests over its connection.
func runWarm(s *served, streams []stream, logs []*connLog) error {
	for c, st := range streams {
		for _, req := range st.warm() {
			res, err := s.conns[c].do(req)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", describe(req), err)
			}
			if err := st.check(req, res); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			logs[c].warm = append(logs[c].warm, digestRows(res.rows))
		}
	}
	return nil
}

// window is what a served phase measured, counted only while requests
// ran: wall time, the process's CPU time and heap allocation, and the
// runtime's GC counters.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
	rt      runtimeSample
}

// runServed drives every connection in a closed loop until d of timed
// work has elapsed. It runs in segments of seg requests per connection:
// before a segment, each stream generates the requests; during it, the
// connections run them concurrently; after it, each result is checked
// against the stream's model and digested. Only the segments are
// measured, so generating texts, checking models and hashing rows — the
// benchmark's work, not the program's — stay out of the window.
func runServed(s *served, streams []stream, logs []*connLog, seg int, d time.Duration) window {
	var w window
	reqs := make([][]request, len(streams))
	outs := make([][]outcome, len(streams))
	var m0, m1 runtime.MemStats
	for w.elapsed < d {
		for c, st := range streams {
			reqs[c], outs[c] = reqs[c][:0], outs[c][:0]
			for i := 0; i < seg; i++ {
				reqs[c] = append(reqs[c], st.next())
			}
		}
		runtime.ReadMemStats(&m0)
		rt0 := readRuntime()
		cpu0 := processCPU()
		start := time.Now()
		deadline := start.Add(d - w.elapsed)
		var wg sync.WaitGroup
		for c := range streams {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				conn := s.conns[c]
				for _, req := range reqs[c] {
					if !time.Now().Before(deadline) {
						return
					}
					t0 := time.Now()
					res, err := conn.do(req)
					ms := float64(time.Since(t0)) / float64(time.Millisecond)
					outs[c] = append(outs[c], outcome{req: req, res: res, err: err, ms: ms})
				}
			}(c)
		}
		wg.Wait()
		w.elapsed += time.Since(start)
		w.cpu += processCPU() - cpu0
		rt1 := readRuntime()
		w.rt.gcCPU += rt1.gcCPU - rt0.gcCPU
		w.rt.totalCPU += rt1.totalCPU - rt0.totalCPU
		w.rt.gcCycles += rt1.gcCycles - rt0.gcCycles
		runtime.ReadMemStats(&m1)
		w.alloc += m1.TotalAlloc - m0.TotalAlloc
		for c, st := range streams {
			logs[c].record(st, outs[c])
			clear(outs[c]) // drop the rows before the next segment
		}
	}
	return w
}

// rig is one set-up workload: the fixture, the running server, and
// each connection's stream and log.
type rig struct {
	f       *fixture
	s       *served
	streams []stream
	logs    []*connLog
}

// close stops the server and releases the fixture.
func (b *rig) close() error {
	return errors.Join(b.s.stop(), b.f.close())
}

// setUp builds a fixture, starts the server, opens the connections and
// warms the plan cache. It returns the set-up time, which excludes only
// building the benchmark's own result models.
func setUp(sp *spec, seed int64, work string, idx int) (*rig, time.Duration, error) {
	t0 := time.Now()
	f, err := newFixture(sp, seed, work, idx, false)
	if err != nil {
		return nil, 0, err
	}
	s, err := startServed(f)
	if err != nil {
		f.close()
		return nil, 0, err
	}
	b := &rig{f: f, s: s}
	setup := time.Since(t0)
	if err := checkParams(sp, s); err != nil {
		b.close()
		return nil, 0, err
	}
	if b.streams, b.logs, err = newStreams(sp, f.db, seed); err != nil {
		b.close()
		return nil, 0, err
	}
	t1 := time.Now()
	if err := runWarm(s, b.streams, b.logs); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, setup + time.Since(t1), nil
}

func newStreams(sp *spec, db *storage.DB, seed int64) ([]stream, []*connLog, error) {
	var streams []stream
	var logs []*connLog
	for c := 0; c < sp.conns; c++ {
		st, err := sp.newStream(db, seed, c)
		if err != nil {
			return nil, nil, err
		}
		streams = append(streams, st)
		logs = append(logs, &connLog{})
	}
	return streams, logs, nil
}

// checkParams verifies the server discovered each prepared statement's
// parameters in the order the streams list bind values.
func checkParams(sp *spec, s *served) error {
	for i, want := range sp.params {
		if got := s.conns[0].stmts[i].Params; want != nil && fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("statement %d parameters %v, want %v", i, got, want)
		}
	}
	return nil
}

// e2eRun is the outcome of an untraced run.
type e2eRun struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// Set-ups beyond the least number continue while all set-ups so far took
// less than setupBudget, up to maxSetups: a set-up of a tenth of a second
// needs more samples, spread over more time, for a median that a few
// seconds of stolen CPU do not move.
const (
	setupBudget = 6 * time.Second
	maxSetups   = 45
)

// runE2E measures the end-to-end metrics: set-up at least setups times
// (the median is reported), then a timed closed-loop phase over the wire,
// then the correctness oracles outside the timed window.
func runE2E(ctx context.Context, sp *spec, seed int64, d time.Duration, setups int, work string) (*e2eRun, error) {
	var setupS []float64
	var total time.Duration
	var b *rig
	for i := 0; i < setups || (total < setupBudget && i < maxSetups); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
			// Each set-up starts from a collected heap, as the first does,
			// rather than paying for collecting the previous one's data.
			b = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		if b, took, err = setUp(sp, seed, work, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds())
		total += took
	}
	defer b.close()

	runtime.GC()
	win := runServed(b.s, b.streams, b.logs, sp.segment, d)

	out := &e2eRun{metrics: map[string]float64{}}
	var reads, writes []float64
	ok := 0
	for _, l := range b.logs {
		out.attempted += l.attempted()
		out.failed += l.failed + l.wrong
		for _, smp := range l.samples {
			if smp.write {
				writes = append(writes, smp.ms)
			} else {
				reads = append(reads, smp.ms)
			}
			if !math.IsInf(smp.ms, 1) {
				ok++
			}
		}
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("no request completed in %s", d)
	}
	m := out.metrics
	m["qps"] = float64(ok) / win.elapsed.Seconds()
	m["read_p50_ms"] = percentile(reads, 0.50)
	m["read_p90_ms"] = percentile(reads, 0.90)
	m["read_p99_ms"] = percentile(reads, 0.99)
	m["write_p50_ms"] = percentile(writes, 0.50)
	m["write_p99_ms"] = percentile(writes, 0.99)
	m["reads"] = float64(len(reads))
	m["writes"] = float64(len(writes))

	// The live heap is read with the benchmark's per-request state released:
	// latency samples, the digests of a workload without an oracle, and
	// the streams the checks below do not use (the oracle regenerates
	// the request sequence from fresh streams).
	for c, l := range b.logs {
		l.samples = nil
		if !sp.oracle {
			l.digests = nil
		}
		if _, ok := b.streams[c].(durable); !ok {
			b.streams[c] = nil
		}
	}
	runtime.GC()
	var mGC runtime.MemStats
	runtime.ReadMemStats(&mGC)

	// Correctness outside the timed window.
	if sp.oracle {
		wrong, err := verifyOracle(ctx, sp, b, seed)
		if err != nil {
			return nil, err
		}
		out.failed += wrong
	}
	if err := b.s.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	if sp.disk {
		if err := verifyDurability(b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			out.failed++
		}
	}

	m["setup_s"] = median(setupS)
	m["error_ratio"] = float64(out.failed) / float64(out.attempted)
	m["cpu_ms_per_op"] = win.cpu.Seconds() * 1000 / float64(out.attempted)
	m["alloc_kb_per_op"] = float64(win.alloc) / 1024 / float64(out.attempted)
	m["heap_live_mb"] = float64(mGC.HeapAlloc) / (1 << 20)
	return out, nil
}

// verifyOracle checks every served result of an oracle workload against
// the same text run in process with every transformation off. Digests
// that match are done; a mismatch re-fetches the served rows once per
// (text, digest) and compares them with the float tolerance.
func verifyOracle(ctx context.Context, sp *spec, b *rig, seed int64) (int, error) {
	type ref struct {
		rows [][]datum.Datum
		d    digest
	}
	refs := map[string]ref{}
	settled := map[string]bool{}
	wrong := 0
	for c, log := range b.logs {
		st, err := sp.newStream(b.f.db, seed, c)
		if err != nil {
			return 0, err
		}
		reqs := st.warm()
		for range log.digests {
			reqs = append(reqs, st.next())
		}
		got := append(append([]digest(nil), log.warm...), log.digests...)
		for i, req := range reqs {
			text := req.text
			if req.stmt >= 0 {
				text = sp.stmts[req.stmt]
			}
			r, ok := refs[text]
			if !ok {
				rows, err := referenceRows(ctx, b.f.db, text)
				if err != nil {
					return 0, err
				}
				r = ref{rows: rows, d: digestRows(rows)}
				if req.stmt >= 0 {
					refs[text] = r // prepared texts repeat; one-shot texts never do
				}
			}
			if got[i] == r.d {
				continue
			}
			key := fmt.Sprintf("%s\x00%d\x00%d", text, got[i].Rows, got[i].Sum)
			if settled[key] {
				continue
			}
			served, err := b.s.conns[c].c.Query(text)
			if err != nil {
				return 0, fmt.Errorf("oracle re-fetch: %w", err)
			}
			if digestRows(served) != got[i] || !sameMultiset(served, r.rows) {
				wrong++
				fmt.Fprintf(os.Stderr, "perfbench: %s: served %d rows differ from the untransformed reference (%d rows)\n",
					describe(req), got[i].Rows, len(r.rows))
				continue
			}
			settled[key] = true
		}
	}
	return wrong, nil
}

// durable is a stream that can check a recovered database against the
// writes it had acknowledged.
type durable interface {
	verifyDurable(db *storage.DB) error
}

// verifyDurability closes the engine, reopens the data directory from
// the WAL alone and checks every acknowledged write of every connection.
func verifyDurability(b *rig) error {
	if err := b.f.db.Close(); err != nil {
		return fmt.Errorf("durability: close engine: %w", err)
	}
	cat := catalog.New()
	de, err := storage.OpenDiskEngine(b.f.dir, cat)
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	db := storage.NewDBWithEngine(cat, de)
	b.f.db = db // fixture.close releases the reopened engine
	for _, st := range b.streams {
		if d, ok := st.(durable); ok {
			if err := d.verifyDurable(db); err != nil {
				return err
			}
		}
	}
	return nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
