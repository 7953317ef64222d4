package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/server"
)

// traceRun is the outcome of a traced run.
type traceRun struct {
	metrics   map[string]float64
	attempted int
	failed    int
	spans     []Span
}

// replayOutcome is one replay of a served request sequence.
type replayOutcome struct {
	total    time.Duration // summed request wall time
	acc      replayAcc
	spans    []Span
	mismatch int
	reg      map[string]int64 // fixture registry deltas over the replay
}

// runTrace serves the workload for d/3 to record the request sequence
// and its result digests, then replays exactly that sequence in process
// twice on fresh fixtures, spans off and on. The spans give per-layer
// self times; the pair gives the tracing overhead; the digests show the
// replay did the same work as the served run.
func runTrace(ctx context.Context, sp *spec, seed int64, d time.Duration, work string) (*traceRun, error) {
	b, _, err := setUp(sp, seed, work, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	s, logs := b.s, b.logs
	before, err := s.metrics()
	if err != nil {
		return nil, err
	}
	served := d / 3
	if served < time.Second {
		served = time.Second
	}
	win := runServed(s, b.streams, logs, sp.segment, served)
	after, err := s.metrics()
	if err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}

	out := &traceRun{metrics: map[string]float64{}}
	var servedMS float64
	counts := make([]int, len(logs))
	for c, l := range logs {
		out.attempted += l.attempted()
		out.failed += l.failed + l.wrong
		counts[c] = l.attempted()
		for _, smp := range l.samples {
			servedMS += smp.ms
		}
	}
	nServed := out.attempted
	if nServed == 0 {
		return nil, fmt.Errorf("no request completed in %s", served)
	}

	off, err := replayOnce(ctx, sp, seed, work, 1, counts, logs, false)
	if err != nil {
		return nil, err
	}
	on, err := replayOnce(ctx, sp, seed, work, 2, counts, logs, true)
	if err != nil {
		return nil, err
	}
	out.attempted += 2 * nServed
	out.failed += off.mismatch + on.mismatch
	out.spans = on.spans

	n := float64(on.acc.requests)
	self := layerSelf(on.spans)
	count := layerCount(on.spans)
	us := func(layer string) float64 { return float64(self[layer]) / float64(time.Microsecond) }
	perReq := func(layer string) float64 { return us(layer) / n }
	perSpan := func(layer string) float64 {
		if count[layer] == 0 {
			return 0
		}
		return us(layer) / float64(count[layer])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(m0, m1 map[string]int64, k string) float64 { return float64(m1[k] - m0[k]) }

	m := out.metrics
	a := on.acc
	m["server.wire.decode_us"] = perReq("server.wire.decode")
	m["server.wire.encode_us"] = perReq("server.wire.encode")
	m["server.wire.bytes_per_op"] = float64(a.wireBytes) / n
	m["server.residual_us"] = servedMS*1000/float64(nServed) - float64(off.total)/float64(time.Microsecond)/float64(off.acc.requests)
	shed := delta(before, after, server.MetricShed)
	m["server.shed_ratio"] = ratio(shed, shed+delta(before, after, server.MetricQueries))
	m["sql.parse_us"] = perReq("sql.parse")
	m["qtree.bind_us"] = perReq("qtree.bind")
	m["plancache.lookup_us"] = perReq("plancache.lookup")
	hits := delta(before, after, plancache.MetricHits) + delta(before, after, plancache.MetricCoalesced)
	m["plancache.hit_ratio"] = ratio(hits, hits+delta(before, after, plancache.MetricMisses))
	m["cbqt.optimize_us"] = perReq("cbqt.optimize")
	m["cbqt.states_per_query"] = float64(a.states) / n
	m["cbqt.us_per_state"] = ratio(us("cbqt.optimize"), float64(a.states))
	m["cbqt.alloc_kb_per_state"] = ratio(float64(a.cbqtAlloc)/1024, float64(a.states))
	m["cbqt.annotation_hit_ratio"] = ratio(float64(a.annHits), float64(a.annHits+a.blocks))
	m["optimizer.plan_us"] = perSpan("optimizer.plan")
	m["optimizer.costcache_hit_ratio"] = ratio(float64(a.ccHits), float64(a.ccHits+a.ccMisses))
	m["exec.run_us"] = perReq("exec.run")
	m["exec.alloc_kb_per_run"] = ratio(float64(a.execAlloc)/1024, float64(a.execRuns))
	m["exec.rows_out_per_run"] = ratio(float64(a.rowsOut), float64(a.execRuns))
	m["exec.scan_rows_per_s"] = ratio(float64(on.reg[exec.MetricBatchRows]), self["exec.run"].Seconds())
	m["storage.commit_us"] = perSpan("storage.commit")
	m["storage.snapshot_us"] = perSpan("storage.snapshot")
	commits := float64(on.reg["storage.mvcc.commits"])
	m["storage.wal.bytes_per_commit"] = ratio(float64(on.reg["storage.wal.bytes"]), commits)
	m["storage.wal.fsyncs_per_commit"] = ratio(float64(on.reg["storage.wal.fsyncs"]), commits)
	conflicts := delta(before, after, "storage.mvcc.conflicts")
	m["storage.conflict_ratio"] = ratio(conflicts, conflicts+delta(before, after, "storage.mvcc.commits"))
	m["runtime.gc_cpu_fraction"] = ratio(win.rt.gcCPU, win.rt.totalCPU)
	m["runtime.gc_cycles_per_kop"] = float64(win.rt.gcCycles) * 1000 / float64(nServed)
	m["trace.overhead_pct"] = (ratio(float64(on.total), float64(off.total)) - 1) * 100
	return out, nil
}

// replayOnce sets up a fresh fixture, warms it like the served run, and
// replays each connection's first counts[c] requests round-robin,
// comparing every result with the served digest and the stream's model.
func replayOnce(ctx context.Context, sp *spec, seed int64, work string, idx int, counts []int, logs []*connLog, spans bool) (*replayOutcome, error) {
	f, err := newFixture(sp, seed, work, idx, true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rec := newRecorder(spans)
	rec.on = false
	r, err := newReplay(f, rec)
	if err != nil {
		return nil, err
	}
	streams, _, err := newStreams(sp, f.db, seed)
	if err != nil {
		return nil, err
	}
	var id int64
	for _, st := range streams {
		for _, req := range st.warm() {
			id++
			res, err := r.do(ctx, id, req)
			if err != nil {
				return nil, fmt.Errorf("replay warm-up %s: %w", describe(req), err)
			}
			if err := st.check(req, res); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}
	out := &replayOutcome{}
	r.acc = replayAcc{}
	rec.on = spans
	reg0 := f.reg.Snapshot()
	next := make([]int, len(streams))
	for more := true; more; {
		more = false
		for c, st := range streams {
			if next[c] >= counts[c] {
				continue
			}
			more = true
			req := st.next()
			id++
			t0 := time.Now()
			res, err := r.do(ctx, id, req)
			out.total += time.Since(t0)
			if err == nil && spans {
				err = r.measure(ctx)
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", describe(req), err)
			}
			if cerr := st.check(req, res); cerr != nil {
				out.mismatch++
				fmt.Fprintf(os.Stderr, "perfbench: replay: %v\n", cerr)
			} else if digestRows(res.rows) != logs[c].digests[next[c]] {
				out.mismatch++
				fmt.Fprintf(os.Stderr, "perfbench: replay of %s differs from the served result\n", describe(req))
			}
			next[c]++
		}
	}
	reg1 := f.reg.Snapshot()
	out.reg = map[string]int64{}
	for k, v := range reg1.Counters {
		out.reg[k] = v - reg0.Counters[k]
	}
	out.acc = r.acc
	out.spans = rec.spans
	return out, nil
}

// runtimeSample reads the process counters the runtime.* layer metrics
// are derived from.
type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}
