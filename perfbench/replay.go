package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"strings"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/server"
	"repro/internal/sql"
)

// replay executes requests in process, calling each layer's public
// function in the order the server's session does for an execute and its
// fetches, with the wire frames round-tripped through a buffer instead of
// a socket. With a recording recorder every call is one span.
type replay struct {
	f     *fixture
	rec   *recorder
	cache *plancache.Cache
	opts  cbqt.Options
	fp    string
	stmts []replayStmt
	buf   bytes.Buffer
	acc   replayAcc
	// pending is the winning tree of the request's optimization, if it
	// had one, and lastPlan and lastBinds its plan and binds if it was a
	// read; measure uses them after the request's timed interval.
	pending   *qtree.Query
	lastPlan  *optimizer.Plan
	lastBinds []datum.Datum
}

type replayStmt struct {
	sql    string
	norm   string
	params []string
}

// planned is the replay's plan-cache value, the counterpart of the
// server's cached plan.
type planned struct {
	plan   *optimizer.Plan
	dml    *qtree.DMLStmt
	sql    string
	params []string
}

// replayAcc accumulates per-layer counts over a replay.
type replayAcc struct {
	requests  int
	states    int
	annHits   int
	blocks    int
	ccHits    int64
	ccMisses  int64
	cbqtAlloc uint64
	execRuns  int
	execAlloc uint64
	rowsOut   int64
	wireBytes int64
}

func newReplay(f *fixture, rec *recorder) (*replay, error) {
	opts := serverOptions()
	opts.Metrics = f.reg
	r := &replay{
		f:     f,
		rec:   rec,
		cache: plancache.New(0, f.reg),
		opts:  opts,
		fp:    opts.Strategy.String(),
	}
	f.eng.rec = rec
	for _, text := range f.sp.stmts {
		parsed, err := sql.ParseStatement(text)
		if err != nil {
			return nil, err
		}
		bound, err := qtree.BindStatement(parsed, f.db.Catalog)
		if err != nil {
			return nil, err
		}
		st := replayStmt{sql: text, norm: plancache.Normalize(text)}
		switch v := bound.(type) {
		case *qtree.Query:
			st.params = v.Params
		case *qtree.DMLStmt:
			st.params = v.Params
		}
		r.stmts = append(r.stmts, st)
	}
	return r, nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes reads the process's cumulative heap allocation (no
// stop-the-world, unlike runtime.ReadMemStats).
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// frame round-trips one message through the wire codec: the sender's
// WriteFrame is an encode span, the receiver's ReadFrame a decode span.
func (r *replay) frame(out, in any) error {
	h := r.rec.begin("server.wire.encode")
	r.buf.Reset()
	err := server.WriteFrame(&r.buf, out)
	r.rec.end(h)
	if err != nil {
		return err
	}
	r.acc.wireBytes += int64(r.buf.Len())
	h = r.rec.begin("server.wire.decode")
	err = server.ReadFrame(&r.buf, in)
	r.rec.end(h)
	return err
}

// do runs one request; id stamps its spans.
func (r *replay) do(ctx context.Context, id int64, req request) (result, error) {
	r.pending, r.lastPlan, r.lastBinds = nil, nil, nil
	r.rec.request(id)
	root := r.rec.begin("request")
	res, err := r.execute(ctx, req)
	r.rec.end(root)
	r.acc.requests++
	return res, err
}

// measure takes, after the last request's timed interval, the two
// measurements that would distort it: one physical planning of its
// optimization's winning tree, as an optimizer.plan span of its own, and,
// for a read, a second run of its plan with exec metrics on, which counts
// the rows the plan's batch sources produce. The session executes without
// metrics, so the timed run does too.
func (r *replay) measure(ctx context.Context) error {
	if r.pending != nil {
		q, _ := r.pending.Clone()
		h := r.rec.begin("optimizer.plan")
		_, err := optimizer.New(r.f.db.Catalog).Optimize(q)
		r.rec.end(h)
		if err != nil {
			return fmt.Errorf("re-plan winning tree: %w", err)
		}
	}
	if r.lastPlan != nil {
		on := r.rec.on
		r.rec.on = false // its snapshot is not the request's
		_, err := exec.RunParamsWith(ctx, r.f.db, r.lastPlan, r.lastBinds, exec.Options{Metrics: r.f.reg})
		r.rec.on = on
		if err != nil {
			return fmt.Errorf("count scanned rows: %w", err)
		}
	}
	return nil
}

func (r *replay) execute(ctx context.Context, req request) (result, error) {
	wreq := server.Request{Verb: server.VerbExecute}
	if req.stmt < 0 {
		wreq.SQL = req.text
	} else {
		wreq.Stmt = int64(req.stmt + 1)
	}
	h := r.rec.begin("server.wire.encode")
	for i, d := range req.binds {
		wreq.Binds = append(wreq.Binds, server.Named(r.stmts[req.stmt].params[i], d))
	}
	r.rec.end(h)
	var sreq server.Request
	if err := r.frame(&wreq, &sreq); err != nil {
		return result{}, err
	}
	h = r.rec.begin("server.wire.decode")
	binds, err := r.decodeBinds(sreq)
	r.rec.end(h)
	if err != nil {
		return result{}, err
	}

	src, norm := sreq.SQL, ""
	if sreq.Stmt == 0 {
		// One-shot execute: the session parses and binds the text to
		// discover its parameters before looking up the plan.
		h = r.rec.begin("sql.parse")
		parsed, err := sql.ParseStatement(src)
		r.rec.end(h)
		if err != nil {
			return result{}, err
		}
		h = r.rec.begin("qtree.bind")
		_, err = qtree.BindStatement(parsed, r.f.db.Catalog)
		r.rec.end(h)
		if err != nil {
			return result{}, err
		}
	} else {
		st := r.stmts[sreq.Stmt-1]
		src, norm = st.sql, st.norm
	}

	h = r.rec.begin("plancache.lookup")
	if norm == "" {
		norm = plancache.Normalize(src)
	}
	key := plancache.Key{SQL: norm, Strategy: r.fp, Version: r.f.db.Catalog.Version()}
	v, cached, err := r.cache.GetOrCompute(key, func() (any, error) { return r.optimize(ctx, src) })
	r.rec.end(h)
	if err != nil {
		return result{}, err
	}
	p := v.(*planned)

	var rows [][]datum.Datum
	affected := 0
	h = r.rec.begin("exec.run")
	var a0 uint64
	if r.rec.on {
		a0 = allocBytes()
	}
	if p.dml != nil {
		dres, derr := exec.RunDML(ctx, r.f.db, p.dml, p.plan, binds, exec.Options{})
		err = derr
		if derr == nil {
			affected = dres.Affected
		}
	} else {
		out, rerr := exec.RunParams(ctx, r.f.db, p.plan, binds)
		err = rerr
		if rerr == nil {
			r.lastPlan, r.lastBinds = p.plan, binds
			rows = make([][]datum.Datum, len(out.Rows))
			for i, row := range out.Rows {
				rows[i] = row
			}
		}
	}
	if r.rec.on {
		r.acc.execAlloc += allocBytes() - a0
	}
	r.rec.end(h)
	if err != nil {
		return result{}, err
	}
	r.acc.execRuns++
	r.acc.rowsOut += int64(len(rows))

	var resp server.Response
	if err := r.frame(&server.Response{
		OK: true, Stmt: sreq.Stmt, SQL: p.sql, Cached: cached, RowCount: len(rows), Affected: affected, Params: p.params,
	}, &resp); err != nil {
		return result{}, err
	}
	if req.write {
		return result{affected: resp.Affected}, nil
	}

	// The client drains the cursor page by page.
	var out [][]datum.Datum
	for pos := 0; ; {
		var freq server.Request
		if err := r.frame(&server.Request{Verb: server.VerbFetch, Stmt: sreq.Stmt}, &freq); err != nil {
			return result{}, err
		}
		end := pos + server.DefaultFetchRows
		if end > len(rows) {
			end = len(rows)
		}
		h = r.rec.begin("server.wire.encode")
		page := make([][]server.WireDatum, 0, end-pos)
		for _, row := range rows[pos:end] {
			page = append(page, server.EncodeRow(row))
		}
		r.rec.end(h)
		pos = end
		var fresp server.Response
		if err := r.frame(&server.Response{OK: true, Stmt: freq.Stmt, Rows: page, Done: pos >= len(rows)}, &fresp); err != nil {
			return result{}, err
		}
		h = r.rec.begin("server.wire.decode")
		for _, wr := range fresp.Rows {
			row := make([]datum.Datum, len(wr))
			for j, wd := range wr {
				d, err := wd.Decode()
				if err != nil {
					r.rec.end(h)
					return result{}, err
				}
				row[j] = d
			}
			out = append(out, row)
		}
		r.rec.end(h)
		if fresp.Done {
			return result{rows: out}, nil
		}
	}
}

// decodeBinds decodes named bind values into parameter ordinals, as the
// session's bind step does.
func (r *replay) decodeBinds(req server.Request) ([]datum.Datum, error) {
	if len(req.Binds) == 0 {
		return nil, nil
	}
	params := r.stmts[req.Stmt-1].params
	binds := make([]datum.Datum, len(params))
	for _, b := range req.Binds {
		d, err := b.Value.Decode()
		if err != nil {
			return nil, err
		}
		ord := -1
		for i, p := range params {
			if strings.EqualFold(p, b.Name) {
				ord = i
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("no parameter :%s", b.Name)
		}
		binds[ord] = d
	}
	return binds, nil
}

// optimize is the plan-cache miss path: parse, bind and the CBQT search,
// as the session runs it.
func (r *replay) optimize(ctx context.Context, src string) (any, error) {
	h := r.rec.begin("sql.parse")
	parsed, err := sql.ParseStatement(src)
	r.rec.end(h)
	if err != nil {
		return nil, err
	}
	h = r.rec.begin("qtree.bind")
	bound, err := qtree.BindStatement(parsed, r.f.db.Catalog)
	r.rec.end(h)
	if err != nil {
		return nil, err
	}
	o := &cbqt.Optimizer{Cat: r.f.db.Catalog, Opts: r.opts}
	h = r.rec.begin("cbqt.optimize")
	var a0 uint64
	if r.rec.on {
		a0 = allocBytes()
	}
	var res *cbqt.Result
	p := &planned{}
	switch v := bound.(type) {
	case *qtree.Query:
		res, err = o.OptimizeContext(ctx, v)
		if err == nil {
			p.sql, p.params = res.Query.SQL(), res.Query.Params
		}
	case *qtree.DMLStmt:
		p.dml, p.sql, p.params = v, src, v.Params
		res, err = o.OptimizeDML(ctx, v)
		if err == nil && res.Plan != nil {
			p.sql = res.Query.SQL()
		}
	default:
		err = fmt.Errorf("unknown bound statement %T", bound)
	}
	if r.rec.on {
		r.acc.cbqtAlloc += allocBytes() - a0
	}
	r.rec.end(h)
	if err != nil {
		return nil, err
	}
	p.plan = res.Plan
	r.pending = res.Query
	a := &r.acc
	a.states += res.Stats.StatesEvaluated
	a.annHits += res.Stats.AnnotationHits
	a.blocks += res.Stats.BlocksOptimized
	a.ccHits += res.Stats.CacheHits
	a.ccMisses += res.Stats.CacheMisses
	return p, nil
}
