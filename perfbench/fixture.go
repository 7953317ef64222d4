package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// request is one client request of a workload: a prepared statement with
// bind values in parameter order (sent by name), or a one-shot text.
type request struct {
	stmt  int // index into spec.stmts; -1 for the one-shot text
	text  string
	binds []datum.Datum
	write bool
}

// result is what the client saw: rows of a read, the count of a write.
type result struct {
	rows     [][]datum.Datum
	affected int
}

// stream generates one connection's seeded request sequence and checks
// each result against the connection's model of the data it owns.
type stream interface {
	// warm returns the requests run before timing (plan-cache warm-up).
	warm() []request
	next() request
	// check validates res for req and advances the model. Streams whose
	// results are verified by the reference oracle after the run return
	// nil.
	check(req request, res result) error
}

// spec is one workload's fixed shape.
type spec struct {
	name  string
	sizes testkit.Sizes
	disk  bool
	conns int
	// segment is the number of requests per connection in one measured
	// segment of the served phase (see runServed): about half a second of
	// work, so the pauses between segments are few.
	segment int
	// stmts are prepared once per connection during set-up; params, when
	// set, lists each statement's parameter names in the order requests
	// carry their bind values.
	stmts  []string
	params [][]string
	// newStream builds connection conn's stream over a freshly set-up
	// database (the model reads its initial state from db).
	newStream func(db *storage.DB, seed int64, conn int) (stream, error)
	// oracle, when set, verifies results after the timed phase by running
	// each text in process with every transformation off.
	oracle bool
}

// timedEngine wraps the storage engine of a replay fixture so the traced
// replay can time commits and snapshots from outside: exec reaches storage
// only through DB.Commit and DB.Snapshot, which land here. Served fixtures
// use the bare engine, as cbqtd does.
type timedEngine struct {
	storage.Engine
	rec *recorder // the single-goroutine replay's
}

func (e *timedEngine) Commit(b *storage.WriteBatch) (uint64, error) {
	h := e.rec.begin("storage.commit")
	ts, err := e.Engine.Commit(b)
	e.rec.end(h)
	return ts, err
}

func (e *timedEngine) Snapshot() *storage.Snapshot {
	h := e.rec.begin("storage.snapshot")
	s := e.Engine.Snapshot()
	e.rec.end(h)
	return s
}

// fixture is one set-up instance of a workload's database.
type fixture struct {
	sp   *spec
	seed int64
	db   *storage.DB
	eng  *timedEngine // nil unless timed
	reg  *obsv.Registry
	dir  string // disk engine data directory ("" in memory)
}

// newFixture generates the seeded dataset and, for disk workloads, loads
// it through the WAL of a fresh data directory under work. timed wraps
// the engine in a timedEngine for the traced replay.
func newFixture(sp *spec, seed int64, work string, idx int, timed bool) (*fixture, error) {
	mem := testkit.NewDB(sp.sizes, seed)
	f := &fixture{sp: sp, seed: seed, reg: obsv.NewRegistry()}
	wrap := func(e storage.Engine) storage.Engine {
		if !timed {
			return e
		}
		f.eng = &timedEngine{Engine: e}
		return f.eng
	}
	if !sp.disk {
		f.db = storage.NewDBWithEngine(mem.Catalog, wrap(mem.Engine()))
	} else {
		f.dir = filepath.Join(work, fmt.Sprintf("%s-%d-%d", sp.name, os.Getpid(), idx))
		if err := os.RemoveAll(f.dir); err != nil {
			return nil, err
		}
		cat := catalog.New()
		de, err := storage.OpenDiskEngine(f.dir, cat)
		if err != nil {
			return nil, fmt.Errorf("open disk engine: %w", err)
		}
		f.db = storage.NewDBWithEngine(cat, wrap(de))
		if err := storage.Mirror(mem, f.db); err != nil {
			f.close()
			return nil, fmt.Errorf("load disk engine: %w", err)
		}
	}
	f.db.Metrics(f.reg)
	return f, nil
}

// close releases the engine and removes the data directory.
func (f *fixture) close() error {
	err := f.db.Close()
	if f.dir != "" {
		if rerr := os.RemoveAll(f.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// served is a running server over a fixture plus its client connections.
type served struct {
	srv     *server.Server
	serveCh chan error
	conns   []*servedConn
	stopped bool
}

type servedConn struct {
	c     *server.Client
	stmts []*server.Stmt
}

// serverOptions are the optimizer options cbqtd serves with by default.
func serverOptions() cbqt.Options { return cbqt.DefaultOptions() }

// startServed starts the real server on a loopback listener and opens the
// workload's connections, each preparing every statement.
func startServed(f *fixture) (*served, error) {
	srv := server.New(server.Config{DB: f.db, Opts: serverOptions(), Registry: f.reg})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, serveCh: make(chan error, 1)}
	go func() { s.serveCh <- srv.Serve(l) }()
	for i := 0; i < f.sp.conns; i++ {
		c, err := server.Dial(l.Addr().String(), nil)
		if err != nil {
			s.stop()
			return nil, err
		}
		sc := &servedConn{c: c}
		s.conns = append(s.conns, sc)
		for _, text := range f.sp.stmts {
			st, err := c.Prepare(text)
			if err != nil {
				s.stop()
				return nil, fmt.Errorf("prepare %q: %w", text, err)
			}
			sc.stmts = append(sc.stmts, st)
		}
	}
	return s, nil
}

// stop closes the connections, drains the server and waits for Serve to
// return. Later calls do nothing.
func (s *served) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	var errs []error
	for _, c := range s.conns {
		if err := c.c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, s.srv.Shutdown(ctx), <-s.serveCh)
	return errors.Join(errs...)
}

// do runs one request over the wire the way an application would:
// execute, then drain the cursor of a read.
func (sc *servedConn) do(req request) (result, error) {
	if req.stmt < 0 {
		rows, err := sc.c.Query(req.text)
		return result{rows: rows}, err
	}
	st := sc.stmts[req.stmt]
	binds := make([]server.BindValue, len(req.binds))
	for i, d := range req.binds {
		binds[i] = server.Named(st.Params[i], d)
	}
	if err := st.Execute(binds...); err != nil {
		return result{}, err
	}
	if req.write {
		return result{affected: st.Affected}, nil
	}
	rows, err := st.FetchAll()
	return result{rows: rows}, err
}

// metrics snapshots the server registry through the wire metrics verb.
func (s *served) metrics() (map[string]int64, error) {
	m, _, err := s.conns[0].c.Metrics()
	return m, err
}
