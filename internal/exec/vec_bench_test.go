package exec_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// benchDB is shared across engine benchmarks (building the medium dataset
// dominates otherwise).
var benchDB *storage.DB

func getBenchDB(b *testing.B) *storage.DB {
	if benchDB == nil {
		benchDB = testkit.NewDB(testkit.MediumSizes(), 1)
	}
	return benchDB
}

func benchEngines(b *testing.B, sql string) {
	db := getBenchDB(b)
	q := qtree.MustBind(sql, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, eng := range []struct {
		name string
		opts exec.Options
	}{{"row", exec.Options{RowExec: true}}, {"batch", exec.Options{}}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunWith(ctx, db, plan, eng.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineScanFilter(b *testing.B) {
	benchEngines(b, `SELECT e.emp_id, e.salary FROM employees e
	 WHERE e.salary > 2000 AND e.salary + 500 < 90000`)
}

func BenchmarkEngineHashJoin(b *testing.B) {
	benchEngines(b, `SELECT e.employee_name, d.department_name FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id AND e.salary > 2000`)
}

func BenchmarkEngineJoinAgg(b *testing.B) {
	benchEngines(b, `SELECT d.department_name, COUNT(*), AVG(e.salary) FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id GROUP BY d.department_name`)
}

// pointReadSQL is the served point read: a one-row EMP_PK probe through a
// bind parameter, planned once and re-executed per request.
const pointReadSQL = `SELECT e.emp_id, e.employee_name, e.dept_id, e.salary
 FROM employees e WHERE e.emp_id = :id`

func pointReadPlan(tb testing.TB, db *storage.DB) *optimizer.Plan {
	tb.Helper()
	plan, err := optimizer.New(db.Catalog).Optimize(qtree.MustBind(pointReadSQL, db.Catalog))
	if err != nil {
		tb.Fatal(err)
	}
	var probe *optimizer.IndexScan
	optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
		if s, ok := n.(*optimizer.IndexScan); ok {
			probe = s
		}
	})
	if probe == nil || probe.Index.Name != "EMP_PK" {
		tb.Fatalf("point read is not an EMP_PK probe:\n%s", optimizer.Explain(plan))
	}
	return plan
}

func BenchmarkEnginePointRead(b *testing.B) {
	db := getBenchDB(b)
	plan := pointReadPlan(b, db)
	ctx := context.Background()
	params := []datum.Datum{datum.NewInt(42)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunParams(ctx, db, plan, params); err != nil {
			b.Fatal(err)
		}
	}
}

// maxPointReadAlloc bounds the bytes one point read may allocate. Sizing
// each batch to the rows its producer can still emit keeps the probe to a
// few KiB; a batch reset to the fixed 1024-row capacity costs ≈320 KiB.
const maxPointReadAlloc = 32 << 10

// TestPointReadAllocBound pins the per-execution allocation of the served
// point read, averaged over many runs, so a reintroduced fixed-size batch
// shows up as a failure rather than as a benchmark drift.
func TestPointReadAllocBound(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	plan := pointReadPlan(t, db)
	ctx := context.Background()
	params := []datum.Datum{datum.NewInt(42)}
	run := func() {
		res, err := exec.RunParams(ctx, db, plan, params)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("point read returned %d rows, want 1", len(res.Rows))
		}
	}
	run() // warm up lazily built state outside the measurement
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > maxPointReadAlloc {
		t.Fatalf("point read allocates %d B per run, want <= %d", per, maxPointReadAlloc)
	}
}
