package exec_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// boundarySizes puts EMPLOYEES just past two full default batches and
// empties JOB_HISTORY entirely, so scans cross the 1024-row boundary and
// every operator also sees a zero-row input.
func boundarySizes() testkit.Sizes {
	return testkit.Sizes{
		Employees:   2600,
		Departments: 30,
		Locations:   8,
		JobHistory:  0,
		Jobs:        10,
		Sales:       500,
		Accounts:    40,
	}
}

// boundaryQueries cover the vectorized operators at batch edges: filters
// that keep everything, cut everything, or select sparsely; aggregation
// (grouped and scalar-over-empty); hash joins including an empty build
// side; distinct; set operations; ROWNUM limits that cut mid-batch; and
// expression evaluation with NULLs, concatenation and LIKE.
var boundaryQueries = []string{
	`SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 3000`,
	`SELECT e.emp_id FROM employees e WHERE e.emp_id < 0`,
	`SELECT e.emp_id FROM employees e WHERE e.emp_id = 1025`,
	`SELECT j.emp_id FROM job_history j WHERE j.dept_id > 0`,
	`SELECT COUNT(*), MAX(j.dept_id) FROM job_history j`,
	`SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e GROUP BY e.dept_id`,
	`SELECT e.employee_name, d.department_name FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id AND e.salary > 2000`,
	`SELECT e.emp_id FROM employees e, job_history j WHERE e.emp_id = j.emp_id`,
	`SELECT e.emp_id FROM employees e WHERE e.dept_id NOT IN (SELECT d.loc_id FROM departments d)`,
	`SELECT e.emp_id FROM employees e
	 WHERE EXISTS (SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)`,
	`SELECT DISTINCT e.dept_id FROM employees e`,
	`SELECT e.dept_id FROM employees e MINUS SELECT d.loc_id FROM departments d`,
	`SELECT e.employee_name || '!', e.salary + 1 FROM employees e
	 WHERE e.dept_id IS NULL OR e.salary > 1000`,
	`SELECT e.emp_id FROM employees e WHERE e.employee_name LIKE '%a%'`,
	`SELECT v.emp_id FROM (SELECT e.emp_id emp_id FROM employees e ORDER BY e.emp_id) v
	 WHERE rownum <= 1500`,
	`SELECT v.emp_id FROM (SELECT e.emp_id emp_id FROM employees e ORDER BY e.emp_id) v
	 WHERE rownum <= 7`,
}

// lateEmployees is how many EMPLOYEES rows boundaryDB commits after the
// statistics were gathered: more than one default batch, so output made of
// them alone crosses the 1024-row boundary.
const lateEmployees = 1100

// boundaryDB builds the boundary dataset, then commits lateEmployees rows
// to EMPLOYEES without re-analyzing, the way rows written since the last
// ANALYZE look to the optimizer. They all belong to department 1 and earn
// far above the analyzed maximum salary, so predicates on them are
// estimated at zero rows and department 1 has far more employees than the
// others.
func boundaryDB(t *testing.T) *storage.DB {
	t.Helper()
	db := testkit.NewDB(boundarySizes(), 3)
	wb := db.NewBatch()
	for i := 0; i < lateEmployees; i++ {
		row := []datum.Datum{
			datum.NewInt(int64(100001 + i)),            // EMP_ID
			datum.NewString(fmt.Sprintf("late_%d", i)), // EMPLOYEE_NAME
			datum.NewInt(1),                            // DEPT_ID
			datum.NewFloat(2e6),                        // SALARY
			datum.Null,                                 // MGR_ID
			datum.NewInt(1),                            // JOB_ID
			datum.NewString("2020-01-01"),              // HIRE_DATE
		}
		if err := wb.Insert("EMPLOYEES", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Commit(wb); err != nil {
		t.Fatal(err)
	}
	return db
}

// growthCase drives an estimate-seeded producer — hash or nested-loops
// join output, or the row-source bridge under a window function or set
// operation — away from the batch capacity it starts at. ok pins the
// estimate-vs-output shape the case exists for: est is the optimizer's row
// estimate for the topmost such producer, rows the query's output, so a
// planner change that retires a case fails TestGrowthCaseShapes instead
// of quietly testing something else.
type growthCase struct {
	shape string
	sql   string
	ok    func(est float64, rows int) bool
}

var growthCases = []growthCase{
	{
		shape: "hash join output far above its estimate, crossing 1024 from a small start",
		sql: `SELECT e.emp_id, d.dept_id FROM employees e, departments d
		 WHERE e.dept_id = d.dept_id AND e.employee_name LIKE 'emp%'`,
		ok: func(est float64, rows int) bool { return est < 256 && rows > 2*1024 },
	},
	{
		shape: "join whose estimate is below one row, so its output starts at capacity 0",
		sql: `SELECT e.emp_id, d.department_name FROM employees e, departments d
		 WHERE e.dept_id = d.dept_id AND e.salary > 1000000`,
		ok: func(est float64, rows int) bool { return est < 1 && rows > 1024 },
	},
	{
		shape: "join whose estimate is far above its output",
		sql: `SELECT e.emp_id, d.department_name FROM employees e, departments d
		 WHERE e.dept_id = d.dept_id AND e.employee_name LIKE 'emp_77'`,
		ok: func(est float64, rows int) bool { return est >= 100 && rows >= 1 && float64(rows) < est/50 },
	},
	{
		shape: "lateral nested-loops join whose per-row match count varies",
		sql: `SELECT d.dept_id, e.emp_id FROM departments d, employees e
		 WHERE e.dept_id = d.dept_id AND d.dept_id < 4`,
		ok: func(est float64, rows int) bool { return rows > lateEmployees },
	},
	{
		shape: "outer nested-loops join mixing a >1024-match probe with padded rows",
		sql: `SELECT d.dept_id, e.emp_id FROM departments d LEFT OUTER JOIN employees e
		 ON e.dept_id = d.dept_id AND e.salary > 1000000 WHERE d.dept_id < 6`,
		ok: func(est float64, rows int) bool { return rows == lateEmployees+4 },
	},
	{
		shape: "window output crossing 1024 from a small estimate",
		sql: `SELECT e.emp_id, ROW_NUMBER() OVER (ORDER BY e.emp_id) FROM employees e
		 WHERE e.employee_name LIKE 'emp%'`,
		ok: func(est float64, rows int) bool { return est < 256 && rows > 2*1024 },
	},
	{
		shape: "set operation output crossing 1024 from a small estimate",
		sql: `SELECT e.emp_id FROM employees e WHERE e.employee_name LIKE 'emp%'
		 UNION ALL SELECT s.sale_id FROM sales s WHERE s.country_id LIKE '%'`,
		ok: func(est float64, rows int) bool { return est < 256 && rows > 2*1024 },
	},
	{
		shape: "set operation whose inputs are estimated at zero rows",
		sql: `SELECT e.emp_id FROM employees e WHERE e.salary > 1000000
		 UNION SELECT e.emp_id FROM employees e WHERE e.salary > 1500000`,
		ok: func(est float64, rows int) bool { return est <= 1 && rows == lateEmployees },
	},
}

// seededProducer returns the topmost plan node whose batch operator sizes
// its output from the optimizer's estimate: a join, window or set
// operation.
func seededProducer(n optimizer.PlanNode) optimizer.PlanNode {
	switch n.(type) {
	case *optimizer.Join, *optimizer.Window, *optimizer.SetNode:
		return n
	}
	for _, c := range n.Children() {
		if p := seededProducer(c); p != nil {
			return p
		}
	}
	return nil
}

// TestGrowthCaseShapes checks that every growth case still plans and
// produces the estimate-vs-output shape it was written for.
func TestGrowthCaseShapes(t *testing.T) {
	db := boundaryDB(t)
	for _, gc := range growthCases {
		plan := planSQL(t, db, gc.sql)
		p := seededProducer(plan.Root)
		if p == nil {
			t.Errorf("%s: no join, window or set operation in the plan\n%s", gc.shape, optimizer.Explain(plan))
			continue
		}
		res, err := exec.RunWith(context.Background(), db, plan, exec.Options{RowExec: true})
		if err != nil {
			t.Fatalf("%s: %v", gc.shape, err)
		}
		if est := p.Cost().Rows; !gc.ok(est, len(res.Rows)) {
			t.Errorf("%s: estimate %.1f, %d rows no longer fit the case\n%s",
				gc.shape, est, len(res.Rows), optimizer.Explain(plan))
		}
	}
}

// boundaryBatchSizes are the edge capacities: single-row batches, one off
// either side of the default, and the default itself.
var boundaryBatchSizes = []int{1, 2, 3, 1023, 1024, 1025}

func planSQL(t *testing.T, db *storage.DB, sql string) *optimizer.Plan {
	t.Helper()
	q := qtree.MustBind(sql, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v\nsql: %s", err, sql)
	}
	return plan
}

func sortedRows(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestBatchBoundaries runs every boundary query and growth case at every
// edge batch size and requires results identical to the row engine's. Any
// off-by-one in batch fill or growth, selection-vector refinement,
// mid-batch limit cuts or empty-input handling shows up as a row diff.
func TestBatchBoundaries(t *testing.T) {
	db := boundaryDB(t)
	ctx := context.Background()
	queries := append([]string(nil), boundaryQueries...)
	for _, gc := range growthCases {
		queries = append(queries, gc.sql)
	}
	for qi, sql := range queries {
		plan := planSQL(t, db, sql)
		ref, err := exec.RunWith(ctx, db, plan, exec.Options{RowExec: true})
		if err != nil {
			t.Fatalf("row engine: %v\nsql: %s", err, sql)
		}
		want := sortedRows(ref)
		for _, bs := range boundaryBatchSizes {
			t.Run(fmt.Sprintf("q%d/bs%d", qi, bs), func(t *testing.T) {
				res, err := exec.RunWith(ctx, db, plan, exec.Options{BatchSize: bs})
				if err != nil {
					t.Fatalf("batch engine (size %d): %v\nsql: %s", bs, err, sql)
				}
				got := sortedRows(res)
				if len(got) != len(want) {
					t.Fatalf("batch size %d: %d rows, row engine %d\nsql: %s",
						bs, len(got), len(want), sql)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("batch size %d: row %d = %q, row engine %q\nsql: %s",
							bs, i, got[i], want[i], sql)
					}
				}
			})
		}
	}
}
