package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// The oltp workload: an application server's connection pool of two
// connections against the medium dataset on the disk engine (WAL, fsync
// before ack). About 90% of requests are prepared point and short-range
// reads over the EMP_PK, DEPT_PK, SALES_EMP and JH_EMP indexes; about 10%
// are writes (salary updates, sales inserts, deletes of the connection's
// own inserted sales). Each connection owns a disjoint, contiguous range
// of employee ids and only reads and writes rows of that range (plus the
// read-only departments), so every result is deterministic and checked
// against the connection's own model.

// oltp statement indexes into oltpSpec.stmts.
const (
	oltpEmpByID = iota
	oltpDeptByID
	oltpSalesByEmp
	oltpHistoryByEmp
	oltpEmpRange
	oltpUpdateSalary
	oltpInsertSale
	oltpDeleteSale
)

// oltpRangeWidth is the number of ids a short-range read covers.
const oltpRangeWidth = 20

func oltpSpec(sizes testkit.Sizes) *spec {
	return &spec{
		name:    "oltp",
		sizes:   sizes,
		disk:    true,
		conns:   2,
		segment: 256,
		stmts: []string{
			oltpEmpByID:      "SELECT e.emp_id, e.employee_name, e.dept_id, e.salary FROM employees e WHERE e.emp_id = :id",
			oltpDeptByID:     "SELECT d.dept_id, d.department_name, d.loc_id, d.budget FROM departments d WHERE d.dept_id = :id",
			oltpSalesByEmp:   "SELECT s.sale_id, s.amount FROM sales s WHERE s.emp_id = :id",
			oltpHistoryByEmp: "SELECT j.job_id, j.start_date FROM job_history j WHERE j.emp_id = :id",
			oltpEmpRange:     "SELECT e.emp_id, e.salary FROM employees e WHERE e.emp_id BETWEEN :lo AND :hi",
			oltpUpdateSalary: "UPDATE employees e SET salary = :sal WHERE e.emp_id = :id",
			oltpInsertSale: "INSERT INTO sales (sale_id, emp_id, dept_id, amount, country_id, state_id, city_id) " +
				"VALUES (:sid, :emp, :dept, :amt, 'US', 'CA', 'city_1')",
			oltpDeleteSale: "DELETE FROM sales s WHERE s.sale_id = :sid",
		},
		params: [][]string{
			oltpEmpRange:     {"LO", "HI"},
			oltpUpdateSalary: {"ID", "SAL"},
			oltpInsertSale:   {"SID", "EMP", "DEPT", "AMT"},
			oltpDeleteSale:   {"SID"},
		},
		newStream: newOLTPStream,
	}
}

type sale struct {
	id     int64
	amount float64
}

// oltpStream is one connection's request generator and the model of the
// rows it owns: employees lo..hi, their sales and job history.
type oltpStream struct {
	rng    *rand.Rand
	lo, hi int64
	depts  map[int64][]datum.Datum // read-only: every department row
	emps   map[int64][]datum.Datum // emp_id, name, dept_id, salary
	sales  map[int64][]sale        // by emp_id
	hist   map[int64][][]datum.Datum
	// mineEmp maps each sale this connection inserted to its employee.
	mineEmp map[int64]int64
	// planned lists the sales the generated requests insert and do not
	// yet delete: next runs ahead of check, so it keeps its own list.
	planned []int64
	nextSID int64
	nDepts  int
}

func newOLTPStream(db *storage.DB, seed int64, conn int) (stream, error) {
	snap := db.Snapshot()
	emps := snap.Table("EMPLOYEES")
	n := int64(emps.NumVisible())
	per := n / 2
	s := &oltpStream{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(conn))),
		lo:      int64(conn)*per + 1,
		hi:      int64(conn+1) * per,
		depts:   map[int64][]datum.Datum{},
		emps:    map[int64][]datum.Datum{},
		sales:   map[int64][]sale{},
		hist:    map[int64][][]datum.Datum{},
		mineEmp: map[int64]int64{},
		nextSID: 10_000_000 + int64(conn)*10_000_000,
	}
	for _, r := range snap.Table("DEPARTMENTS").VisibleRows() {
		s.depts[r[0].Int()] = []datum.Datum{r[0], r[1], r[2], r[3]}
	}
	s.nDepts = len(s.depts)
	for _, r := range emps.VisibleRows() {
		if id := r[0].Int(); s.owns(id) {
			s.emps[id] = []datum.Datum{r[0], r[1], r[2], r[3]}
		}
	}
	if int64(len(s.emps)) != per {
		return nil, fmt.Errorf("oltp: connection %d owns %d employees, want %d", conn, len(s.emps), per)
	}
	for _, r := range snap.Table("SALES").VisibleRows() {
		if emp := r[1].Int(); s.owns(emp) {
			s.sales[emp] = append(s.sales[emp], sale{id: r[0].Int(), amount: r[3].Float()})
		}
	}
	for _, r := range snap.Table("JOB_HISTORY").VisibleRows() {
		if emp := r[0].Int(); s.owns(emp) {
			s.hist[emp] = append(s.hist[emp], []datum.Datum{r[1], r[3]})
		}
	}
	return s, nil
}

func (s *oltpStream) owns(id int64) bool { return id >= s.lo && id <= s.hi }

func (s *oltpStream) emp() int64 { return s.lo + s.rng.Int63n(s.hi-s.lo+1) }

func ints(vs ...int64) []datum.Datum {
	out := make([]datum.Datum, len(vs))
	for i, v := range vs {
		out[i] = datum.NewInt(v)
	}
	return out
}

// warm runs every statement once: the update rewrites a salary with its
// current value and the inserted sale is deleted again, so the model is
// unchanged.
func (s *oltpStream) warm() []request {
	e := s.lo
	sid := s.nextSID
	return []request{
		{stmt: oltpEmpByID, binds: ints(e)},
		{stmt: oltpDeptByID, binds: ints(1)},
		{stmt: oltpSalesByEmp, binds: ints(e)},
		{stmt: oltpHistoryByEmp, binds: ints(e)},
		{stmt: oltpEmpRange, binds: ints(e, e+oltpRangeWidth-1)},
		{stmt: oltpUpdateSalary, write: true, binds: []datum.Datum{datum.NewInt(e), s.emps[e][3]}},
		s.insert(e, sid),
		{stmt: oltpDeleteSale, write: true, binds: ints(sid)},
	}
}

func (s *oltpStream) insert(emp, sid int64) request {
	amt := float64(s.rng.Intn(10000)) / 10
	return request{stmt: oltpInsertSale, write: true, binds: []datum.Datum{
		datum.NewInt(sid), datum.NewInt(emp), datum.NewInt(int64(1 + s.rng.Intn(s.nDepts))), datum.NewFloat(amt),
	}}
}

func (s *oltpStream) next() request {
	p := s.rng.Intn(100)
	switch {
	case p < 30:
		return request{stmt: oltpEmpByID, binds: ints(s.emp())}
	case p < 45:
		return request{stmt: oltpDeptByID, binds: ints(int64(1 + s.rng.Intn(s.nDepts)))}
	case p < 65:
		return request{stmt: oltpSalesByEmp, binds: ints(s.emp())}
	case p < 80:
		return request{stmt: oltpHistoryByEmp, binds: ints(s.emp())}
	case p < 90:
		lo := s.lo + s.rng.Int63n(s.hi-s.lo+1-oltpRangeWidth)
		return request{stmt: oltpEmpRange, binds: ints(lo, lo+oltpRangeWidth-1)}
	case p < 94:
		sal := float64(1000 + s.rng.Intn(10000))
		return request{stmt: oltpUpdateSalary, write: true, binds: []datum.Datum{datum.NewInt(s.emp()), datum.NewFloat(sal)}}
	case p < 98 || len(s.planned) == 0:
		s.nextSID++
		s.planned = append(s.planned, s.nextSID)
		return s.insert(s.emp(), s.nextSID)
	default:
		i := s.rng.Intn(len(s.planned))
		sid := s.planned[i]
		s.planned = append(s.planned[:i], s.planned[i+1:]...)
		return request{stmt: oltpDeleteSale, write: true, binds: ints(sid)}
	}
}

func (s *oltpStream) check(req request, res result) error {
	var want [][]datum.Datum
	switch req.stmt {
	case oltpEmpByID:
		want = [][]datum.Datum{s.emps[req.binds[0].Int()]}
	case oltpDeptByID:
		want = [][]datum.Datum{s.depts[req.binds[0].Int()]}
	case oltpSalesByEmp:
		for _, sl := range s.sales[req.binds[0].Int()] {
			want = append(want, []datum.Datum{datum.NewInt(sl.id), datum.NewFloat(sl.amount)})
		}
	case oltpHistoryByEmp:
		want = s.hist[req.binds[0].Int()]
	case oltpEmpRange:
		for id := req.binds[0].Int(); id <= req.binds[1].Int(); id++ {
			e := s.emps[id]
			want = append(want, []datum.Datum{e[0], e[3]})
		}
	default:
		if res.affected != 1 {
			return fmt.Errorf("oltp: %s affected %d rows, want 1", describe(req), res.affected)
		}
		s.apply(req)
		return nil
	}
	if !sameMultiset(res.rows, want) {
		return fmt.Errorf("oltp: %s returned %d rows %v, model has %d rows %v",
			describe(req), len(res.rows), head(res.rows), len(want), head(want))
	}
	return nil
}

// apply advances the model by an acknowledged write.
func (s *oltpStream) apply(req request) {
	switch req.stmt {
	case oltpUpdateSalary:
		e := s.emps[req.binds[0].Int()]
		e[3] = datum.NewFloat(req.binds[1].Float())
	case oltpInsertSale:
		sid, emp := req.binds[0].Int(), req.binds[1].Int()
		s.sales[emp] = append(s.sales[emp], sale{id: sid, amount: req.binds[3].Float()})
		s.mineEmp[sid] = emp
	case oltpDeleteSale:
		sid := req.binds[0].Int()
		emp := s.mineEmp[sid]
		delete(s.mineEmp, sid)
		list := s.sales[emp]
		for i, sl := range list {
			if sl.id == sid {
				s.sales[emp] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
}

// verifyDurable checks a recovered database against the model: every
// owned employee's salary and every owned employee's sales, including
// the inserts and deletes this connection had acknowledged.
func (s *oltpStream) verifyDurable(db *storage.DB) error {
	snap := db.Snapshot()
	got := map[int64]float64{}
	for _, r := range snap.Table("EMPLOYEES").VisibleRows() {
		if id := r[0].Int(); s.owns(id) {
			got[id] = r[3].Float()
		}
	}
	for id, e := range s.emps {
		if sal, ok := got[id]; !ok || sal != e[3].Float() {
			return fmt.Errorf("durability: employee %d salary %v after recovery, acknowledged %v", id, sal, e[3].Float())
		}
	}
	gotSales := map[int64][]sale{}
	for _, r := range snap.Table("SALES").VisibleRows() {
		if emp := r[1].Int(); s.owns(emp) {
			gotSales[emp] = append(gotSales[emp], sale{id: r[0].Int(), amount: r[3].Float()})
		}
	}
	for emp := s.lo; emp <= s.hi; emp++ {
		a, b := sortedSales(gotSales[emp]), sortedSales(s.sales[emp])
		if len(a) != len(b) {
			return fmt.Errorf("durability: employee %d has %d sales after recovery, acknowledged %d", emp, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("durability: employee %d sale %+v after recovery, acknowledged %+v", emp, a[i], b[i])
			}
		}
	}
	return nil
}

func sortedSales(in []sale) []sale {
	out := append([]sale(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func describe(req request) string {
	if req.stmt < 0 {
		return fmt.Sprintf("%.60q", req.text)
	}
	return fmt.Sprintf("statement %d %v", req.stmt, req.binds)
}

func head(rows [][]datum.Datum) [][]datum.Datum {
	if len(rows) > 3 {
		return rows[:3]
	}
	return rows
}
