package exec

import (
	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// DefaultBatchSize is the number of rows a batch operator aims to carry per
// NextBatch call. 1024 keeps a batch's column vectors comfortably inside
// the L2 cache for the schema widths this engine sees while amortizing the
// per-call overhead (interface dispatch, context polling, instrumentation)
// over a thousand rows.
const DefaultBatchSize = 1024

// Options configures one execution.
type Options struct {
	// RowExec selects the legacy row-at-a-time volcano engine instead of
	// the vectorized batch engine. The two engines are semantically
	// identical (TestDifferentialVectorized holds them to that); the row
	// path is kept as the differential baseline and as the compatibility
	// path for operators that have not been vectorized.
	RowExec bool
	// BatchSize overrides DefaultBatchSize (0 = default). Tests use sizes
	// around 1 and 1024 to exercise batch-boundary behavior.
	BatchSize int
	// Metrics, when non-nil, receives the engine's batch counters after
	// the run: exec.batch.rows (logical rows carried by batches),
	// exec.batch.batches (batches produced) and the exec.batch.selectivity
	// histogram (per-batch percentage of rows surviving a filter).
	Metrics *obsv.Registry
	// Snap pins the execution to an existing storage snapshot (e.g. a DML
	// statement reading and writing under one view). When nil, the run
	// acquires its own snapshot, so every statement executes against a
	// consistent multi-table view regardless.
	Snap *storage.Snapshot
}

// Batch is a column-oriented slice of rows flowing between batch operators:
// Cols[c][r] is column c of physical row r, with N physical rows. Sel, when
// non-nil, is the selection vector — the ascending physical indices of the
// rows that are logically present; a nil Sel means all N rows are live.
// Filters refine Sel instead of compacting the columns, so a predicate
// costs one index vector, not a copy of every column.
//
// Ownership: a batch returned by NextBatch is valid only until the next
// NextBatch or Close call on the same iterator. Operators reuse their
// output batch across calls, so consumers that buffer rows must copy them
// out (Batch.Row does).
type Batch struct {
	Cols [][]datum.Datum
	Sel  []int
	N    int
}

// Rows is the logical row count (selected rows).
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Live returns the physical index of the k-th live row.
func (b *Batch) Live(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// Row materializes physical row r as a freshly allocated Row, safe to keep
// past the batch's lifetime.
func (b *Batch) Row(r int) Row {
	out := make(Row, len(b.Cols))
	for c := range b.Cols {
		out[c] = b.Cols[c][r]
	}
	return out
}

// gather copies physical row r into buf (len(buf) == len(b.Cols)).
func (b *Batch) gather(r int, buf Row) {
	for c := range b.Cols {
		buf[c] = b.Cols[c][r]
	}
}

// reset prepares the batch to carry up to capacity physical rows of the
// given width, reusing the column vectors from previous calls.
//
// Capacity follows what the producer knows about its output, never a fixed
// batchSize × width per Open: a one-row point read must not pay for a
// thousand-row batch. Known-size producers (scans, sort and aggregate
// output) pass min(batchSize, rows still to emit). Producers whose output
// size is unknown (joins, the row-source bridge) pass estCapacity — the
// optimizer's cardinality estimate capped at batchSize — and call grow
// before every write. Column vectors are kept at their largest size, so a
// producer whose batches shrink never reallocates. Batches are not pooled
// across executions.
func (b *Batch) reset(width, capacity int) {
	if len(b.Cols) != width {
		b.Cols = make([][]datum.Datum, width)
	}
	for c := range b.Cols {
		if cap(b.Cols[c]) < capacity {
			b.Cols[c] = make([]datum.Datum, capacity)
		}
		b.Cols[c] = b.Cols[c][:capacity]
	}
	b.Sel = nil
	b.N = 0
}

// grow makes room for one more physical row when the batch is full,
// doubling its capacity up to limit while keeping the first N rows (and
// Sel, which indexes them). The caller stops writing once N reaches limit.
func (b *Batch) grow(limit int) {
	if len(b.Cols) == 0 || b.N < len(b.Cols[0]) {
		return
	}
	n := min(max(2*b.N, 1), limit)
	for c, col := range b.Cols {
		if cap(col) < n {
			wider := make([]datum.Datum, n)
			copy(wider, col[:b.N])
			col = wider
		}
		b.Cols[c] = col[:n]
	}
}

// appendRow adds one dense row (physical == logical) to the batch. The
// batch must have room for it (reset with enough capacity, or grow).
func (b *Batch) appendRow(r Row) {
	for c := range b.Cols {
		b.Cols[c][b.N] = r[c]
	}
	b.N++
}

// batchIterator is the vectorized operator interface: the volcano contract
// with batches instead of rows. NextBatch returns nil at end of input and
// never returns an empty batch.
type batchIterator interface {
	// Open prepares the iterator; outer supplies correlation bindings.
	Open(outer *Ctx) error
	// NextBatch returns the next batch of rows, or nil at end of input.
	NextBatch() (*Batch, error)
	Close() error
}

// RowIter adapts a batch subtree to the row-at-a-time iterator contract.
// It is the compatibility seam that lets operators migrate to batches
// incrementally: a not-yet-vectorized operator consumes its vectorized
// child through a RowIter and never sees a batch. Every Next materializes
// a fresh Row, so buffering consumers (sorts, joins, subquery caches) can
// keep the rows they are handed.
type RowIter struct {
	src batchIterator
	b   *Batch
	k   int
}

// NewRowIter wraps a batch iterator for row-at-a-time consumption.
func NewRowIter(src batchIterator) *RowIter { return &RowIter{src: src} }

func (it *RowIter) Open(outer *Ctx) error {
	it.b, it.k = nil, 0
	return it.src.Open(outer)
}

func (it *RowIter) Next() (Row, error) {
	for it.b == nil || it.k >= it.b.Rows() {
		b, err := it.src.NextBatch()
		if err != nil || b == nil {
			it.b = nil
			return nil, err
		}
		it.b, it.k = b, 0
	}
	r := it.b.Live(it.k)
	it.k++
	return it.b.Row(r), nil
}

func (it *RowIter) Close() error { return it.src.Close() }

// rowSourceIter adapts a row-at-a-time subtree to the batch contract by
// buffering up to batchSize rows per NextBatch. It carries operators that
// have not been vectorized (nested-loops and merge joins, window functions,
// set operations) through a batch plan.
type rowSourceIter struct {
	e     *env
	child iterator
	node  optimizer.PlanNode // the bridged node, for its estimate
	width int
	b     Batch
}

func (it *rowSourceIter) Open(outer *Ctx) error { return it.child.Open(outer) }

func (it *rowSourceIter) NextBatch() (*Batch, error) {
	if err := it.e.checkCancelBatch(); err != nil {
		return nil, err
	}
	it.b.reset(it.width, it.e.estCapacity(it.node))
	for it.b.N < it.e.batchSize {
		r, err := it.child.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		it.b.grow(it.e.batchSize)
		it.b.appendRow(r)
	}
	if it.b.N == 0 {
		return nil, nil
	}
	it.e.noteBatch(&it.b)
	return &it.b, nil
}

func (it *rowSourceIter) Close() error { return it.child.Close() }

// memBytes forwards the wrapped operator's buffered footprint so EXPLAIN
// ANALYZE memory sampling survives the adapter.
func (it *rowSourceIter) memBytes() int64 {
	if m, ok := it.child.(memReporter); ok {
		return m.memBytes()
	}
	return 0
}
