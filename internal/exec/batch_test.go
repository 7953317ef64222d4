package exec

import (
	"testing"

	"repro/internal/datum"
)

// fillTo appends rows (i, -i) until the batch holds n rows, growing it the
// way the estimate-seeded producers do.
func fillTo(b *Batch, n, limit int) {
	for b.N < n {
		b.grow(limit)
		b.appendRow(Row{datum.NewInt(int64(b.N)), datum.NewInt(int64(-b.N))})
	}
}

func checkRows(t *testing.T, b *Batch) {
	t.Helper()
	for r := 0; r < b.N; r++ {
		if got := b.Cols[0][r].Int(); got != int64(r) {
			t.Fatalf("row %d: col 0 = %d, want %d", r, got, r)
		}
		if got := b.Cols[1][r].Int(); got != int64(-r) {
			t.Fatalf("row %d: col 1 = %d, want %d", r, got, -r)
		}
	}
}

// TestBatchGrowKeepsRows grows a batch from capacity 0 past several
// doublings and checks that every row written before a growth survives it,
// that the selection vector is untouched, and that growth stops at the
// limit.
func TestBatchGrowKeepsRows(t *testing.T) {
	var b Batch
	b.reset(2, 0)
	fillTo(&b, 3, 10)
	b.Sel = []int{0, 2}
	fillTo(&b, 10, 10)
	checkRows(t, &b)
	if len(b.Sel) != 2 || b.Sel[0] != 0 || b.Sel[1] != 2 {
		t.Fatalf("Sel = %v after growth, want [0 2]", b.Sel)
	}
	for c := range b.Cols {
		if n := len(b.Cols[c]); n != 10 {
			t.Fatalf("col %d capacity %d, want the limit 10", c, n)
		}
	}
	b.grow(10) // full at the limit: no room is made
	if n := len(b.Cols[0]); n != 10 {
		t.Fatalf("grow past the limit: capacity %d, want 10", n)
	}
}

// TestBatchShrinkThenGrowReuses resets a grown batch to a smaller capacity
// and grows it again: both the shrink and the regrowth must reuse the
// column vectors instead of allocating.
func TestBatchShrinkThenGrowReuses(t *testing.T) {
	var b Batch
	b.reset(2, 1)
	fillTo(&b, 64, 64)
	allocs := testing.AllocsPerRun(10, func() {
		b.reset(2, 2)
		fillTo(&b, 2, 64)
		b.reset(2, 1)
		fillTo(&b, 64, 64)
	})
	if allocs != 0 {
		t.Fatalf("shrink then regrow allocated %.0f times, want 0", allocs)
	}
	checkRows(t, &b)
}
