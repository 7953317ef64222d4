package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/transform"
)

// digest is an order-independent fingerprint of a result multiset: the
// row count plus the wrapping sum of per-row FNV-1a hashes. Equal
// multisets have equal digests whatever order the rows arrive in; floats
// hash by their exact bits, so results that agree only within the float
// tolerance fall back to a row-by-row comparison.
type digest struct {
	Rows int
	Sum  uint64
}

func digestRows(rows [][]datum.Datum) digest {
	d := digest{Rows: len(rows)}
	h := fnv.New64a()
	var buf [9]byte
	for _, r := range rows {
		h.Reset()
		for _, v := range r {
			buf[0] = byte(v.Kind())
			n := 1
			switch v.Kind() {
			case datum.KInt:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.Int()))
				n = 9
			case datum.KFloat:
				f := v.Float()
				if f == 0 {
					f = 0 // fold -0 into +0
				}
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
				n = 9
			case datum.KBool:
				if v.Bool() {
					buf[1] = 1
				} else {
					buf[1] = 0
				}
				n = 2
			case datum.KString:
				binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.Str())))
				h.Write(buf[:9])
				h.Write([]byte(v.Str()))
				continue
			}
			h.Write(buf[:n])
		}
		d.Sum += h.Sum64()
	}
	return d
}

// floatTol is the relative tolerance for float cells: plans that sum in a
// different order may differ in the last bits.
const floatTol = 1e-9

func cellEqual(a, b datum.Datum) bool {
	if a.Kind() == datum.KFloat || b.Kind() == datum.KFloat {
		if !(a.Kind() == datum.KFloat || a.Kind() == datum.KInt) || !(b.Kind() == datum.KFloat || b.Kind() == datum.KInt) {
			return false
		}
		x, y := a.Float(), b.Float()
		if x == y {
			return true
		}
		return math.Abs(x-y) <= floatTol*math.Max(math.Abs(x), math.Abs(y))
	}
	return datum.SameValue(a, b)
}

func rowEqual(a, b []datum.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !cellEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// cellCompare orders cells by kind, then value; floats and ints compare
// numerically so tolerance-equal rows sort next to each other.
func cellCompare(a, b datum.Datum) int {
	num := func(d datum.Datum) bool { return d.Kind() == datum.KInt || d.Kind() == datum.KFloat }
	if num(a) && num(b) {
		x, y := a.Float(), b.Float()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	if a.Kind() != b.Kind() {
		if a.Kind() < b.Kind() {
			return -1
		}
		return 1
	}
	switch a.Kind() {
	case datum.KString:
		switch {
		case a.Str() < b.Str():
			return -1
		case a.Str() > b.Str():
			return 1
		}
	case datum.KBool:
		if a.Bool() != b.Bool() {
			if !a.Bool() {
				return -1
			}
			return 1
		}
	}
	return 0
}

func sortRows(rows [][]datum.Datum) [][]datum.Datum {
	s := append([][]datum.Datum(nil), rows...)
	sort.SliceStable(s, func(i, j int) bool {
		a, b := s[i], s[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := cellCompare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return s
}

// sameMultiset reports whether two results hold the same rows in any
// order, floats compared to a relative floatTol. It sorts both sides and
// compares pairwise; when tolerance reorders near-equal rows it falls back
// to matching each row against any unused equal row.
func sameMultiset(a, b [][]datum.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortRows(a), sortRows(b)
	ok := true
	for i := range sa {
		if !rowEqual(sa[i], sb[i]) {
			ok = false
			break
		}
	}
	if ok || len(a) > 5000 {
		return ok
	}
	used := make([]bool, len(sb))
	for _, ra := range sa {
		found := false
		for j, rb := range sb {
			if !used[j] && rowEqual(ra, rb) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// referenceOptions is the oracle's optimizer configuration: every
// cost-based rule off and the heuristic phase skipped, so the reference
// result comes from the untransformed query.
func referenceOptions() cbqt.Options {
	opts := cbqt.DefaultOptions()
	opts.SkipHeuristics = true
	opts.RuleModes = map[string]cbqt.RuleMode{}
	for _, r := range transform.CostBasedRules() {
		opts.RuleModes[r.Name()] = cbqt.RuleOff
	}
	return opts
}

// referenceRows runs text in process with every transformation off.
func referenceRows(ctx context.Context, db *storage.DB, text string) ([][]datum.Datum, error) {
	q, err := qtree.BindSQL(text, db.Catalog)
	if err != nil {
		return nil, fmt.Errorf("reference bind: %w", err)
	}
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: referenceOptions()}
	res, err := o.OptimizeContext(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("reference optimize: %w", err)
	}
	out, err := exec.RunContext(ctx, db, res.Plan)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	rows := make([][]datum.Datum, len(out.Rows))
	for i, r := range out.Rows {
		rows[i] = r
	}
	return rows, nil
}
