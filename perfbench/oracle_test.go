package main

import (
	"math"
	"testing"

	"repro/internal/datum"
)

func row(vs ...datum.Datum) []datum.Datum { return vs }

func TestDigestIgnoresOrderButCountsDuplicates(t *testing.T) {
	a := [][]datum.Datum{
		row(datum.NewInt(1), datum.NewString("x")),
		row(datum.NewInt(2), datum.NewFloat(0.5)),
		row(datum.Null, datum.NewBool(true)),
	}
	b := [][]datum.Datum{a[2], a[0], a[1]}
	if digestRows(a) != digestRows(b) {
		t.Error("digest depends on row order")
	}
	if digestRows(a) == digestRows(append(a[:2:2], a[0])) {
		t.Error("digest does not distinguish a duplicated row")
	}
	if digestRows([][]datum.Datum{row(datum.NewString("ab"), datum.NewString("c"))}) ==
		digestRows([][]datum.Datum{row(datum.NewString("a"), datum.NewString("bc"))}) {
		t.Error("digest confuses string boundaries")
	}
	if digestRows([][]datum.Datum{row(datum.NewFloat(0))}) != digestRows([][]datum.Datum{row(datum.NewFloat(math.Copysign(0, -1)))}) {
		t.Error("-0 and +0 digest differently")
	}
}

func TestSameMultisetToleratesFloatNoise(t *testing.T) {
	a := [][]datum.Datum{
		row(datum.NewString("d1"), datum.NewFloat(1.0/3)),
		row(datum.NewString("d2"), datum.NewFloat(2)),
	}
	b := [][]datum.Datum{
		row(datum.NewString("d2"), datum.NewInt(2)),
		row(datum.NewString("d1"), datum.NewFloat(1.0/3*(1+1e-12))),
	}
	if !sameMultiset(a, b) {
		t.Error("rows equal within 1e-9 compare unequal")
	}
	c := [][]datum.Datum{a[0], row(datum.NewString("d2"), datum.NewFloat(2.001))}
	if sameMultiset(a, c) {
		t.Error("rows differing by 5e-4 compare equal")
	}
	if sameMultiset(a, a[:1]) {
		t.Error("results of different sizes compare equal")
	}
	// Near-equal floats that sort in a different order on each side
	// still match through the fallback.
	x := [][]datum.Datum{row(datum.NewFloat(1), datum.NewString("b")), row(datum.NewFloat(1+1e-12), datum.NewString("a"))}
	y := [][]datum.Datum{row(datum.NewFloat(1+1e-12), datum.NewString("b")), row(datum.NewFloat(1), datum.NewString("a"))}
	if !sameMultiset(x, y) {
		t.Error("tolerance fallback failed")
	}
}
