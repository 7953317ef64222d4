package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "b", Start: 20, End: 50}, // overlaps a: union 10..50
		{ID: 4, Parent: 3, Layer: "c", Start: 25, End: 35},
		{ID: 5, Parent: 1, Layer: "d", Start: 90, End: 120}, // runs past its parent: clipped to 90..100
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s) self = %d, want %d", spans[i].ID, spans[i].Layer, got[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["request"] != 50 || by["b"] != 20 {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestCoverageUnion(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 25}}
	if got := coverage(iv, 0, 100); got != 3+7+5 {
		t.Errorf("coverage = %d, want 15", got)
	}
	if got := coverage([][2]int64{{0, 50}}, 10, 20); got != 10 {
		t.Errorf("clipped coverage = %d, want 10", got)
	}
	if got := coverage(nil, 0, 10); got != 0 {
		t.Errorf("empty coverage = %d", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder(true)
	r.request(7)
	root := r.begin("request")
	a := r.begin("a")
	r.end(a)
	b := r.begin("b")
	c := r.begin("c")
	r.end(c)
	r.end(b)
	r.end(root)
	if len(r.spans) != 4 {
		t.Fatalf("got %d spans", len(r.spans))
	}
	parents := map[string]int64{}
	for _, s := range r.spans {
		if s.Req != 7 {
			t.Errorf("span %s has request %d", s.Layer, s.Req)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Layer)
		}
		parents[s.Layer] = s.Parent
	}
	if parents["request"] != 0 || parents["a"] != 1 || parents["b"] != 1 || parents["c"] != 3 {
		t.Errorf("parents = %v", parents)
	}

	off := newRecorder(false)
	if h := off.begin("x"); h != -1 {
		t.Errorf("disabled recorder returned handle %d", h)
	}
	off.end(-1)
	var none *recorder
	none.end(none.begin("x"))
	if len(off.spans) != 0 {
		t.Error("disabled recorder kept a span")
	}
}
