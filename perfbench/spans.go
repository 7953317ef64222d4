package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer during the traced replay. Spans of
// one request share Req; Parent is the ID of the enclosing span (0 for a
// root). Start and End are nanoseconds since the recorder was created.
type Span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for one single-goroutine replay. A
// disabled recorder (on == false) makes begin/end near-free, which is how
// the tracing overhead is measured: the same replay with spans off and on.
type recorder struct {
	on    bool
	base  time.Time
	req   int64
	spans []Span
	open  []int // indexes into spans of the currently open spans
}

func newRecorder(on bool) *recorder {
	r := &recorder{on: on, base: time.Now()}
	if on {
		r.spans = make([]Span, 0, 1<<16)
	}
	return r
}

// request sets the request id stamped on subsequent spans.
func (r *recorder) request(id int64) { r.req = id }

// begin opens a span for layer under the innermost open span and returns
// its handle for end; -1 when recording is off.
func (r *recorder) begin(layer string) int {
	if r == nil || !r.on {
		return -1
	}
	var parent int64
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, Span{
		Req: r.req, ID: int64(len(r.spans) + 1), Parent: parent, Layer: layer,
		Start: int64(time.Since(r.base)),
	})
	h := len(r.spans) - 1
	r.open = append(r.open, h)
	return h
}

// end closes the span begun with handle h (spans close innermost first).
func (r *recorder) end(h int) {
	if h < 0 {
		return
	}
	r.spans[h].End = int64(time.Since(r.base))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once; a child running past its parent is clipped).
func selfTimes(spans []Span) []time.Duration {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := coverage(children[i], s.Start, s.End)
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coverage is the total length of the union of intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, v := range iv {
		a, b := v[0], v[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// layerSelf sums self time per layer.
func layerSelf(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Layer] += self[i]
	}
	return out
}

// layerCount counts spans per layer.
func layerCount(spans []Span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Layer]++
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
