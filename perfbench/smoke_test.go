package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly on the small datasets, untraced
// and traced, and requires correct results and every metric reported.
func TestSmoke(t *testing.T) {
	for name, sp := range workloads(true) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			work := t.TempDir()
			e2e, err := runE2E(ctx, sp, 3, 300*time.Millisecond, 2, work)
			if err != nil {
				t.Fatal(err)
			}
			if e2e.failed != 0 || e2e.attempted == 0 {
				t.Fatalf("untraced: %d of %d failed", e2e.failed, e2e.attempted)
			}
			for _, m := range endToEnd {
				if v := e2e.metrics[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
			tr, err := runTrace(ctx, sp, 3, 900*time.Millisecond, work)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 {
				t.Fatalf("traced: %d of %d failed", tr.failed, tr.attempted)
			}
			for _, m := range perLayer {
				if _, ok := tr.metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			// The workload design, as the traced run sees it.
			states, hits, commit := tr.metrics["cbqt.states_per_query"], tr.metrics["plancache.hit_ratio"], tr.metrics["storage.commit_us"]
			switch name {
			case "adhoc":
				if states <= 0 || hits > 0.01 || commit != 0 {
					t.Errorf("adhoc: states/query %v, plan-cache hit ratio %v, commit %v us", states, hits, commit)
				}
			case "oltp":
				if states != 0 || hits < 0.99 || commit <= 0 {
					t.Errorf("oltp: states/query %v, plan-cache hit ratio %v, commit %v us", states, hits, commit)
				}
			case "analytic":
				if states != 0 || hits < 0.99 || commit != 0 {
					t.Errorf("analytic: states/query %v, plan-cache hit ratio %v, commit %v us", states, hits, commit)
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if entries, _ := os.ReadDir(work); len(entries) != 0 {
				t.Errorf("run left %d entries in its work directory", len(entries))
			}
		})
	}
}

// TestMetricListsMatchBenchmarkDef keeps the printed metrics and the
// repository's BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkDef(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: reported %s [%s], listed %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, def.EndToEnd)
	check("per_layer", perLayer, def.PerLayer)
	wl := workloads(false)
	for _, w := range def.Workloads {
		if wl[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(def.Workloads) != len(wl) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(wl))
	}
}

func TestCompareFlagsUnsteadyAndWorse(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`), 0o644)
	write := func(sub string, qps, setup []float64) string {
		d := filepath.Join(dir, sub)
		os.MkdirAll(d, 0o755)
		for i := range qps {
			r := Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{
				"qps": {Value: qps[i], Unit: "1/s"}, "setup_s": {Value: setup[i], Unit: "s"},
			}}
			line, _ := json.Marshal(r)
			os.WriteFile(filepath.Join(d, "oltp-"+string(rune('a'+i))+".out"), append([]byte("# noise\n"), line...), 0o644)
		}
		return d
	}
	base := write("a", []float64{100, 101, 99, 100}, []float64{1, 2, 1, 3})
	same := write("b", []float64{98, 100, 99, 101}, []float64{1, 1, 1, 1})
	worse := write("c", []float64{80, 81, 79, 80}, []float64{1, 1, 1, 1})
	var out strings.Builder
	if code := runCompare(bench, []string{base, same}, &out); code != 0 {
		t.Errorf("agreeing sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(bench, []string{base, worse}, &out); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("20%% slower set: exit %d\n%s", code, out.String())
	}
	noisy := write("d", []float64{50, 100, 150, 100}, []float64{1, 1, 1, 1})
	out.Reset()
	if code := runCompare(bench, []string{noisy}, &out); code != 1 || !strings.Contains(out.String(), "UNSTEADY") {
		t.Errorf("noisy set: exit %d\n%s", code, out.String())
	}
}
