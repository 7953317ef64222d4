package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet maps workload -> metric -> the values of every run.
type resultSet map[string]map[string][]float64

// loadResults reads every file in dir named <workload>-<anything> holding
// a run's output: its last JSON result plus the "name value unit" lines
// printed before it, so metrics outside the JSON result are summarized
// too.
func loadResults(dir string) (resultSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := resultSet{}
	for _, e := range entries {
		wl, _, ok := strings.Cut(e.Name(), "-")
		if e.IsDir() || !ok {
			continue
		}
		vals, err := runMetrics(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if vals == nil {
			continue
		}
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, v := range vals {
			out[wl][name] = append(out[wl][name], v)
		}
	}
	return out, nil
}

// runMetrics returns the metrics of one run's output, nil when it holds
// no JSON result.
func runMetrics(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lines := map[string]float64{}
	var last *Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r Result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			last = &r
			continue
		}
		if fs := strings.Fields(sc.Text()); len(fs) == 3 {
			if v, err := strconv.ParseFloat(fs[1], 64); err == nil {
				lines[fs[0]] = v
			}
		}
	}
	if err := sc.Err(); err != nil || last == nil {
		return nil, err
	}
	for name, m := range last.Metrics {
		lines[name] = m.Value
	}
	return lines, nil
}

// runCompare prints, per workload and end-to-end metric, the median,
// quartiles and spread of each result directory. With one directory a
// metric is "steady" when its spread is within its bound (setup_s is
// exempt, as in the acceptance rule). With two, it also reports whether
// the second median is no worse than the first by more than the bound.
// Printed metrics outside BENCHMARK.json follow as information, unchecked.
// It returns 0 when every check holds, 1 when one fails, 2 on bad input.
func runCompare(benchPath string, dirs []string, w io.Writer) int {
	if len(dirs) < 1 || len(dirs) > 2 {
		fmt.Fprintln(os.Stderr, "perfbench -compare: want one or two result directories")
		return 2
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench -compare: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench -compare: %s: %v\n", benchPath, err)
		return 2
	}
	var sets []resultSet
	for _, d := range dirs {
		rs, err := loadResults(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench -compare: %v\n", err)
			return 2
		}
		sets = append(sets, rs)
	}
	code := 0
	for _, wl := range sortedKeys(sets[0]) {
		fmt.Fprintf(w, "## %s\n", wl)
		fmt.Fprintf(w, "%-18s %5s %12s %12s %12s %8s %6s  %s\n", "metric", "runs", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range def.EndToEnd {
			for i, rs := range sets {
				vals := rs[wl][m.Name]
				if len(vals) == 0 {
					fmt.Fprintf(w, "%-18s missing in %s\n", m.Name, dirs[i])
					code = 1
					continue
				}
				q1, q3 := quartiles(vals)
				sp := spread(vals)
				verdict := "steady"
				if m.Name == "setup_s" {
					verdict = "exempt"
				} else if sp > m.Bound {
					verdict = "UNSTEADY"
					code = 1
				} else if sp > m.Bound/3 {
					verdict = "steady (spread above bound/3)"
				}
				if i == 1 {
					if base := sets[0][wl][m.Name]; len(base) > 0 {
						if worse := worseBy(median(base), median(vals), m.Better); worse > m.Bound {
							verdict += fmt.Sprintf("; WORSE by %.1f%%", worse*100)
							code = 1
						} else {
							verdict += fmt.Sprintf("; agrees (%+.1f%% worse)", worse*100)
						}
					}
				}
				fmt.Fprintf(w, "%-18s %5d %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
					m.Name, len(vals), median(vals), q1, q3, sp*100, m.Bound*100, verdict)
			}
		}
		bounded := map[string]bool{}
		for _, m := range def.EndToEnd {
			bounded[m.Name] = true
		}
		for _, name := range sortedKeys(sets[0][wl]) {
			if bounded[name] {
				continue
			}
			for _, rs := range sets {
				if vals := rs[wl][name]; len(vals) > 0 {
					q1, q3 := quartiles(vals)
					fmt.Fprintf(w, "%-18s %5d %12.4f %12.4f %12.4f %7.1f%% %6s  info\n",
						name, len(vals), median(vals), q1, q3, spread(vals)*100, "-")
				}
			}
		}
	}
	return code
}

// worseBy is how much worse b is than a, as a share of a (negative when
// b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
