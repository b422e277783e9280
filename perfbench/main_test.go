package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/service"
)

func TestSelfNs(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	kid := func(start, end int64) span { return span{Parent: 1, Start: start, End: end} }
	cases := []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{kid(110, 120), kid(150, 170)}, 70},
		{"overlapping", []span{kid(110, 140), kid(130, 160)}, 50},
		{"nested", []span{kid(110, 180), kid(120, 130), kid(150, 170)}, 30},
		{"clipped to parent", []span{kid(50, 120), kid(190, 250)}, 70},
		{"outside parent", []span{kid(10, 90), kid(210, 300)}, 100},
		{"covers parent", []span{kid(100, 200), kid(120, 140)}, 0},
		{"unsorted", []span{kid(150, 170), kid(110, 140), kid(130, 155)}, 40},
	}
	for _, c := range cases {
		if got := selfNs(parent, c.kids); got != c.want {
			t.Errorf("%s: selfNs = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesUsesDirectChildrenOnly(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "handler", Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: "solve", Start: 30, End: 70},
		{ID: 5, Parent: 4, Name: "phase.pack", Start: 30, End: 50},
		{ID: 6, Parent: 4, Name: "phase.extract", Start: 40, End: 60}, // overlaps pack
	}
	self := selfTimes(spans)
	want := map[string]int64{"client": 20, "router": 20, "handler": 20, "solve": 10, "phase.pack": 20, "phase.extract": 20}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("%s self = %v, want [%d]", name, got, w)
		}
	}
}

func TestOracleFlagsWrongAnswers(t *testing.T) {
	in := buildWarmSweep(3, 1)
	s, err := repro.NewSolver(in.plats[0].p)
	if err != nil {
		t.Fatal(err)
	}
	q := query{plat: 0, op: service.OpMinMakespan, n: 50}
	m, _, err := s.MinMakespan(q.n)
	if err != nil {
		t.Fatal(err)
	}
	right := outcome{q: q, tasks: q.n, makespan: m}
	wrong, degraded := right, right
	wrong.makespan++
	degraded.degraded = true
	refused := outcome{q: q, err: errors.New("server answered 429")}
	bad := newOracle(in).check([]outcome{right, wrong, degraded, refused})
	if bad[0] != "" {
		t.Errorf("correct answer flagged: %s", bad[0])
	}
	for i, what := range []string{"wrong", "degraded", "refused"} {
		if bad[i+1] == "" {
			t.Errorf("%s answer passed the oracle", what)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q/%q, table %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the tables %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: file %+v, table %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || d.moves == "" {
			t.Errorf("per_layer %d: file %+v, table %+v", i, m, d)
		}
	}
}

// runCLI runs one workload through the command's own entry point.
func runCLI(t *testing.T, workload string, seed int64, trace int) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "0.6",
		"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
	code := cli(args, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not a result (exit %d): %v\n%s%s", workload, trace, code, err, out, stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%d: exit %d, result %+v\n%s%s", workload, trace, code, res, out, stderr.String())
	}
	return res, out
}

// TestShortRunEveryWorkload makes one short run of every workload in
// both modes, on a seed that was not used while the benchmark was tuned.
// Every metric BENCHMARK.json names must be printed with its unit, no
// answer may fail, and each workload must exercise the path it was
// built for.
func TestShortRunEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	const seed = 424242
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, out := runCLI(t, w.name, seed, trace)
			if !strings.Contains(out, "fail_ratio=0\n") {
				t.Errorf("%s trace=%d: no fail_ratio=0 line", w.name, trace)
			}
			type nameUnit struct{ name, unit string }
			var names []nameUnit
			if trace == 0 {
				for _, m := range bf.EndToEnd {
					names = append(names, nameUnit{m.Name, m.Unit})
				}
			} else {
				for _, m := range bf.PerLayer {
					names = append(names, nameUnit{m.Name, m.Unit})
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(names))
			}
			for _, m := range names {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.name, v, m.unit)
				}
				if !strings.Contains(out, fmt.Sprintf("metric %s %s ", w.name, m.name)) {
					t.Errorf("%s trace=%d: metric %s not printed", w.name, trace, m.name)
				}
			}
			if trace == 1 {
				checkPath(t, w.name, res.Metrics)
			}
		}
	}
}

// checkPath asserts that a traced run exercised its workload's path.
func checkPath(t *testing.T, workload string, m map[string]metricValue) {
	t.Helper()
	if v := m["cluster.failovers"].Value; v != 0 {
		t.Errorf("%s: %g failovers", workload, v)
	}
	switch workload {
	case "warm-sweep":
		if v := m["service.memo_hit_ratio"].Value; v >= 0.1 {
			t.Errorf("warm-sweep memo_hit_ratio %g, want < 0.1", v)
		}
	case "cold-churn":
		if v := m["plancache.rehydrate_ratio"].Value; v <= 0 || v >= 1 {
			t.Errorf("cold-churn rehydrate_ratio %g, want strictly between 0 and 1", v)
		}
	case "routed-mix":
		if v := m["cluster.forwards"].Value; v == 0 {
			t.Errorf("routed-mix forwarded nothing")
		}
	}
}
