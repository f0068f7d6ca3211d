package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		w, err := workloadByName(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.why != wl.Why {
			t.Errorf("%s: BENCHMARK.json why %q differs from the code's %q", wl.Name, wl.Why, w.why)
		}
	}
	return spec.benchSpec
}

// TestSmoke runs every workload briefly, timed and traced, and checks that
// each run passes its correctness checks and reports every metric named in
// BENCHMARK.json with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := execute(w, 1, 1, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failures=%v", w.name, traced, rec.Correct, rec.Attempted, rec.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, sm := range want {
				m, ok := rec.Metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, sm.Name)
				case m.Unit != sm.Unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.name, traced, sm.Name, m.Unit, sm.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, sm.Name, m.Value)
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "setup", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 2, Name: "core.NewSystem", Start: ms(10), End: ms(15)},
		{ID: 4, Parent: 2, Name: "core.Start", Start: ms(15), End: ms(25)},
		// Overlapping children count once.
		{ID: 5, Parent: 1, Name: "recovery", Start: ms(50), End: ms(80)},
		{ID: 6, Parent: 5, Name: "cluster.RecoverAllWithRetry", Start: ms(55), End: ms(70)},
		{ID: 7, Parent: 5, Name: "cluster.ReviveNode", Start: ms(65), End: ms(75)},
		// A child outliving its parent is clipped to the parent.
		{ID: 8, Parent: 1, Name: "window", Start: ms(90), End: ms(120)},
	}
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 30*time.Millisecond - 30*time.Millisecond - 10*time.Millisecond,
		2: 15 * time.Millisecond,
		3: 5 * time.Millisecond,
		4: 10 * time.Millisecond,
		5: 10 * time.Millisecond,
		6: 15 * time.Millisecond,
		7: 10 * time.Millisecond,
		8: 30 * time.Millisecond,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
	dur, self := spanStats(spans, got, "core.Start")
	if len(dur) != 1 || dur[0] != 10 || self[0] != 10 {
		t.Errorf("spanStats core.Start = %v %v", dur, self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	cases := []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"clear gain", []float64{80, 81, 79, 82, 78, 80, 81, 79, 80, 80}, true, 0.1, better},
		{"gain in a higher-is-better metric", []float64{120, 121, 119, 122, 118, 120, 121, 119, 120, 120}, false, 0.1, better},
		{"within noise", []float64{100, 100, 101, 99, 100, 101, 99, 100, 102, 98}, true, 0.1, unchanged},
		{"slower beyond the bound", []float64{120, 121, 119, 122, 118, 120, 121, 119, 120, 120}, true, 0.1, worse},
		{"slower within the bound", []float64{105, 106, 104, 107, 103, 105, 106, 104, 105, 105}, true, 0.1, unchanged},
		// Wins 8 of 10 pairs: short of nine tenths, so no gain is claimed.
		{"too few pairs won", []float64{80, 81, 79, 82, 78, 80, 81, 79, 120, 120}, true, 0.25, unchanged},
		{"no bound, consistent loss", []float64{120, 121, 119, 122, 118, 120, 121, 119, 120, 120}, true, 0, worse},
	}
	for _, c := range cases {
		if got := judge(parent, c.change, c.lower, c.bound).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 100, 60, 140, 100, 70, 130, 100, 100}
	if got := judge(noisy, []float64{140, 60, 100, 150, 50, 100, 130, 70, 110, 90}, true, 0.1).Verdict; got != unresolved {
		t.Errorf("noisy parent: verdict %s, want %s", got, unresolved)
	}
	if got := judge(noisy, []float64{10, 11, 12, 10, 11, 12, 10, 11, 12, 10}, true, 0.1).Verdict; got != better {
		t.Errorf("noisy parent, change beats every run: verdict %s, want %s", got, better)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {200, 0.95}, {20, 0.5}, {0, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
