package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict names what a comparison may conclude.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// comparison is one workload x metric row.
type comparison struct {
	Workload, Metric   string
	Parent, Change     []float64
	PMed, PQ1, PQ3     float64
	CMed, CQ1, CQ3     float64
	Wins, Losses, Pair int
	Verdict            string
}

// judge applies the benchmark's rule to the runs of one metric. Runs pair
// up in order. The change is better only when it wins at least nine
// tenths of the pairs (ties count for neither side) and the medians differ
// by more than the parent's own spread (its interquartile distance).
// Otherwise, where the metric has a bound: if either side's spread is
// wider than the bound, the comparison is unresolved unless every change
// run beats every parent run; else it is worse when the change's median is
// worse than the parent's by more than the bound, and unchanged otherwise.
// A metric without a bound is worse only by the mirror of the better rule.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) comparison {
	c := comparison{Parent: parent, Change: change}
	c.PQ1, c.PMed, c.PQ3 = quartiles(parent)
	c.CQ1, c.CMed, c.CQ3 = quartiles(change)
	c.Pair = min(len(parent), len(change))
	gain := func(p, ch float64) float64 { // > 0 when ch is better than p
		if lowerIsBetter {
			return p - ch
		}
		return ch - p
	}
	for i := 0; i < c.Pair; i++ {
		switch g := gain(parent[i], change[i]); {
		case g > 0:
			c.Wins++
		case g < 0:
			c.Losses++
		}
	}
	if c.Pair == 0 {
		c.Verdict = unresolved
		return c
	}
	d := gain(c.PMed, c.CMed)
	spread := c.PQ3 - c.PQ1
	switch {
	case c.Wins*10 >= 9*c.Pair && d > spread:
		c.Verdict = better
	case bound <= 0:
		if c.Losses*10 >= 9*c.Pair && -d > spread {
			c.Verdict = worse
		} else {
			c.Verdict = unchanged
		}
	case relSpread(c.PQ1, c.PMed, c.PQ3) > bound || relSpread(c.CQ1, c.CMed, c.CQ3) > bound:
		if allBetter(parent, change, gain) {
			c.Verdict = unchanged
		} else {
			c.Verdict = unresolved
		}
	case -d > bound*math.Abs(c.PMed):
		c.Verdict = worse
	default:
		c.Verdict = unchanged
	}
	return c
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func allBetter(parent, change []float64, gain func(p, ch float64) float64) bool {
	for _, p := range parent {
		for _, ch := range change {
			if gain(p, ch) <= 0 {
				return false
			}
		}
	}
	return true
}

// loadRecords reads every run record under dir, keyed by workload and
// kind (timed or traced), each list ordered by seed then start time.
func loadRecords(dir string) (map[string][]*record, error) {
	out := map[string][]*record{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".json") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := r.Workload + " timed"
		if r.Trace {
			key = r.Workload + " traced"
		}
		out[key] = append(out[key], &r)
		return nil
	})
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Seed != rs[j].Seed {
				return rs[i].Seed < rs[j].Seed
			}
			return rs[i].Started < rs[j].Started
		})
	}
	return out, err
}

// compareSets compares two result sets metric by metric.
func compareSets(parent, change map[string][]*record, spec benchSpec) []comparison {
	rules := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		rules[m.Name] = m
	}
	var keys []string
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var rows []comparison
	for _, k := range keys {
		names := map[string]bool{}
		for _, r := range parent[k] {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		var ns []string
		for n := range names {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		for _, n := range ns {
			rule, ok := rules[n]
			if !ok {
				continue
			}
			c := judge(values(parent[k], n), values(change[k], n), rule.Better != "higher", rule.Bound)
			c.Workload, c.Metric = k, n
			rows = append(rows, c)
		}
	}
	return rows
}

func values(rs []*record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareMain(args []string) int {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] <parent-results-dir> <change-results-dir>")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	parent, err := loadRecords(fset.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	change, err := loadRecords(fset.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	rows := compareSets(parent, change, spec)
	status := 0
	fmt.Printf("%-22s %-34s %12s %25s %12s %25s %7s  %s\n", "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "won", "verdict")
	for _, c := range rows {
		fmt.Printf("%-22s %-34s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %3d/%-3d  %s\n",
			c.Workload, c.Metric, c.PMed, c.PQ1, c.PQ3, c.CMed, c.CQ1, c.CQ3, c.Wins, c.Pair, c.Verdict)
		if c.Verdict == worse {
			status = 1
		}
	}
	return status
}
