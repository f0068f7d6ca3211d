// Command perfbench is the repository's end-to-end benchmark. It runs the
// paper's three applications (BCP, TMI, SignalGuru) on an 8-node simulated
// fleet under MS-src+ap with source preservation, periodic checkpoints and
// sink recording all on, at fixed open-loop offered rates, and measures
// them from outside the program: the benchmark's own wrappers on public
// hooks, the program's public counters, an isolated ladder of each layer's
// public functions, and runtime/metrics.
//
// Usage, from the repository root:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <parent-results-dir> <change-results-dir>
//
// A run prints a human-readable summary on standard error, writes its full
// record (host fingerprint, raw samples, quartiles, spans) under
// .bench_results, and prints one JSON object as the last line of standard
// output. It exits non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS so hosts with more cores run the same schedule.
const maxProcs = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// envelope is the last line of standard output.
type envelope struct {
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]*output `json:"metrics"`
}

type output struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result of one run, kept on disk next to its peers.
type record struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      Host               `json:"host"`
	Started   string             `json:"started"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	ErrorRate float64            `json:"error_rate"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]*metric `json:"metrics"`
	Spans     []span             `json:"spans,omitempty"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: bcp-steady, tmi-cpu or sg-recover")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	outDir := fs.String("out", ".bench_results", "directory for the full run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload bcp-steady|tmi-cpu|sg-recover, --seconds >= 1, --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	rec, err := execute(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := save(*outDir, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printSummary(rec)
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %s\n", w.name, strings.Join(rec.Failures, "; "))
		return 1
	}
	env := envelope{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]*output{}}
	for k, m := range rec.Metrics {
		env.Metrics[k] = &output{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute runs one workload. The timed pass reports the end-to-end
// metrics; the traced pass reports the per-layer ones. quick shortens a
// run for tests: one set-up and no post-window recoveries.
func execute(w *workload, seed int64, seconds int, traced, quick bool) (*record, error) {
	rec := &record{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Trace: traced,
		Host: fingerprint(seed), Started: time.Now().UTC().Format(time.RFC3339),
	}
	tables := w.table(seed)
	if !traced {
		res, err := runWorkload(w, seed, seconds, tables, false, quick, nil)
		if err != nil {
			return nil, err
		}
		rec.Metrics = e2eMetrics(res)
		rec.setOutcome(res.out)
		return rec, nil
	}

	// The untraced pass measures the baseline the tracing overhead is
	// taken against; half the window suffices for one CPU figure.
	base, err := runWorkload(w, seed, max(1, seconds/2), tables, false, true, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer(fmt.Sprintf("%s-%d-%d", w.name, seed, time.Now().UnixNano()))
	res, err := runWorkload(w, seed, seconds, tables, true, quick, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.untraced = e2eMetrics(base)["cpu_us_per_tuple"].Value
	res.spans = tr.all()
	rec.Spans = res.spans

	idle, err := idleCPU(w, seed, tables)
	if err != nil {
		return nil, fmt.Errorf("idle pass: %w", err)
	}
	lad := runLadder(tables)
	refUS, refN, err := referenceRun(w, seed, tables)
	if err != nil {
		return nil, err
	}
	rec.Metrics = layerMetrics(res, idle, lad, refUS, refN)
	out := res.out
	out.attempted += base.out.attempted
	out.failed += base.out.failed
	out.failures = append(out.failures, base.out.failures...)
	rec.setOutcome(out)
	return rec, nil
}

func (r *record) setOutcome(o outcome) {
	r.Attempted, r.Failed, r.Failures = o.attempted, o.failed, o.failures
	r.Correct = len(o.failures) == 0 && o.failed == 0
	if o.attempted > 0 {
		r.ErrorRate = float64(o.failed) / float64(o.attempted)
	}
}

// idleCPU returns the process CPU, in CPU-seconds per second, of the same
// topology with silent sources: timers, checkpoints and scheduling alone.
func idleCPU(w *workload, seed int64, tables map[string]*payloadTable) (float64, error) {
	in, _, err := build(w, seed, tables, false, true, nil, 0)
	if err != nil {
		return 0, err
	}
	defer in.stop()
	time.Sleep(time.Second)
	c0, t0 := cpuTime(), time.Now()
	time.Sleep(2 * time.Second)
	return float64(cpuTime()-c0) / float64(time.Since(t0)), nil
}

func save(dir string, rec *record) error {
	d := filepath.Join(dir, rec.Workload)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}
	kind := "timed"
	if rec.Trace {
		kind = "traced"
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	p := filepath.Join(d, fmt.Sprintf("%s-seed%d-%d.json", kind, rec.Seed, time.Now().UnixNano()))
	if err := os.WriteFile(p, b, 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}

func printSummary(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v host=%q nproc=%d gomaxprocs=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Host.CPUModel, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit)
	for _, k := range names {
		m := rec.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-36s %12.4f %-6s n=%d", k, m.Value, m.Unit, m.N)
		if m.Q1 != 0 || m.Q3 != 0 {
			fmt.Fprintf(os.Stderr, " q1=%.4f q3=%.4f", m.Q1, m.Q3)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "  error_rate %.6f (%d failed / %d attempted)\n", rec.ErrorRate, rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", f)
	}
}
