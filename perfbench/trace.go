package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	msmetrics "meteorshower/internal/metrics"
	"meteorshower/internal/spe"
)

// span is one benchmark call into the program, recorded at the layer
// boundary: core, cluster or controller.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed runs call the same code untraced.
type tracer struct {
	id    string
	mu    sync.Mutex
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trace: t.id, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once, and a child
// running past its parent is clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanStats returns the durations and self times, in ms, of spans named
// name.
func spanStats(spans []span, self map[int]time.Duration, name string) (dur, selfMS []float64) {
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			dur = append(dur, float64(s.End-s.Start)/1e6)
			selfMS = append(selfMS, float64(self[s.ID])/1e6)
		}
	}
	return dur, selfMS
}

// ckptListener is the spe.Listener of a traced run: it keeps every
// individual checkpoint's breakdown with its arrival time.
type ckptListener struct {
	mu  sync.Mutex
	evs []ckptEvent
}

type ckptEvent struct {
	at int64
	b  spe.CheckpointBreakdown
}

func newCkptListener() *ckptListener { return &ckptListener{} }

func (l *ckptListener) CheckpointDone(_ string, _ uint64, b spe.CheckpointBreakdown) {
	now := time.Now().UnixNano()
	l.mu.Lock()
	l.evs = append(l.evs, ckptEvent{at: now, b: b})
	l.mu.Unlock()
}

func (l *ckptListener) TurningPoint(string, int64, int64, float64, bool) {}
func (l *ckptListener) Stopped(string, error)                            {}

func (l *ckptListener) between(start, end int64) []spe.CheckpointBreakdown {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []spe.CheckpointBreakdown
	for _, e := range l.evs {
		if e.at >= start && e.at < end {
			out = append(out, e.b)
		}
	}
	return out
}

// sinkRecorder sits between the sinks and their real metrics.Collector.
// It forwards every latency, keeps its own copy so latencies pool across
// the systems of a run, and, in a traced run, times the collector's call.
type sinkRecorder struct {
	inner *msmetrics.Collector
	timed bool
	calls atomic.Uint64
	ns    atomic.Int64

	mu  sync.Mutex
	obs []msmetrics.Point
}

func (r *sinkRecorder) RecordLatency(at int64, lat time.Duration) {
	if r.timed {
		t0 := time.Now()
		r.inner.RecordLatency(at, lat)
		r.ns.Add(int64(time.Since(t0)))
		r.calls.Add(1)
	} else {
		r.inner.RecordLatency(at, lat)
	}
	r.mu.Lock()
	r.obs = append(r.obs, msmetrics.Point{At: at, Lat: lat})
	r.mu.Unlock()
}

// between returns the latencies delivered in [start, end).
func (r *sinkRecorder) between(start, end int64) []msmetrics.Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []msmetrics.Point
	for _, p := range r.obs {
		if p.At >= start && p.At < end {
			out = append(out, p)
		}
	}
	return out
}

// bytes is the benchmark's own copy, subtracted from the live heap.
func (r *sinkRecorder) bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(cap(r.obs)) * 16
}

// rtSnap is a reading of the Go runtime's own counters.
type rtSnap struct {
	gcCPU, totalCPU, idleCPU float64
	allocs                   uint64
	sched                    *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSnap
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[0].Value.Float64()
		r.totalCPU = ss[1].Value.Float64()
		r.idleCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindUint64 {
		r.allocs = ss[3].Value.Uint64()
	}
	if ss[4].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = ss[4].Value.Float64Histogram()
	}
	return r
}

// schedP99 returns the p99 goroutine scheduling wait, in µs, of the
// latencies recorded between two readings.
func schedP99(a, b rtSnap) (float64, int) {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0, 0
	}
	var total uint64
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0, 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi * 1e6, int(total)
		}
	}
	return 0, int(total)
}

func heapLiveBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}
