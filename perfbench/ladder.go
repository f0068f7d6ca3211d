package main

import (
	"fmt"
	"runtime"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/buffer"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// ladderBudget is roughly how long each isolated layer measurement runs.
const ladderBudget = 300 * time.Millisecond

// ladder is the per-call CPU cost of each layer's public functions,
// measured in isolation on the workload's own payloads.
type ladder struct {
	edgeNS, routeNS, appendNS, tupleNS float64
}

// cpuPerOp runs fn in rounds of n calls until the budget is spent and
// returns process CPU nanoseconds per call.
func cpuPerOp(n int, fn func(n int)) float64 {
	runtime.GC()
	var ops int
	c0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < ladderBudget {
		fn(n)
		ops += n
	}
	return float64(cpuTime()-c0) / float64(ops)
}

// sampleTuple returns a source tuple shaped like the workload's first
// table-fed source (or a sensor reading when it has none).
func sampleTuple(tables map[string]*payloadTable) (key string, data []byte) {
	if t := tables["S0"]; t != nil {
		return t.payload(1)
	}
	return "bus0-0", apps.Reading{Value: 1, TsMS: 1}.Encode()
}

func runLadder(tables map[string]*payloadTable) ladder {
	var l ladder
	key, data := sampleTuple(tables)

	// Edge transport: one sender batching and flushing, one receiver.
	l.edgeNS = cpuPerOp(100_000, func(n int) {
		e := spe.NewEdge("a", "b", 0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := e.Recv(nil); !ok {
					return
				}
			}
		}()
		t := tuple.NewAt(0, "S0", key, 0, data)
		for i := 0; i < n; i++ {
			e.Append(t)
			if e.Full() {
				e.Flush(nil)
			}
		}
		e.Flush(nil)
		e.Close()
		<-done
	})

	// Key routing over a 2-way split.
	a := partition.NewAssignment(partition.DefaultSlots)
	a.Rescale(2)
	r := partition.NewRouter(a)
	keys := make([]string, 0, 400)
	for s := 0; s < 10; s++ {
		for p := 0; p < 40; p++ {
			keys = append(keys, fmt.Sprintf("ph%d-%d", s, p))
		}
	}
	l.routeNS = cpuPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			r.Route(keys[i%len(keys)])
		}
	})

	// Source-log append, group-committed as in the measured systems, onto
	// a store whose disk costs no time.
	store := storage.NewStore(storage.DiskSpec{})
	log := buffer.NewSourceLog("S0", store, sourceFlush)
	var epoch uint64
	l.appendNS = cpuPerOp(20_000, func(n int) {
		t := tuple.NewAt(0, "S0", key, 0, data)
		for i := 0; i < n; i++ {
			t.ID = uint64(i)
			_ = log.Append(t) // the zero-cost store cannot fail
		}
		epoch++
		_ = log.BeginEpoch(epoch)
		log.Prune(epoch)
	})

	// Tuple life cycle: pooled header, the preservation deep copy, release.
	l.tupleNS = cpuPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			t := tuple.NewAt(uint64(i), "S0", key, 0, data)
			c := t.Clone()
			tuple.Put(t)
			tuple.Put(c)
		}
	})
	return l
}

// referenceRun drives the workload's operators single-threaded with plain
// calls, the way the chaos harness's reference replay does: no HAUs, edges,
// checkpoints or preservation, and OnTick on a simulated clock. It returns
// the process CPU per source tuple, in µs: the operator work no runtime
// change can remove.
func referenceRun(w *workload, seed int64, tables map[string]*payloadTable) (float64, uint64, error) {
	f := newFeed(tables)
	spec := f.wrap(w.build(seed, metrics.NewCollector(), &apps.SinkRef{}, false),
		func(s *operator.Sink) { s.Recorder = nil })
	g := spec.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return 0, 0, err
	}
	chains := make(map[string][]operator.Operator, len(order))
	for _, id := range order {
		chains[id] = spec.NewOperators(id)
	}
	var firstErr error
	var process func(id string, port int, t *tuple.Tuple)
	var emitFrom func(id string, i int) operator.Emitter
	emitFrom = func(id string, i int) operator.Emitter {
		chain := chains[id]
		if i == len(chain)-1 {
			downs := g.Downstream(id)
			return func(port int, t *tuple.Tuple) {
				if port < 0 || port >= len(downs) {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s emitted to invalid port %d", id, port)
					}
					return
				}
				process(downs[port], g.PortOf(id, downs[port]), t)
			}
		}
		return func(port int, t *tuple.Tuple) {
			if err := chain[i+1].OnTuple(port, t, emitFrom(id, i+1)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	process = func(id string, port int, t *tuple.Tuple) {
		if err := chains[id][0].OnTuple(port, t, emitFrom(id, 0)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	type ticker struct {
		t    operator.Ticker
		emit operator.Emitter
	}
	var tickers []ticker
	for _, id := range order {
		for i, op := range chains[id] {
			if tk, ok := op.(operator.Ticker); ok {
				tickers = append(tickers, ticker{tk, emitFrom(id, i)})
			}
		}
	}
	sources := g.Sources()

	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	now := time.Now().UnixNano()
	for ms := 0; time.Since(t0) < time.Second && firstErr == nil; ms++ {
		now += int64(time.Millisecond)
		for _, id := range sources {
			src := chains[id][0].(operator.Source)
			downs := g.Downstream(id)
			emit := emitFrom(id, 0)
			for _, t := range src.Generate(now) {
				for p := range downs {
					out := t
					if p < len(downs)-1 {
						out = t.Retain()
					}
					emit(p, out)
				}
			}
		}
		if ms%2 == 1 {
			for _, tk := range tickers {
				if err := tk.t.OnTick(now, tk.emit); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	cpu := cpuTime() - c0
	n := f.generated.Load()
	if firstErr != nil {
		return 0, n, fmt.Errorf("reference run: %w", firstErr)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("reference run generated no tuples")
	}
	return float64(cpu) / 1e3 / float64(n), n, nil
}
