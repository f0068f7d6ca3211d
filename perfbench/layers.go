package main

import (
	"math"
	"time"

	"meteorshower/internal/spe"
)

// layerMetrics turns a traced run into the per-layer metrics, named by
// module. Timings are medians over their samples; counts and ratios are
// taken over the window.
func layerMetrics(res *runResult, idleCPUPerS float64, lad ladder, refUS float64, refN uint64) map[string]*metric {
	m := map[string]*metric{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	secs := res.sum(func(wd *window) float64 { return wd.end.at.Sub(wd.start.at).Seconds() })
	tuples := res.tuples()
	perTuple := func(x float64) float64 { return x / math.Max(tuples, 1) }
	alive := math.Max(res.sum(func(wd *window) float64 { return float64(wd.generatedAlive) }), 1)
	nT := int(tuples)
	delivered := res.sum(func(wd *window) float64 { return float64(wd.end.delivered - wd.start.delivered) })

	// core: set-up calls, from the benchmark's spans.
	self := selfTimes(res.spans)
	_, ns := spanStats(res.spans, self, "core.NewSystem")
	m["core.new_system_ms"] = newMetric("ms", ns)
	var starts []float64
	for _, s := range res.setups {
		starts = append(starts, ms(s.start+s.controller))
	}
	m["core.start_ms"] = newMetric("ms", starts)

	// cluster: splits in set-up, recovery phases from RecoveryStats.
	var splits []float64
	for _, s := range res.setups {
		splits = append(splits, ms(s.split))
	}
	m["cluster.split_ms"] = newMetric("ms", splits)
	var reload, disk, deser, reconn, fetch, replay []float64
	for _, k := range res.kills {
		if k.err != nil {
			continue
		}
		reload = append(reload, ms(k.stats.Reload))
		disk = append(disk, ms(k.stats.DiskIO))
		deser = append(deser, ms(k.stats.Deserialize))
		reconn = append(reconn, ms(k.stats.Reconnect))
		fetch = append(fetch, ms(k.stats.ReplayFetch))
		replay = append(replay, float64(k.replay))
	}
	m["cluster.recover_reload_ms"] = newMetric("ms", reload)
	m["cluster.recover_disk_ms"] = newMetric("ms", disk)
	m["cluster.recover_deserialize_ms"] = newMetric("ms", deser)
	m["cluster.recover_reconnect_ms"] = newMetric("ms", reconn)
	m["cluster.recover_replay_fetch_ms"] = newMetric("ms", fetch)
	m["cluster.recover_attempts"] = scalar("count", float64(len(res.kills)), len(res.kills))

	// controller: epochs in the window.
	begun := res.sum(func(wd *window) float64 { return float64(wd.epochs.begun) })
	done := res.sum(func(wd *window) float64 { return float64(wd.epochs.done) })
	m["controller.epochs_begun"] = scalar("count", begun, int(begun))
	m["controller.epochs_done"] = scalar("count", done, int(done))
	m["controller.epoch_wall_ms"] = newMetric("ms", res.pool(func(wd *window) []float64 { return wd.epochs.wallMS }))

	// spe: events per source tuple, idle cost, edge transport.
	events := res.sum(func(wd *window) float64 { return float64(wd.events) })
	eventsPerTuple := events / alive
	m["spe.events_per_tuple"] = scalar("ratio", eventsPerTuple, int(events))
	cpuS := res.sum(func(wd *window) float64 { return (wd.end.cpu - wd.start.cpu).Seconds() })
	loadedCPUPerS := cpuS / secs
	m["spe.idle_cpu_pct"] = scalar("%", 100*idleCPUPerS/math.Max(loadedCPUPerS, 1e-9), 1)
	m["spe.edge_ns"] = scalar("ns", lad.edgeNS, 1)

	// spe checkpoints, from the listener.
	var tok, stall, freeze, flat, write []float64
	var state, dirty int64
	var cks int
	for _, wd := range res.windows {
		cks += len(wd.ckpts)
	}
	for _, b := range res.poolCkpts() {
		tok = append(tok, ms(b.TokenWait))
		stall = append(stall, ms(b.AlignStallMax))
		freeze = append(freeze, ms(b.Freeze()))
		flat = append(flat, ms(b.Flatten))
		write = append(write, ms(b.DiskIO))
		state += b.StateBytes
		dirty += b.DirtyBytes
	}
	m["spe.ckpt_token_wait_ms"] = newMetric("ms", tok)
	m["spe.ckpt_align_stall_ms"] = newMetric("ms", stall)
	m["spe.ckpt_freeze_ms"] = newMetric("ms", freeze)
	m["spe.ckpt_flatten_ms"] = newMetric("ms", flat)
	m["spe.ckpt_state_kb"] = scalar("KB", float64(state)/1024/math.Max(done, 1), cks)
	m["spe.ckpt_dirty_ratio"] = scalar("ratio", float64(dirty)/math.Max(float64(state), 1), cks)

	// operator: sources and sink.
	m["operator.src_tps"] = scalar("1/s", tuples/secs, nT)
	m["operator.src_lag_ms"] = meanMetric("ms", res.pool(func(wd *window) []float64 { return wd.lagSamples }))
	m["operator.sink_tps"] = scalar("1/s", delivered/secs, int(delivered))
	lat := res.pool(latencies)
	m["operator.sink_lat_p50_ms"] = scalar("ms", percentile(lat, 0.50), len(lat))
	m["operator.sink_lat_p75_ms"] = scalar("ms", percentile(lat, 0.75), len(lat))

	// partition: key routing.
	routed := res.sum(func(wd *window) float64 { return float64(wd.routed) })
	routedPerTuple := routed / alive
	m["partition.route_ns"] = scalar("ns", lad.routeNS, 1)
	m["partition.routed_per_tuple"] = scalar("ratio", routedPerTuple, int(routed))

	// buffer: source preservation. A completed epoch empties the source
	// logs and a short period leaves them empty at most samples, so these
	// (like the source lag) report the mean: the time-averaged backlog.
	m["buffer.append_ns"] = scalar("ns", lad.appendNS, 1)
	m["buffer.preserved_tuples"] = meanMetric("count", res.pool(func(wd *window) []float64 { return wd.preserved }))
	m["buffer.preserved_mb"] = meanMetric("MB", res.pool(func(wd *window) []float64 { return wd.preservedMB }))
	m["buffer.replay_tuples"] = meanMetric("count", replay)

	// storage: the shared store's disk, over the window and the recoveries
	// after it (recovery is when the store is read). busy_ms is the disk
	// model's unscaled time.
	ops := res.sum(func(wd *window) float64 { return float64(wd.disk.Ops - wd.start.disk.Ops) })
	wrote := res.sum(func(wd *window) float64 { return float64(wd.disk.BytesWritten - wd.start.disk.BytesWritten) })
	read := res.sum(func(wd *window) float64 { return float64(wd.disk.BytesRead - wd.start.disk.BytesRead) })
	busy := res.sum(func(wd *window) float64 { return ms(wd.disk.BusyTime - wd.start.disk.BusyTime) })
	m["storage.ops"] = scalar("count", ops, int(ops))
	m["storage.write_mb"] = scalar("MB", wrote/(1<<20), int(ops))
	m["storage.read_mb"] = scalar("MB", read/(1<<20), int(ops))
	m["storage.busy_ms"] = scalar("ms", busy, int(ops))
	m["storage.ckpt_write_ms"] = newMetric("ms", write)

	// metrics: sink recording, timed in place by the recorder wrapper.
	calls := res.sum(func(wd *window) float64 { return float64(wd.recCalls) })
	recordNS := res.sum(func(wd *window) float64 { return float64(wd.recNS) }) / math.Max(calls, 1)
	recordPerTuple := delivered / math.Max(tuples, 1)
	m["metrics.record_calls_per_tuple"] = scalar("ratio", recordPerTuple, int(calls))
	m["metrics.record_ns"] = scalar("ns", recordNS, int(calls))

	// tuple: pooled life cycle.
	m["tuple.ns_per_tuple"] = scalar("ns", lad.tupleNS, 1)

	// apps: the operator work itself, single-threaded.
	m["apps.single_thread_us_per_tuple"] = scalar("us", refUS, int(refN))

	// runtime.
	gc := res.sum(func(wd *window) float64 { return wd.end.rt.gcCPU - wd.start.rt.gcCPU })
	rtBusy := res.sum(func(wd *window) float64 {
		return (wd.end.rt.totalCPU - wd.end.rt.idleCPU) - (wd.start.rt.totalCPU - wd.start.rt.idleCPU)
	})
	m["runtime.gc_cpu_pct"] = scalar("%", 100*gc/math.Max(rtBusy, 1e-9), 1)
	var p99s []float64
	var nSched int
	for _, wd := range res.windows {
		p, n := schedP99(wd.start.rt, wd.end.rt)
		p99s = append(p99s, p)
		nSched += n
	}
	sched := newMetric("us", p99s)
	sched.N = nSched
	m["runtime.sched_wait_p99_us"] = sched
	allocs := res.sum(func(wd *window) float64 { return float64(wd.end.rt.allocs - wd.start.rt.allocs) })
	m["runtime.alloc_bytes_per_tuple"] = scalar("B", perTuple(allocs), nT)

	// ladder: what no measured layer accounts for. Per source tuple the
	// runtime crosses an edge per event, routes the split tuples, appends
	// once to the source log, runs one tuple life cycle and records each
	// sink delivery, on top of the operator work.
	cpuPerTuple := res.cpuUSPerTuple()
	explained := refUS + (lad.edgeNS*eventsPerTuple+lad.routeNS*routedPerTuple+lad.appendNS+
		lad.tupleNS+recordNS*recordPerTuple)/1e3
	m["ladder.residual_us"] = scalar("us", res.untraced-explained, 1)
	m["trace.overhead_us"] = scalar("us", cpuPerTuple-res.untraced, 1)
	return m
}

func (res *runResult) poolCkpts() []spe.CheckpointBreakdown {
	var out []spe.CheckpointBreakdown
	for _, wd := range res.windows {
		out = append(out, wd.ckpts...)
	}
	return out
}
