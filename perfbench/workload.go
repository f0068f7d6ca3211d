package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/vision"
)

// workload is one fixed input the benchmark offers the system. Sources are
// open-loop: each offers a fixed rate regardless of how fast the system
// drains it, so a slower system falls behind schedule instead of receiving
// less work.
type workload struct {
	name string
	// why records what the workload stresses that the others do not.
	why string
	// period is the controller's checkpoint period.
	period time.Duration
	// timeScale is the simulated disk speed: 1 is the paper's disks, 0.01
	// a hundred times faster.
	timeScale float64
	// killsInWindow makes the measured window itself a sequence of rack
	// kills and recoveries; the other workloads recover only after their
	// window closes.
	killsInWindow bool
	// trackIdentity turns on the sink's exactly-once oracle.
	trackIdentity bool
	// splitAll splits every operator whose id starts with this letter
	// 2-way during set-up (0 = none).
	splitAll byte
	// systems is how many systems a run builds and measures, each for an
	// equal slice of the window. Every system settles into its own level
	// of epoch and latency times and keeps it for its life, so a run
	// reports the level of several.
	systems int
	// setupOnly is how many more systems a run builds and stops at once,
	// so that setup_s is a median over systems+setupOnly set-ups.
	setupOnly int
	// build returns the application at the workload's offered rates, or
	// with silent sources when idle is set.
	build func(seed int64, col *metrics.Collector, ref *apps.SinkRef, idle bool) cluster.AppSpec
	// table fills the per-source payload tables.
	table func(seed int64) map[string]*payloadTable
}

// Fleet geometry shared by every workload: 8 nodes in racks of two, so a
// rack kill takes down a quarter of the fleet.
const (
	fleetNodes   = 8
	nodesPerRack = 2
	racks        = fleetNodes / nodesPerRack
	tableEntries = 256
)

var workloads = []*workload{
	{
		name: "bcp-steady",
		why:  "BCP at 10k source tuples/s on paper-scaled disks: the sink gets more results than sources emit, and source-log flushes and fan-in alignment put checkpoints on the latency path",
		// The latency tail comes from checkpoint episodes (source-log
		// flushes queued behind checkpoint writes on the one shared store);
		// a 500 ms period gives each run twice the episodes of the paper's
		// 1 s, enough for the tail to repeat.
		period:    500 * time.Millisecond,
		timeScale: 1,
		systems:   8,
		// A set-up without splits takes about a millisecond, so the
		// median needs many of them to repeat.
		setupOnly: 25,
		build: func(seed int64, col *metrics.Collector, ref *apps.SinkRef, idle bool) cluster.AppSpec {
			cfg := apps.BCPPaper(col)
			cfg.Seed = seed
			cfg.SinkRef = ref
			cfg.MaxRate = false
			cfg.CamRatePerMS, cfg.SensRatePerMS = 1.0, 1.5
			cfg.CamBurst, cfg.SensBurst = 64, 64
			if idle {
				cfg.CamRatePerMS, cfg.SensRatePerMS = 0, 0
			}
			return apps.BCP(cfg)
		},
		table: func(seed int64) map[string]*payloadTable {
			cfg := apps.BCPPaper(nil)
			out := make(map[string]*payloadTable)
			for i := 0; i < cfg.CameraGroups; i++ {
				out[fmt.Sprintf("S%d", i)] = frameTable(seed, i, cfg.CamsPerSource, cfg.ImgW, cfg.ImgH, cfg.MaxPeople, 0)
			}
			return out
		},
	},
	{
		name: "tmi-cpu",
		why:  "TMI at 150k source tuples/s, every P split 2-way, disks 100x faster: per-tuple runtime (edges, key routing, dispatch, pooling, source-log appends) bounds the work",
		// The offered rate is about half of where TMI stops keeping up on
		// two cores (closed-loop runs reach 206k-470k tuples/s): at 250k
		// a short host stall can leave epochs unfinished for four
		// periods. With 50 ms k-means windows each analyzer's flush is
		// small and frequent, so epochs take ~5-15 ms (a 250 ms window
		// adds a second mode of epochs that meet a large flush, with the
		// 75th percentile on its edge). A 125 ms period gives ~160 epochs
		// per run; at 62.5 ms a host stall of a quarter second failed a
		// run for epochs not done within four periods.
		period:    125 * time.Millisecond,
		timeScale: 0.01,
		splitAll:  'P',
		systems:   10,
		build: func(seed int64, col *metrics.Collector, ref *apps.SinkRef, idle bool) cluster.AppSpec {
			cfg := apps.TMIPaper(col, 50*time.Millisecond)
			cfg.Seed = seed
			cfg.SinkRef = ref
			cfg.MaxRate = false
			cfg.RatePerMS = 15
			cfg.Burst = 1024
			if idle {
				cfg.RatePerMS = 0
			}
			return apps.TMI(cfg)
		},
		table: func(seed int64) map[string]*payloadTable {
			cfg := apps.TMIPaper(nil, 0)
			out := make(map[string]*payloadTable)
			for i := 0; i < cfg.Sources; i++ {
				out[fmt.Sprintf("S%d", i)] = positionTable(seed, i, cfg.PhonesPerSource, cfg.RecordPad)
			}
			return out
		},
	},
	{
		name:          "sg-recover",
		why:           "SignalGuru, 14 KB frames at 400/s on paper-scaled disks, a rack killed and recovered twice per system: checkpoint capture and write and the recovery phases do the work",
		period:        500 * time.Millisecond,
		timeScale:     1,
		systems:       4,
		setupOnly:     25,
		killsInWindow: true,
		trackIdentity: true,
		build: func(seed int64, col *metrics.Collector, ref *apps.SinkRef, idle bool) cluster.AppSpec {
			cfg := apps.SGPaper(col)
			cfg.Seed = seed
			cfg.SinkRef = ref
			cfg.TrackIdentity = true
			cfg.MaxRate = false
			cfg.RatePerMS = 0.1
			cfg.Burst = 4
			if idle {
				cfg.RatePerMS = 0
			}
			return apps.SG(cfg)
		},
		table: func(seed int64) map[string]*payloadTable {
			cfg := apps.SGPaper(nil)
			out := make(map[string]*payloadTable)
			for i := 0; i < cfg.PhoneGroups; i++ {
				out[fmt.Sprintf("S%d", i)] = frameTable(seed, i, cfg.Intersections, cfg.ImgW, cfg.ImgH, cfg.MaxLights, cfg.FramePad)
			}
			return out
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// payloadTable holds one source's pre-generated random payload bytes, so
// the measured process spends no time generating load. Only the random
// bytes come from the table; fields derived from the tuple id (the key,
// TMI's report time) are computed per tuple, which keeps regeneration
// after a recovery identical to the first generation.
type payloadTable struct {
	keys []string
	data [][]byte
	// tsOffset, when >= 0, is where the little-endian tuple id is written
	// into a fresh copy of the entry (TMI position reports); -1 shares the
	// immutable entry itself (camera frames).
	tsOffset int
}

// bytes is the memory the table holds, subtracted from the live heap.
func (t *payloadTable) bytes() int64 {
	var n int64
	for _, k := range t.keys {
		n += int64(len(k)) + 16
	}
	for _, d := range t.data {
		n += int64(cap(d)) + 24
	}
	return n
}

func (t *payloadTable) payload(id uint64) (string, []byte) {
	key := t.keys[id%uint64(len(t.keys))]
	src := t.data[id%uint64(len(t.data))]
	if t.tsOffset < 0 {
		return key, src
	}
	d := make([]byte, len(src))
	copy(d, src)
	binary.LittleEndian.PutUint64(d[t.tsOffset:], id)
	return key, d
}

func tableRand(seed int64, src int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(src)))
}

// positionTable mirrors apps.PositionPayload: a position report (X, Y,
// report time) followed by pad bytes of raw call detail record.
func positionTable(seed int64, src, phones, pad int) *payloadTable {
	rng := tableRand(seed, src)
	t := &payloadTable{tsOffset: 16}
	for p := 0; p < phones; p++ {
		t.keys = append(t.keys, fmt.Sprintf("ph%d-%d", src, p))
	}
	for i := 0; i < tableEntries; i++ {
		d := apps.Position{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}.Encode()
		raw := make([]byte, pad)
		rng.Read(raw)
		t.data = append(t.data, append(d, raw...))
	}
	return t
}

// frameTable mirrors apps.ImagePayloadPadded: a synthetic w x h frame with
// up to maxBlobs people or lights, followed by pad bytes of raw frame.
func frameTable(seed int64, src, keys, w, h, maxBlobs, pad int) *payloadTable {
	rng := tableRand(seed, src)
	t := &payloadTable{tsOffset: -1}
	for k := 0; k < keys; k++ {
		t.keys = append(t.keys, fmt.Sprintf("cam%d-%d", src, k))
	}
	n := tableEntries
	if pad > 0 {
		n = 64 // padded frames are large; 64 distinct ones suffice
	}
	for i := 0; i < n; i++ {
		im := vision.Synthesize(vision.SynthesizeOpts{
			W: w, H: h, Blobs: rng.Intn(maxBlobs + 1), BlobSize: 4, Seed: rng.Int63(),
		})
		d := im.Marshal()
		if pad > 0 {
			raw := make([]byte, pad)
			rng.Read(raw)
			d = append(d, raw...)
		}
		t.data = append(t.data, d)
	}
	return t
}

// feed installs the payload tables into one system's sources and counts
// what they generate. Every source instance (recovery builds new ones) is
// an incarnation whose schedule starts at its first tuple.
type feed struct {
	tables    map[string]*payloadTable
	generated atomic.Uint64

	mu   sync.Mutex
	incs map[string]*incarnation
}

type incarnation struct {
	ratePerMS float64
	origin    atomic.Int64 // wall ns one inter-arrival before the first tuple; 0 until then
	generated atomic.Uint64
}

func newFeed(tables map[string]*payloadTable) *feed {
	return &feed{tables: tables, incs: make(map[string]*incarnation)}
}

// wrap returns spec with NewOperators wrapped: sources get the table
// payload and the counting hook; sinks are handed to onSink (the traced
// run swaps their recorder).
func (f *feed) wrap(spec cluster.AppSpec, onSink func(*operator.Sink)) cluster.AppSpec {
	inner := spec.NewOperators
	spec.NewOperators = func(id string) []operator.Operator {
		ops := inner(id)
		for _, op := range ops {
			switch o := op.(type) {
			case *operator.RateSource:
				inc := &incarnation{ratePerMS: o.RatePerMS}
				f.mu.Lock()
				f.incs[id] = inc
				f.mu.Unlock()
				gen := o.Payload
				if t := f.tables[id]; t != nil {
					gen = func(tid uint64, _ *rand.Rand) (string, []byte) { return t.payload(tid) }
				}
				o.Payload = func(tid uint64, rng *rand.Rand) (string, []byte) {
					if inc.generated.Add(1) == 1 {
						inc.origin.Store(time.Now().UnixNano() - int64(float64(time.Millisecond)/inc.ratePerMS))
					}
					f.generated.Add(1)
					return gen(tid, rng)
				}
			case *operator.Sink:
				if onSink != nil {
					onSink(o)
				}
			}
		}
		return ops
	}
	return spec
}

// lag returns, over the live source incarnations, the largest shortfall
// against the offered schedule in milliseconds and the total number of
// tuples more than slack behind it.
func (f *feed) lag(now int64, slack time.Duration) (maxLagMS float64, behind uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, inc := range f.incs {
		origin := inc.origin.Load()
		if inc.ratePerMS <= 0 || origin == 0 {
			continue
		}
		due := float64(now-origin) / 1e6 * inc.ratePerMS
		short := due - float64(inc.generated.Load())
		if ms := short / inc.ratePerMS; ms > maxLagMS {
			maxLagMS = ms
		}
		if over := short - slack.Seconds()*1e3*inc.ratePerMS; over > 0 {
			behind += uint64(over)
		}
	}
	return maxLagMS, behind
}

// tupleBytes is the mean payload size a source of this feed emits.
func (f *feed) tupleBytes(id string) float64 {
	t := f.tables[id]
	if t == nil {
		return 16 // a sensor reading
	}
	var n int
	for _, d := range t.data {
		n += len(d)
	}
	return float64(n) / float64(len(t.data))
}

func tablesBytes(ts map[string]*payloadTable) int64 {
	var n int64
	for _, t := range ts {
		n += t.bytes()
	}
	return n
}
