package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// session is one run of one workload: the run's inputs (seed, length,
// tracing) and everything measured and checked along the way.
type session struct {
	workload string
	seed     uint64
	length   time.Duration
	traced   bool
	spans    *spanLog // nil unless traced

	// conns and failed count the run's operations (connections) that
	// completed and failed; timed is the wall time spent in the measured
	// phases, allocBytes the heap allocated during them.
	conns, failed int64
	timed         time.Duration
	allocBytes    uint64
	// worldTimes and worldConns hold, per world of the workload's list,
	// the timed-phase wall time and completed connections of each pass.
	worldTimes [][]time.Duration
	worldConns [][]int64
	// p50s, p90s and p99s hold, per replay of a live world, the
	// percentiles of its connections' latencies in microseconds;
	// workloads whose connections cannot be timed one by one leave them
	// empty (see endToEnd).
	p50s, p90s, p99s []float64
	// setups holds one wall time per set-up the run made.
	setups []time.Duration
	// heapMax is the largest live heap seen at the end of a world's
	// timed phase.
	heapMax uint64

	// gcCycles and gcPause accumulate the collector's work inside the
	// timed phases of a traced run.
	gcCycles uint32
	gcPause  time.Duration

	// layers holds the traced run's per-layer metric values; table the
	// layer rows (self times) that, with the other row, sum to tableWall.
	layers    map[string]float64
	table     []layerRow
	tableWall time.Duration

	violations []string
}

func newSession(workload string, seed uint64, seconds float64, traced bool) *session {
	s := &session{
		workload: workload,
		seed:     seed,
		length:   time.Duration(seconds * float64(time.Second)),
		traced:   traced,
		layers:   make(map[string]float64),
	}
	if traced {
		s.spans = newSpanLog()
	}
	return s
}

// done reports whether the measured phases have filled the run length.
func (s *session) done() bool { return s.timed >= s.length }

// passes runs whole passes over a workload's list of k worlds until the
// run length is filled, each pass starting at the world the run's seed
// picks. world(i) replays the i-th world and returns its timed-phase
// wall time and completed connections.
func (s *session) passes(k int, world func(i int) (time.Duration, int64, error)) error {
	s.worldTimes = make([][]time.Duration, k)
	s.worldConns = make([][]int64, k)
	for !s.done() {
		for j := 0; j < k; j++ {
			i := int((s.seed + uint64(j)) % uint64(k))
			d, conns, err := world(i)
			if err != nil {
				return err
			}
			if conns == 0 {
				return errNoConnections
			}
			s.worldTimes[i] = append(s.worldTimes[i], d)
			s.worldConns[i] = append(s.worldConns[i], conns)
		}
	}
	return nil
}

// fail records a failed output check; the run then reports correct=false.
func (s *session) fail(format string, args ...any) {
	if len(s.violations) < 20 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated returns the process's cumulative heap allocation.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// measure runs fn as part of the measured phase, charging its wall time
// and heap allocation to the run (and, when traced, the collector's
// cycles and pauses). It returns fn's wall time.
func (s *session) measure(fn func()) time.Duration {
	var ms0 runtime.MemStats
	if s.traced {
		runtime.ReadMemStats(&ms0)
	}
	a0 := heapAllocated()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.allocBytes += heapAllocated() - a0
	s.timed += d
	if s.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.gcCycles += ms1.NumGC - ms0.NumGC
		s.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	}
	return d
}

// liveHeap collects garbage and returns the live heap. The second
// collection empties what sync.Pool caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// noteHeap records the live heap at the end of a world's timed phase,
// with the caller still holding the world (the open conductor, or the
// returned result).
func (s *session) noteHeap() { s.heapMax = max(s.heapMax, liveHeap()) }

// endToEnd forms the end-to-end metrics. Throughput is that of a typical
// pass: each world's connections over the median of its pass times, so
// a world slowed by a stall in one pass does not move it. Live workloads
// time every connection and report the median over world replays of
// each replay's percentile. Elsewhere a world is one call: each world's
// median cost per connection is one sample, and the percentiles are
// taken over the list's worlds.
func (s *session) endToEnd() map[string]float64 {
	m := make(map[string]float64)
	var conns, secs float64
	var perWorld []float64
	for i, ts := range s.worldTimes {
		t := medianDuration(ts)
		c := median(int64s(s.worldConns[i]))
		conns += c
		secs += t
		perWorld = append(perWorld, 1e6*t/c)
	}
	if secs > 0 {
		m["conns_per_s"] = conns / secs
	}
	if s.conns > 0 {
		m["alloc_kb_per_conn"] = float64(s.allocBytes) / 1024 / float64(s.conns)
	}
	if len(s.p50s) > 0 {
		m["connect_p50_us"] = median(s.p50s)
		m["connect_p90_us"] = median(s.p90s)
	} else {
		m["connect_p50_us"] = percentile(append([]float64(nil), perWorld...), 50)
		m["connect_p90_us"] = percentile(perWorld, 90)
	}
	m["setup_s"] = medianDuration(s.setups)
	m["heap_mb"] = float64(s.heapMax) / (1 << 20)
	return m
}

func int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
