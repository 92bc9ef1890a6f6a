// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed wall time, checks the program's outputs, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (throughput,
// connect latency, set-up time, memory); with --trace 1 the same
// workload runs with spans recorded around every call into a layer and
// the metrics are the per-layer ones, preceded by a layer table whose
// rows sum to the traced wall time.
//
//	perfbench --workload sim-paper --seed 1 --seconds 15 --trace 0
//	perfbench --steady 10 --seconds 15 --out runs.jsonl
//	perfbench --compare a.jsonl b.jsonl
//
// The last two forms are the steadiness mode (see steady.go). The
// workloads and what each metric should move are described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricSpec is one reported metric: its name and unit. The lists below
// are the benchmark's vocabulary; BENCHMARK.json names the same metrics
// (a self-test keeps the two in step).
type metricSpec struct{ name, unit string }

// endToEndMetrics are printed on every untraced run of every workload.
var endToEndMetrics = []metricSpec{
	{"conns_per_s", "conn/s"},
	{"connect_p50_us", "us"},
	{"connect_p90_us", "us"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"alloc_kb_per_conn", "KB/conn"},
}

// perLayerMetrics are printed on every traced run of every workload; a
// layer a workload does not exercise reads 0.
var perLayerMetrics = []metricSpec{
	{"game.solve_rows_ms", "ms"},
	{"game.solve_induction_ms", "ms"},
	{"game.solve_incremental_ms", "ms"},
	{"core.route_walk_ms", "ms"},
	{"overlay.candidates_ms", "ms"},
	{"probe.tick_ms", "ms"},
	{"core.escrow_settle_ms", "ms"},
	{"experiment.other_ms", "ms"},
	{"game.solves", "count"},
	{"game.incremental_solves", "count"},
	{"game.fallback_solves", "count"},
	{"game.frontier_cells", "count"},
	{"game.incremental_share", "ratio"},
	{"transport.next_hop_calls", "count"},
	{"transport.next_hop_ms", "ms"},
	{"conductor.connect_ms", "ms"},
	{"conductor.wire_ms", "ms"},
	{"conductor.settle_ms", "ms"},
	{"conductor.connect_p99_us", "us"},
	{"transport.sent", "count"},
	{"transport.nacks", "count"},
	{"transport.timeouts", "count"},
	{"transport.reformations", "count"},
	{"transport.inbox_high_water", "count"},
	{"netwire.frames_sent", "count"},
	{"netwire.bytes_sent", "bytes"},
	{"netwire.dials", "count"},
	{"netwire.queue_high_water", "count"},
	{"setup.join_ms", "ms"},
	{"setup.link_up_ms", "ms"},
	{"faultsim.sends", "count"},
	{"faultsim.hops", "count"},
	{"faultsim.nacks", "count"},
	{"faultsim.timeouts", "count"},
	{"faultsim.reformations", "count"},
	{"faultsim.settled_batches", "count"},
	{"faultsim.events", "count"},
	{"faultsim.spans", "count"},
	{"faultsim.virtual_s", "s"},
	{"payment.keygen_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.wall_ms", "ms"},
	{"trace.other_ms", "ms"},
	{"trace.conns_per_s", "conn/s"},
}

// workload is one named input set and the function that replays it.
// residual is the largest share of the traced wall time that the layer
// table's other row may take, as README.md states it: the simulator's
// harness inside experiment.Run, the live replay loop, and nothing on
// fault-settle, whose one span is the faultsim.Run call.
type workload struct {
	name     string
	run      func(*session) error
	residual float64
}

var workloads = []workload{
	{"sim-paper", runSimPaper, 0.25},
	{"sim-scale", runSimScale, 0.25},
	{"live-tcp", runLiveTCP, 0.05},
	{"live-inproc", runLiveInproc, 0.05},
	{"fault-settle", runFaultSettle, 0},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "picks the world of the workload's fixed list each pass starts at")
	seconds := fs.Float64("seconds", 10, "wall time the run measures")
	traced := fs.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	steady := fs.Int("steady", 0, "steadiness mode: run every workload this many times, seeds 1 up, one process per run")
	out := fs.String("out", "", "steadiness mode: append every run's result to this JSONL file")
	compare := fs.Bool("compare", false, "compare two JSONL files written by --steady, given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two JSONL files")
			return 2
		}
		if err := compareSets(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *steady > 0:
		if err := steadyRuns(*steady, *seconds, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	s := newSession(w.name, *seed, *seconds, *traced == 1)
	if err := w.run(s); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if s.traced {
		if err := s.finishTrace(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	res := s.result()
	for _, msg := range s.violations {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// errNoConnections reports a run that completed no connection at all, so
// no per-connection figure could be formed.
var errNoConnections = errors.New("no connection completed")

// result assembles the run's printed object: end-to-end metrics when
// untraced, per-layer ones when traced.
func (s *session) result() result {
	res := result{
		Correct:   len(s.violations) == 0,
		Attempted: s.conns + s.failed,
		Failed:    s.failed,
		Metrics:   make(map[string]metricValue),
	}
	specs, values := endToEndMetrics, s.endToEnd()
	if s.traced {
		specs, values = perLayerMetrics, s.layers
	}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
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
