package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/experiment"
	"p2panon/internal/faultsim"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/trace"
	"p2panon/internal/transport"
)

// TestSimCheckFires runs one paper-scale world, checks that the clean
// result passes, then that each corruption is caught.
func TestSimCheckFires(t *testing.T) {
	st := simSetup(paperN, 0.1, worldSeed(0))
	reg := telemetry.NewRegistry()
	st.Telemetry = reg
	res, err := experiment.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession("test", 1, 1, false)
	if ran := checkSim(s, st, res, reg); ran == 0 || len(s.violations) != 0 {
		t.Fatalf("clean world: ran %d, violations %v", ran, s.violations)
	}

	b := res.Batches[0]
	c := b.Pair.Contract
	share := c.Pr / float64(b.SetSize)
	corrupt := map[string]func(*experiment.Result){
		"income off by half a P_f": func(r *experiment.Result) { r.Batches[0].GoodIncomes[0] += c.Pf / 2 },
		"income with m = 0":        func(r *experiment.Result) { r.Batches[0].GoodIncomes[0] = share },
		"income off by one unit":   func(r *experiment.Result) { r.Batches[0].GoodIncomes[0]++ },
		"a decline":                func(r *experiment.Result) { r.TotalDeclines = 1 },
		"a skip not counted":       func(r *experiment.Result) { r.Skipped++ },
	}
	if len(b.GoodIncomes) == 0 {
		t.Fatal("first batch has no good income to corrupt")
	}
	for name, f := range corrupt {
		r := *res
		r.Batches = append([]experiment.BatchStats(nil), res.Batches...)
		r.Batches[0].GoodIncomes = append([]float64(nil), b.GoodIncomes...)
		f(&r)
		s := newSession("test", 1, 1, false)
		checkSim(s, st, &r, reg)
		if len(s.violations) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}

	// A connection missing from the run/skipped accounting.
	reg.Counter(metricSimConns, telemetry.Labels{"result": "ok"}).Add(-1)
	s = newSession("test", 1, 1, false)
	checkSim(s, st, res, reg)
	if len(s.violations) == 0 {
		t.Error("run + skipped != scheduled: not caught")
	}
}

// liveFixture is a five-node topology with one pair 0 → 4 and two
// recorded paths, 0 1 2 4 and 0 1 3 4.
func liveFixture() (*liveWorld, []*transport.BatchOutcome) {
	topo := transport.Topology{
		0: {1, 3}, 1: {0, 2, 3}, 2: {1, 4}, 3: {0, 1, 4}, 4: {2, 3},
	}
	pair := trace.Pair{Index: 0, Initiator: 0, Responder: 4, Contract: core.ContractWithTau(60, 2), Connections: 2}
	w := &liveWorld{topo: topo, pairs: []trace.Pair{pair}}
	out := transport.NewBatchOutcome()
	out.Record([]overlay.NodeID{0, 1, 2, 4}, 0)
	out.Record([]overlay.NodeID{0, 1, 3, 4}, 0)
	return w, []*transport.BatchOutcome{out}
}

func TestLiveCheckFires(t *testing.T) {
	w, outs := liveFixture()
	s := newSession("test", 1, 1, false)
	checkLive(s, w, outs)
	if len(s.violations) != 0 {
		t.Fatalf("clean outcome: %v", s.violations)
	}
	// Node 1 forwarded twice: 2·60 + 120/3.
	if got := expectedShares(w.pairs[0], outs[0].Paths)[1]; got.forwards != 2 || got.amount != 160 {
		t.Fatalf("share of node 1 = %+v, want 2 forwards, 160", got)
	}

	corrupt := map[string]func(*transport.BatchOutcome){
		"payoff off by one P_f": func(o *transport.BatchOutcome) { o.Forwards[2]++ },
		"non-edge hop": func(o *transport.BatchOutcome) {
			o.Paths[0] = []overlay.NodeID{0, 2, 1, 4}
		},
		"wrong responder": func(o *transport.BatchOutcome) {
			o.Paths[1] = []overlay.NodeID{0, 1, 3}
		},
		"over budget": func(o *transport.BatchOutcome) {
			o.Paths[0] = []overlay.NodeID{0, 1, 0, 1, 0, 1, 0, 1, 2, 4}
		},
		"member missing": func(o *transport.BatchOutcome) { delete(o.Set, 3) },
	}
	for name, f := range corrupt {
		w, outs := liveFixture()
		f(outs[0])
		s := newSession("test", 1, 1, false)
		checkLive(s, w, outs)
		if len(s.violations) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestFaultCheckFires(t *testing.T) {
	p := faultsim.Plan{Batches: 2, Conns: 3}
	clean := faultsim.Result{Delivered: 6}
	s := newSession("test", 1, 1, false)
	checkFault(s, p, &clean)
	if len(s.violations) != 0 {
		t.Fatalf("clean result: %v", s.violations)
	}
	corrupt := map[string]func(*faultsim.Result){
		"violation":         func(r *faultsim.Result) { r.Violations = []faultsim.Violation{{Invariant: "x", Detail: "y"}} },
		"lost connection":   func(r *faultsim.Result) { r.Delivered-- },
		"failed settlement": func(r *faultsim.Result) { r.FailedSettles = 1 },
		"dropped event":     func(r *faultsim.Result) { r.TraceDropped = 1 },
		"dropped span":      func(r *faultsim.Result) { r.SpanDropped = 1 },
	}
	for name, f := range corrupt {
		r := clean
		f(&r)
		s := newSession("test", 1, 1, false)
		checkFault(s, p, &r)
		if len(s.violations) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestSpanLogSelfTimes(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	// root 0–100 ms holds b 10–40 (which holds c 20–30) and c 50–60;
	// children end, and are added, before their parents.
	l.add(3, 2, "c", at(20), at(30))
	l.add(2, 1, "b", at(10), at(40))
	l.add(4, 1, "c", at(50), at(60))
	l.add(1, 0, "root", at(0), at(100))
	want := map[string]time.Duration{"root": 60 * time.Millisecond, "b": 20 * time.Millisecond, "c": 20 * time.Millisecond}
	if l.rootWall != 100*time.Millisecond || len(l.self) != len(want) || len(l.spans) != 4 {
		t.Fatalf("self %v wall %v, %d spans", l.self, l.rootWall, len(l.spans))
	}
	for k, v := range want {
		if l.self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, l.self[k], v)
		}
	}
	if len(l.childSum) != 0 {
		t.Errorf("child sums of ended spans kept: %v", l.childSum)
	}
}

// TestSpecMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestSpecMatchesMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) || len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(endToEndMetrics), len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end %d: %s %s vs %v", i, m.Name, m.Unit, endToEndMetrics[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer %d: %s %s vs %v", i, m.Name, m.Unit, perLayerMetrics[i])
		}
	}
}

// TestRunPrintsEveryMetric runs the in-process workload briefly, untraced
// and traced, and checks the printed result and the layer table.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "live-inproc", "--seed", "3", "--seconds", "0.05", "--trace", traced}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, errOut.String())
		}
		var res result
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: %+v", traced, res)
		}
		specs := endToEndMetrics
		if traced == "1" {
			specs = perLayerMetrics
			if !strings.Contains(out.String(), "layer table: live-inproc") {
				t.Error("traced run printed no layer table")
			}
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(res.Metrics), len(specs))
		}
		for _, m := range specs {
			v, ok := res.Metrics[m.name]
			if !ok || v.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v", traced, m.name, v)
			}
			if traced == "0" && !(v.Value > 0) {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestLayerTableResidual runs every workload traced, briefly, and checks
// that the layer table's other row is neither negative (spans counted
// twice) nor above the residual README.md states for the workload.
// sim-scale, whose one pass takes ~10 s, runs only without -short.
func TestLayerTableResidual(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "sim-scale" {
			continue
		}
		s := newSession(w.name, 1, 0.05, true)
		if err := w.run(s); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(s.table) == 0 || s.tableWall <= 0 {
			t.Fatalf("%s: no layer table", w.name)
		}
		share := s.residualShare()
		t.Logf("%s: other is %.2f%% of %v", w.name, 100*share, s.tableWall)
		if share < 0 || share > w.residual {
			t.Errorf("%s: other is %.2f%% of the traced wall, want 0 to %.0f%%", w.name, 100*share, 100*w.residual)
		}
		if strings.HasPrefix(w.name, "live-") {
			if calls := s.layers["transport.next_hop_calls"]; calls == 0 || math.IsNaN(calls) {
				t.Errorf("%s: router wrapper saw %v calls", w.name, calls)
			}
		}
	}
}
