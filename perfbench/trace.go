package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Parent is 0 on a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds the spans a traced run keeps for its JSONL log; the
// self times below cover every span, kept or not.
const spanCap = 100_000

// spanLog records a traced run's spans: the first spanCap are kept in
// memory and written out as JSONL when the run ends, and every span's
// self time (its duration less the part its children cover) is summed
// by name as it ends. A child must end before its parent, as every
// call into a layer returns before its caller does. Safe for concurrent
// use: router spans end on the peers' goroutines.
type spanLog struct {
	t0   time.Time
	next atomic.Uint64

	mu       sync.Mutex
	spans    []span
	notKept  int
	childSum map[uint64]time.Duration
	self     map[string]time.Duration
	rootWall time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{
		t0:       time.Now(),
		childSum: make(map[uint64]time.Duration),
		self:     make(map[string]time.Duration),
	}
}

// id reserves a span id, so children can name a parent before it ends.
func (l *spanLog) id() uint64 { return l.next.Add(1) }

// add records a finished span.
func (l *spanLog) add(id, parent uint64, name string, start, end time.Time) {
	d := end.Sub(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	if parent != 0 {
		l.childSum[parent] += d
	} else {
		l.rootWall += d
	}
	l.self[name] += d - l.childSum[id]
	delete(l.childSum, id)
	if len(l.spans) == spanCap {
		l.notKept++
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
}

// layerRow is one row of a layer table: a layer's self time.
type layerRow struct {
	name string
	self time.Duration
}

// setTable installs a layer table whose rows plus an "other" row (the
// wall time no row covers) sum to wall.
func (s *session) setTable(rows []layerRow, wall time.Duration) {
	var covered time.Duration
	for _, r := range rows {
		covered += r.self
	}
	s.table = append(rows, layerRow{"other", wall - covered})
	s.tableWall = wall
	s.layers["trace.wall_ms"] = ms(wall)
	s.layers["trace.other_ms"] = ms(wall - covered)
}

// residualShare is the layer table's other row as a share of its wall
// time; within [0, workload.residual] when every layer is accounted for.
func (s *session) residualShare() float64 {
	if len(s.table) == 0 || s.tableWall <= 0 {
		return 0
	}
	return float64(s.table[len(s.table)-1].self) / float64(s.tableWall)
}

// finishTrace completes a traced run: the run-wide per-layer metrics,
// the layer table on w, and the span log written as JSONL.
func (s *session) finishTrace(w io.Writer) error {
	// The same throughput formula as the untraced run's conns_per_s, so
	// the two differ by the tracing overhead.
	s.layers["trace.conns_per_s"] = s.endToEnd()["conns_per_s"]
	s.layers["runtime.gc_cycles"] = float64(s.gcCycles)
	s.layers["runtime.gc_pause_ms"] = ms(s.gcPause)

	fmt.Fprintf(w, "layer table: %s seed %d, traced wall %.1f ms\n", s.workload, s.seed, ms(s.tableWall))
	for _, r := range s.table {
		share := 0.0
		if s.tableWall > 0 {
			share = 100 * float64(r.self) / float64(s.tableWall)
		}
		fmt.Fprintf(w, "  %-26s %12.1f ms %6.1f%%\n", r.name, ms(r.self), share)
	}
	wl, _ := findWorkload(s.workload)
	fmt.Fprintf(w, "  other is %.1f%% of the traced wall; README.md states at most %.0f%%\n", 100*s.residualShare(), 100*wl.residual)
	for _, k := range sortedKeys(s.layers) {
		fmt.Fprintf(w, "  # %s = %.6g\n", k, s.layers[k])
	}

	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", s.workload, s.seed))
	if err := writeSpans(path, s.spans.spans); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d written to %s, %d more not kept\n", len(s.spans.spans), path, s.spans.notKept)
	return nil
}

func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
