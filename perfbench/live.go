package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/quality"
	"p2panon/internal/trace"
	"p2panon/internal/transport"
)

// Live workloads: the paper's trace (100 (I,R) pairs, 2000
// transmissions) replayed over a live runtime built from an N = 40
// overlay snapshot, with the Model-I utility router, one ConnectDetail
// call outstanding at a time, then every batch settled. live-tcp runs
// it over netwire's loopback sockets, live-inproc over transport's
// channels.
const (
	liveN       = 40
	liveWorlds  = 4
	liveDegree  = 5
	liveBudget  = 5
	liveTimeout = 5 * time.Second
	probeWait   = 2 * time.Second
)

func runLiveTCP(s *session) error    { return runLive(s, true) }
func runLiveInproc(s *session) error { return runLive(s, false) }

// settler is the settlement call both backends provide beside
// transport.Conductor.
type settler interface {
	SettleBatch(initiator overlay.NodeID, batch int, out *transport.BatchOutcome, contract core.Contract) (int, error)
}

// liveWorld is one built and joined live runtime with its inputs.
type liveWorld struct {
	topo    transport.Topology
	pairs   []trace.Pair
	cond    transport.Conductor
	cluster *netwire.Cluster // nil in-process
}

// liveTotals accumulates a run's per-layer figures across worlds.
type liveTotals struct {
	join, linkUp time.Duration
	counters     transport.MetricsSnapshot
	frames       int64
	bytes        int64
	dials        int64
	queueHigh    int64
}

// runLive replays whole passes over liveWorlds fixed worlds until the
// run length is filled. Each replay rebuilds its world;
// setup_s is the median world set-up: building the overlay and inputs,
// joining every peer and, over TCP, bringing every link up so no dial
// lands in a timed connect.
func runLive(s *session, tcp bool) error {
	var tot liveTotals
	var router *timedRouter
	var current atomic.Uint64
	if s.traced {
		router = &timedRouter{log: s.spans, parent: &current}
	}
	err := s.passes(liveWorlds, func(i int) (time.Duration, int64, error) {
		t0 := time.Now()
		w, err := buildLiveWorld(worldSeed(i), tcp, router, &tot)
		if err != nil {
			return 0, 0, fmt.Errorf("world %d: %w", i, err)
		}
		s.setups = append(s.setups, time.Since(t0))
		d, conns, err := replay(s, w, &current, &tot)
		w.cond.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("world %d: %w", i, err)
		}
		return d, conns, nil
	})
	if err != nil {
		return err
	}
	if s.traced {
		liveLayers(s, router, &tot)
	}
	return nil
}

// buildLiveWorld builds the overlay, the probe-derived availability
// scores and the trace from seed, then starts the runtime and joins every
// peer with one shared utility router (wrapped for timing when traced).
func buildLiveWorld(seed uint64, tcp bool, wrap *timedRouter, tot *liveTotals) (*liveWorld, error) {
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(liveDegree, rng.Split())
	for i := 0; i < liveN; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	topo := transport.SnapshotTopology(net)
	pairs, err := trace.DefaultWorkload().Generate(net, rng.Split())
	if err != nil {
		return nil, err
	}
	var router transport.Router = transport.NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), availability(net, probes))
	if wrap != nil {
		wrap.set(router)
		router = wrap
	}

	w := &liveWorld{topo: topo, pairs: pairs}
	if tcp {
		w.cluster = netwire.NewCluster(netwire.Config{})
		w.cond = w.cluster
	} else {
		w.cond = transport.NewNetwork(0)
	}
	ids := make([]overlay.NodeID, 0, len(topo))
	for id := range topo {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t0 := time.Now()
	for _, id := range ids {
		if err := w.cond.Join(id, router); err != nil {
			w.cond.Close()
			return nil, err
		}
	}
	t1 := time.Now()
	tot.join += t1.Sub(t0)
	if w.cluster != nil {
		// Delivery hops and settle frames go to nodes that are not overlay
		// neighbours, so every ordered pair of nodes gets its link. Each
		// direction is probed on its own: a probe frame carries no sender
		// id, so the ack does not come back over the reverse link.
		for _, a := range ids {
			for _, b := range ids {
				if a != b && !w.cluster.Probe(a, b, probeWait) {
					w.cond.Close()
					return nil, fmt.Errorf("link %d→%d did not come up", a, b)
				}
			}
		}
		tot.linkUp += time.Since(t1)
	}
	return w, nil
}

// availability scores each node by the session time its observers have
// seen, normalised to sum to 1. Observers are walked in ID order so the
// scores, and with them the router's choices, repeat bit for bit.
func availability(net *overlay.Network, probes *probe.Set) map[overlay.NodeID]float64 {
	online := net.OnlineIDs()
	raw := make(map[overlay.NodeID]float64, len(online))
	var total float64
	for _, v := range online {
		var t float64
		for _, obs := range online {
			if obs != v {
				t += probes.For(obs).SessionTime(v)
			}
		}
		raw[v] = t
		total += t
	}
	avail := make(map[overlay.NodeID]float64, len(online))
	for _, v := range online {
		avail[v] = 1 / float64(len(online))
		if total > 0 {
			avail[v] = raw[v] / total
		}
	}
	return avail
}

// replay is one world's timed phase: the interleaved trace, one
// ConnectDetail call at a time, then every batch settled and, over TCP,
// each member's credit polled until it lands. The checks run after. It
// returns the timed phase's wall time and the completed connections.
func replay(s *session, w *liveWorld, current *atomic.Uint64, tot *liveTotals) (time.Duration, int64, error) {
	sched := trace.Interleave(w.pairs)
	outs := make([]*transport.BatchOutcome, len(w.pairs))
	for i := range outs {
		outs[i] = transport.NewBatchOutcome()
	}
	lat := make([]time.Duration, len(sched))
	var failed int64
	var root uint64
	if s.traced {
		root = s.spans.id()
	}
	var before map[string]int64
	if w.cluster != nil {
		before = netwireCounters(w.cluster)
	}
	m0 := w.cond.Metrics()

	var settleErr error
	var unsettled int
	start := time.Now()
	d := s.measure(func() {
		for k, c := range sched {
			p := &w.pairs[c.Pair]
			var id uint64
			if s.traced {
				id = s.spans.id()
				current.Store(id)
			}
			t0 := time.Now()
			path, _, err := w.cond.ConnectDetail(p.Initiator, p.Responder, p.Index+1, c.Conn, liveBudget, liveTimeout)
			t1 := time.Now()
			lat[k] = t1.Sub(t0)
			if s.traced {
				s.spans.add(id, root, "conductor.connect", t0, t1)
			}
			if err != nil {
				failed++
				continue
			}
			outs[c.Pair].Record(path, p.Initiator)
		}
		t0 := time.Now()
		unsettled, settleErr = settle(w, outs)
		if s.traced {
			s.spans.add(s.spans.id(), root, "conductor.settle", t0, time.Now())
		}
	})
	if s.traced {
		s.spans.add(root, 0, "live.timed", start, start.Add(d))
	}
	s.noteHeap()
	if settleErr != nil {
		return 0, 0, settleErr
	}
	if unsettled > 0 {
		s.fail("%d credits did not land within %v", unsettled, liveTimeout)
	}

	m1 := w.cond.Metrics()
	delta := m1.Delta(m0)
	tot.counters.Sent += delta.Sent
	tot.counters.Nacks += delta.Nacks
	tot.counters.Timeouts += delta.Timeouts
	tot.counters.Reformations += delta.Reformations
	tot.counters.InboxHighWater = max(tot.counters.InboxHighWater, m1.InboxHighWater)
	if w.cluster != nil {
		after := netwireCounters(w.cluster)
		tot.frames += after["frames"] - before["frames"]
		tot.bytes += after["bytes"] - before["bytes"]
		tot.dials += after["dials"] - before["dials"]
		tot.queueHigh = max(tot.queueHigh, after["queue"])
	}

	completed := int64(len(sched)) - failed
	s.failed += failed
	s.conns += completed
	us := make([]float64, len(lat))
	for i, l := range lat {
		us[i] = float64(l.Nanoseconds()) / 1e3
	}
	s.p50s = append(s.p50s, percentile(us, 50))
	s.p90s = append(s.p90s, percentile(us, 90))
	s.p99s = append(s.p99s, percentile(us, 99))
	checkLive(s, w, outs)
	return d, completed, nil
}

// settle sends every batch's split payment and, over TCP, waits until
// each member's credit has landed. It returns how many credits were still
// missing at the deadline.
func settle(w *liveWorld, outs []*transport.BatchOutcome) (int, error) {
	st := w.cond.(settler)
	for i, p := range w.pairs {
		if outs[i].SetSize() == 0 {
			continue
		}
		n, err := st.SettleBatch(p.Initiator, p.Index+1, outs[i], p.Contract)
		if err != nil {
			return 0, err
		}
		if n != outs[i].SetSize() {
			return 0, fmt.Errorf("pair %d: %d of %d settle frames sent", p.Index, n, outs[i].SetSize())
		}
	}
	if w.cluster == nil {
		return 0, nil
	}
	deadline := time.Now().Add(liveTimeout)
	missing := 0
	for i, p := range w.pairs {
		for id := range outs[i].Set {
			nd := w.cluster.Node(id)
			for nd.Credited(p.Index+1) == 0 {
				if time.Now().After(deadline) {
					missing++
					break
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	return missing, nil
}

// netwireCounters reads the socket layer's counters from the cluster's
// telemetry registry.
func netwireCounters(c *netwire.Cluster) map[string]int64 {
	out := make(map[string]int64)
	snap := c.Telemetry().Snapshot()
	for _, p := range snap.Counters {
		switch {
		case p.Name == "netwire_frames_total" && p.Labels["dir"] == "sent":
			out["frames"] += p.Value
		case p.Name == "netwire_bytes_total" && p.Labels["dir"] == "sent":
			out["bytes"] += p.Value
		case p.Name == "netwire_dials_total" && p.Labels["result"] == "ok":
			out["dials"] += p.Value
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "netwire_queue_depth_high_water" {
			out["queue"] = g.Value
		}
	}
	return out
}

// checkLive checks a replayed world against the topology snapshot and a
// settlement recomputed from the recorded paths:
//   - each path runs I → R, every hop before the delivery hop is an edge
//     of the snapshot, and it has at most budget + 1 hops;
//   - each member's share is m·P_f + P_r/‖π‖ with m counted from the
//     paths, bit for bit against what the backend credited (TCP) or
//     settled from (in-process);
//   - a batch's shares sum to (Σm)·P_f + P_r.
func checkLive(s *session, w *liveWorld, outs []*transport.BatchOutcome) {
	for i, p := range w.pairs {
		out := outs[i]
		if msg := checkPaths(w.topo, p, out.Paths, liveBudget); msg != "" {
			s.fail("pair %d: %s", p.Index, msg)
			continue
		}
		shares := expectedShares(p, out.Paths)
		if len(shares) != out.SetSize() {
			s.fail("pair %d: %d members recomputed, backend has %d", p.Index, len(shares), out.SetSize())
			continue
		}
		var sum float64
		var forwards int
		for id, sh := range shares {
			got := out.Payoff(id, p.Contract)
			if w.cluster != nil {
				got = w.cluster.Node(id).Credited(p.Index + 1)
			}
			if math.Float64bits(got) != math.Float64bits(sh.amount) {
				s.fail("pair %d: node %d credited %v, want %v", p.Index, id, got, sh.amount)
			}
			sum += got
			forwards += sh.forwards
		}
		if len(shares) > 0 {
			want := float64(forwards)*p.Contract.Pf + p.Contract.Pr
			if math.Abs(sum-want) > 1e-9*want {
				s.fail("pair %d: shares sum to %v, want %v", p.Index, sum, want)
			}
		}
	}
}

// checkPaths returns "" when every path of a pair is well formed.
func checkPaths(topo transport.Topology, p trace.Pair, paths [][]overlay.NodeID, budget int) string {
	for _, path := range paths {
		if len(path) < 2 || path[0] != p.Initiator || path[len(path)-1] != p.Responder {
			return fmt.Sprintf("path %v does not run %d → %d", path, p.Initiator, p.Responder)
		}
		if len(path)-1 > budget+1 {
			return fmt.Sprintf("path %v has %d hops, budget %d allows %d", path, len(path)-1, budget, budget+1)
		}
		for k := 0; k+2 < len(path); k++ {
			if !isEdge(topo, path[k], path[k+1]) {
				return fmt.Sprintf("path %v hops %d → %d, not an edge", path, path[k], path[k+1])
			}
		}
	}
	return ""
}

func isEdge(topo transport.Topology, a, b overlay.NodeID) bool {
	for _, v := range topo[a] {
		if v == b {
			return true
		}
	}
	return false
}

// share is one forwarder's recomputed settlement.
type share struct {
	forwards int
	amount   float64
}

// expectedShares recomputes a batch's split payment from its paths: a
// forwarder is any interior node other than the initiator, m its interior
// appearances, and its share m·P_f + P_r/‖π‖.
func expectedShares(p trace.Pair, paths [][]overlay.NodeID) map[overlay.NodeID]share {
	m := make(map[overlay.NodeID]int)
	for _, path := range paths {
		for _, f := range path[1 : len(path)-1] {
			if f != p.Initiator {
				m[f]++
			}
		}
	}
	out := make(map[overlay.NodeID]share, len(m))
	for id, n := range m {
		out[id] = share{forwards: n, amount: float64(n)*p.Contract.Pf + p.Contract.Pr/float64(len(m))}
	}
	return out
}

// liveLayers forms the live layer table from the spans: router time,
// the conductor's own time (connect minus router, i.e. codec, links,
// queues and scheduling), settlement, and the loop's remainder.
func liveLayers(s *session, router *timedRouter, tot *liveTotals) {
	self, wall := s.spans.self, s.spans.rootWall
	connect := self["conductor.connect"] + self["transport.next_hop"]
	s.setTable([]layerRow{
		{"transport.next_hop", self["transport.next_hop"]},
		{"conductor.wire", self["conductor.connect"]},
		{"conductor.settle", self["conductor.settle"]},
	}, wall)
	s.layers["transport.next_hop_calls"] = float64(router.calls.Load())
	s.layers["transport.next_hop_ms"] = ms(time.Duration(router.busy.Load()))
	s.layers["conductor.connect_ms"] = ms(connect)
	s.layers["conductor.wire_ms"] = ms(self["conductor.connect"])
	s.layers["conductor.settle_ms"] = ms(self["conductor.settle"])
	s.layers["conductor.connect_p99_us"] = median(s.p99s)
	s.layers["transport.sent"] = float64(tot.counters.Sent)
	s.layers["transport.nacks"] = float64(tot.counters.Nacks)
	s.layers["transport.timeouts"] = float64(tot.counters.Timeouts)
	s.layers["transport.reformations"] = float64(tot.counters.Reformations)
	s.layers["transport.inbox_high_water"] = float64(tot.counters.InboxHighWater)
	s.layers["netwire.frames_sent"] = float64(tot.frames)
	s.layers["netwire.bytes_sent"] = float64(tot.bytes)
	s.layers["netwire.dials"] = float64(tot.dials)
	s.layers["netwire.queue_high_water"] = float64(tot.queueHigh)
	s.layers["setup.join_ms"] = ms(tot.join)
	s.layers["setup.link_up_ms"] = ms(tot.linkUp)
}

// timedRouter wraps the router passed to Join when tracing: each NextHop
// call becomes a span under the connect span in flight (one connection
// is outstanding at a time), and liveness marks pass through so the
// runtime still registers the router as transport.ChurnAware.
type timedRouter struct {
	log    *spanLog
	parent *atomic.Uint64
	inner  transport.Router
	churn  transport.ChurnAware
	calls  atomic.Int64
	busy   atomic.Int64 // ns
}

// set points the wrapper at a new world's router, between worlds.
func (r *timedRouter) set(inner transport.Router) {
	r.inner = inner
	r.churn, _ = inner.(transport.ChurnAware)
}

func (r *timedRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	id := r.log.id()
	t0 := time.Now()
	next, deliver := r.inner.NextHop(self, pred, initiator, responder, batch, conn, remaining)
	t1 := time.Now()
	r.log.add(id, r.parent.Load(), "transport.next_hop", t0, t1)
	r.calls.Add(1)
	r.busy.Add(int64(t1.Sub(t0)))
	return next, deliver
}

func (r *timedRouter) MarkDead(id overlay.NodeID) {
	if r.churn != nil {
		r.churn.MarkDead(id)
	}
}

func (r *timedRouter) MarkLive(id overlay.NodeID) {
	if r.churn != nil {
		r.churn.MarkLive(id)
	}
}

var _ transport.ChurnAware = (*timedRouter)(nil)
