package main

import (
	"fmt"
	"math"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/experiment"
	"p2panon/internal/telemetry"
)

// Simulator workloads: experiment.Run on the paper's §3 setup under
// Utility Model II, which pays for a backward-induction SPNE solve per
// connection. sim-paper sweeps the Fig. 4 malicious fractions at N = 40;
// sim-scale runs the same setup at N = 1000.
const (
	paperN        = 40
	scaleN        = 1000
	scaleFraction = 0.2
	// sim-scale's warm-up runs one N = 1000 world of scaleWarmupTx
	// transmissions scaleWarmups times: the median of several short
	// repeats is steadier than one full world.
	scaleWarmups   = 4
	scaleWarmupTx  = 500
	metricSimConns = "sim_connections_total"
)

// runSimPaper replays one world per Fig. 4 malicious fraction; its
// warm-up is one more world per fraction.
func runSimPaper(s *session) error {
	n := len(experiment.DefaultFractions)
	worlds := make([]experiment.Setup, n)
	warmups := make([]experiment.Setup, n)
	for i, f := range experiment.DefaultFractions {
		worlds[i] = simSetup(paperN, f, worldSeed(i))
		warmups[i] = simSetup(paperN, f, warmupSeed(i))
	}
	return runSim(s, worlds, warmups)
}

// runSimScale replays two N = 1000 worlds after the repeated shorter
// warm-up world.
func runSimScale(s *session) error {
	worlds := []experiment.Setup{
		simSetup(scaleN, scaleFraction, worldSeed(0)),
		simSetup(scaleN, scaleFraction, worldSeed(1)),
	}
	warmups := make([]experiment.Setup, scaleWarmups)
	for k := range warmups {
		warmups[k] = simSetup(scaleN, scaleFraction, warmupSeed(0))
		warmups[k].Workload.Transmissions = scaleWarmupTx
	}
	return runSim(s, worlds, warmups)
}

func simSetup(n int, fraction float64, seed uint64) experiment.Setup {
	st := experiment.Default()
	st.N = n
	st.Strategy = core.UtilityII
	st.MaliciousFraction = fraction
	st.Seed = seed
	return st
}

// runSim runs the warm-up worlds untimed, then whole passes over the
// worlds until the run length is filled. A world is built inside
// experiment.Run, so its set-up cannot be timed apart: the run's set-up
// is the warm-up instead (first-call costs such as heap growth stay out
// of the measured phase), and setup_s is the warm-up worlds' median.
func runSim(s *session, worlds, warmups []experiment.Setup) error {
	for _, st := range warmups {
		t0 := time.Now()
		if _, err := experiment.Run(st); err != nil {
			return fmt.Errorf("warm-up world: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0))
	}

	var solver core.SolverStats
	phases := make(map[string]time.Duration)
	var wall time.Duration
	err := s.passes(len(worlds), func(i int) (time.Duration, int64, error) {
		st := worlds[i]
		reg := telemetry.NewRegistry()
		st.Telemetry = reg
		if s.traced {
			st.Profile = telemetry.NewPhaseProfiler()
		}
		var res *experiment.Result
		var err error
		start := time.Now()
		d := s.measure(func() { res, err = experiment.Run(st) })
		if err != nil {
			return 0, 0, fmt.Errorf("world seed %d: %w", st.Seed, err)
		}
		s.noteHeap()
		ran := checkSim(s, st, res, reg)
		s.conns += ran
		if s.traced {
			s.spans.add(s.spans.id(), 0, "experiment.run", start, start.Add(d))
			wall += d
			for _, p := range st.Profile.Snapshot() {
				phases[p.Phase] += time.Duration(p.NS)
			}
			solver.Solves += res.Solver.Solves
			solver.Incremental += res.Solver.Incremental
			solver.Fallbacks += res.Solver.Fallbacks
			solver.FrontierCells += res.Solver.FrontierCells
		}
		return d, ran, nil
	})
	if err != nil {
		return err
	}
	if s.traced {
		simLayers(s, phases, solver, wall)
	}
	return nil
}

// simLayers turns the phase profiler's totals into the layer table. The
// profiler's brackets are disjoint except that overlay.candidates runs
// inside route.walk, so the walk's self time subtracts it.
func simLayers(s *session, phases map[string]time.Duration, solver core.SolverStats, wall time.Duration) {
	walkSelf := phases[telemetry.PhaseRouteWalk] - phases[telemetry.PhaseOverlayCandidates]
	rows := []layerRow{
		{"game.solve_rows", phases[telemetry.PhaseSolveRows]},
		{"game.solve_induction", phases[telemetry.PhaseSolveInduction]},
		{"game.solve_incremental", phases[telemetry.PhaseSolveIncremental]},
		{"core.route_walk", walkSelf},
		{"overlay.candidates", phases[telemetry.PhaseOverlayCandidates]},
		{"probe.tick", phases[telemetry.PhaseProbeTick]},
		{"core.escrow_settle", phases[telemetry.PhaseEscrowSettle]},
	}
	for _, r := range rows {
		s.layers[r.name+"_ms"] = ms(r.self)
	}
	s.setTable(rows, wall)
	s.layers["experiment.other_ms"] = s.layers["trace.other_ms"]
	s.layers["game.solves"] = float64(solver.Solves)
	s.layers["game.incremental_solves"] = float64(solver.Incremental)
	s.layers["game.fallback_solves"] = float64(solver.Fallbacks)
	s.layers["game.frontier_cells"] = float64(solver.FrontierCells)
	if solver.Solves > 0 {
		s.layers["game.incremental_share"] = float64(solver.Incremental) / float64(solver.Solves)
	}
}

// checkSim checks one simulated world against properties the method must
// have, and returns how many connections it ran:
//   - every scheduled connection either ran or was skipped for an
//     offline endpoint, so run + skipped equals the scheduled
//     transmissions;
//   - no good node declined to forward, since every contract's
//     P_f ≥ 50 exceeds C_p + C_t = 7 (Prop. 3);
//   - every good member's income is m·P_f + P_r/‖π‖ for a whole m ≥ 1,
//     with the batch's own contract, bit for bit.
func checkSim(s *session, st experiment.Setup, res *experiment.Result, reg *telemetry.Registry) int64 {
	ran := reg.Counter(metricSimConns, telemetry.Labels{"result": "ok"}).Value()
	skipped := reg.Counter(metricSimConns, telemetry.Labels{"result": "skipped"}).Value()
	if skipped != int64(res.Skipped) {
		s.fail("seed %d: %d skipped connections counted, result says %d", st.Seed, skipped, res.Skipped)
	}
	if ran+skipped != int64(st.Workload.Transmissions) {
		s.fail("seed %d: %d run + %d skipped connections, %d scheduled", st.Seed, ran, skipped, st.Workload.Transmissions)
	}
	if res.TotalDeclines != 0 {
		s.fail("seed %d: %d declines under P_f > C_p + C_t", st.Seed, res.TotalDeclines)
	}
	for _, b := range res.Batches {
		if msg := checkIncomes(b); msg != "" {
			s.fail("seed %d: pair %d: %s", st.Seed, b.Pair.Index, msg)
		}
	}
	return ran
}

// checkIncomes checks that each good income of a batch splits as
// m·P_f + P_r/‖π‖ with a whole m ≥ 1; it returns "" when all do.
func checkIncomes(b experiment.BatchStats) string {
	if b.SetSize < 1 || len(b.GoodIncomes) > b.SetSize {
		return fmt.Sprintf("%d good incomes for a forwarder set of %d", len(b.GoodIncomes), b.SetSize)
	}
	c := b.Pair.Contract
	share := c.Pr / float64(b.SetSize)
	for _, income := range b.GoodIncomes {
		m := math.Round((income - share) / c.Pf)
		if m < 1 || math.Float64bits(m*c.Pf+share) != math.Float64bits(income) {
			return fmt.Sprintf("income %v is not m·%v + %v/%d for a whole m ≥ 1", income, c.Pf, c.Pr, b.SetSize)
		}
	}
	return ""
}

// worldSeed is the seed of the i-th world of a workload's list, and
// warmupSeed that of its k-th warm-up world (sim-scale and fault-settle
// repeat their first). The lists are fixed, so every run replays the
// same inputs and runs differ only in timing; a run's --seed picks
// where in the list it starts (see passes).
func worldSeed(i int) uint64 { return mix(uint64(i)) }

func warmupSeed(k int) uint64 { return mix(1<<32 + uint64(k)) }

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
