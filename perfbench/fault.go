package main

import (
	"fmt"
	"time"

	"p2panon/internal/faultsim"
	"p2panon/internal/payment"
)

// fault-settle: faultsim.Run on a static 40-node world with the utility
// router and 20 connections per batch, plus a seeded mix of the faults
// the protocol absorbs without losing a connection. It is the
// one workload that settles through the bank escrow, the HMAC receipts
// and the settle queue, on the virtual clock. Worlds are long because
// each builds a bank with a fresh RSA key, whose generation time varies
// widely from key to key.
const (
	faultNodes   = 40
	faultConns   = 20
	faultBatches = 1500
	faultWorlds  = 2
	// faultsPer is the number of faults scheduled per this many batches.
	faultsPer = 10
	// The set-up runs one warm-up world of warmupBatches batches
	// faultWarmups times. Its key generation takes 12–200 ms; the world is
	// long enough, and repeated often enough, that key generation does
	// not drive the median.
	warmupBatches = 600
	faultWarmups  = 6
	// keygens is how many bank keys a traced run generates on their own;
	// their median estimates one world's key generation.
	keygens = 5
)

// absorbedFaults are the fault kinds a correct system absorbs without
// losing a connection: a dropped message times out and the attempt is
// reformed, delays/duplicates/reorders are tolerated, probe lies only
// move routing, and inflated claims and double deposits are rejected by
// the receipts and the bank. Crashes, and session churn, are left out:
// a batch whose initiator or responder leaves loses connections, and no
// operation of the workload may fail.
var absorbedFaults = []string{
	faultsim.FaultDrop, faultsim.FaultDelay, faultsim.FaultDuplicate, faultsim.FaultReorder,
	faultsim.FaultInflate, faultsim.FaultDoubleDeposit, faultsim.FaultProbeLie,
}

// faultPlan builds a world of the given length from seed: the world
// shape above and batches/faultsPer faults drawn from absorbedFaults.
// TraceCap holds the whole event trace and span log of the world.
func faultPlan(seed uint64, batches int) faultsim.Plan {
	p := faultsim.Plan{
		Seed:    seed,
		Nodes:   faultNodes,
		Conns:   faultConns,
		Batches: batches,
		Router:  "utility",
	}.Normalize()
	p.TraceCap = 256*batches + 4096
	// Each batch lasts about 33 virtual seconds (20 connections spaced
	// by the workload gap), so node faults are spread over the world.
	horizon := uint64(30 * batches)
	z := seed
	next := func() uint64 { z = mix(z); return z }
	for i := 0; i < batches/faultsPer; i++ {
		f := faultsim.Fault{Kind: absorbedFaults[next()%uint64(len(absorbedFaults))]}
		switch f.Kind {
		case faultsim.FaultDrop, faultsim.FaultDelay, faultsim.FaultDuplicate, faultsim.FaultReorder:
			f.Batch = 1 + int(next()%uint64(batches))
			f.Conn = 1 + int(next()%faultConns)
			f.Msg = 1 + int(next()%6)
			f.Delay = 0.05 + float64(next()%40)/100
		case faultsim.FaultDoubleDeposit, faultsim.FaultProbeLie:
			f.Node = int(next() % faultNodes)
			f.At = float64(next() % horizon)
		case faultsim.FaultInflate:
			f.Batch = 1 + int(next()%uint64(batches))
			f.Node = int(next() % faultNodes)
			f.Count = 1 + int(next()%4)
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}

// runFaultSettle replays whole passes over faultWorlds long fixed worlds
// until the run length is filled. A world is built inside
// faultsim.Run, so set-up is an untimed warm-up world, repeated, and
// setup_s is its median.
func runFaultSettle(s *session) error {
	for k := 0; k < faultWarmups; k++ {
		t0 := time.Now()
		if _, err := faultsim.Run(faultPlan(warmupSeed(0), warmupBatches)); err != nil {
			return fmt.Errorf("warm-up world: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0))
	}
	var keygen time.Duration
	if s.traced {
		times := make([]time.Duration, keygens)
		for k := range times {
			t0 := time.Now()
			if _, err := payment.NewBank(faultPlan(0, 1).KeyBits); err != nil {
				return err
			}
			times[k] = time.Since(t0)
		}
		keygen = time.Duration(medianDuration(times) * float64(time.Second))
	}

	var sum faultsim.Result
	var wall time.Duration
	var worlds int
	plans := make([]faultsim.Plan, faultWorlds)
	for i := range plans {
		plans[i] = faultPlan(worldSeed(i), faultBatches)
	}
	err := s.passes(len(plans), func(i int) (time.Duration, int64, error) {
		p := plans[i]
		var res *faultsim.Result
		var err error
		start := time.Now()
		d := s.measure(func() { res, err = faultsim.Run(p) })
		if err != nil {
			return 0, 0, fmt.Errorf("world %d: %w", i, err)
		}
		s.noteHeap()
		checkFault(s, p, res)
		s.conns += res.Delivered
		s.failed += res.Failed
		worlds++
		if s.traced {
			s.spans.add(s.spans.id(), 0, "faultsim.run", start, start.Add(d))
			wall += d
			sum.Sends += res.Sends
			sum.Hops += res.Hops
			sum.Nacks += res.Nacks
			sum.Timeouts += res.Timeouts
			sum.Reformations += res.Reformations
			sum.SettledBatches += res.SettledBatches
			sum.VirtualSeconds += res.VirtualSeconds
			s.layers["faultsim.events"] += float64(len(res.Events))
			s.layers["faultsim.spans"] += float64(len(res.Spans))
		}
		return d, res.Delivered, nil
	})
	if err != nil {
		return err
	}
	if s.traced {
		// faultsim.Run cannot be split from outside; the key-generation
		// row is estimated from banks generated on their own.
		keyRow := keygen * time.Duration(worlds)
		s.setTable([]layerRow{
			{"payment.keygen (est.)", keyRow},
			{"faultsim.world", wall - keyRow},
		}, wall)
		s.layers["payment.keygen_ms"] = ms(keygen)
		s.layers["faultsim.sends"] = float64(sum.Sends)
		s.layers["faultsim.hops"] = float64(sum.Hops)
		s.layers["faultsim.nacks"] = float64(sum.Nacks)
		s.layers["faultsim.timeouts"] = float64(sum.Timeouts)
		s.layers["faultsim.reformations"] = float64(sum.Reformations)
		s.layers["faultsim.settled_batches"] = float64(sum.SettledBatches)
		s.layers["faultsim.virtual_s"] = sum.VirtualSeconds
	}
	return nil
}

// checkFault checks one fault world: every invariant holds, every
// scheduled connection was delivered or failed, no settlement failed,
// and no trace event or span was dropped.
func checkFault(s *session, p faultsim.Plan, res *faultsim.Result) {
	for _, v := range res.Violations {
		s.fail("seed %d: %s", p.Seed, v)
	}
	if want := int64(p.Batches * p.Conns); res.Delivered+res.Failed != want {
		s.fail("seed %d: %d delivered + %d failed connections, %d scheduled", p.Seed, res.Delivered, res.Failed, want)
	}
	if res.FailedSettles != 0 {
		s.fail("seed %d: %d settlements failed", p.Seed, res.FailedSettles)
	}
	if res.TraceDropped != 0 || res.SpanDropped != 0 {
		s.fail("seed %d: %d events and %d spans dropped", p.Seed, res.TraceDropped, res.SpanDropped)
	}
}
