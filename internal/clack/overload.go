package clack

import (
	"fmt"
	"time"

	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
	"knit/internal/knit/overload"
)

// This file is the overload soak: an open-loop generator offers the
// fleet a multiple of its measured capacity while a shard is killed
// every KillEvery packets, and the overload layer has to keep the
// accepted traffic flowing — admission control sheds by class, the
// killed shard's breaker trips and its flows re-steer, redelivery
// replays the in-flight batch on each respawn, and a fleet-global
// order oracle proves per-flow order held through all of it.

// OverloadSpec shapes an overload soak.
type OverloadSpec struct {
	Packets   int     // offered packets in the open-loop phase
	Shards    int     // fleet width
	Multiple  float64 // offered load as a multiple of measured capacity (default 3)
	KillEvery int     // kill the serving shard every N processed packets (0 = none)
}

// The soak's traffic and redelivery are fixed: overloadFlows distinct
// flow keys from a seeded generator, and a fleet that replays a killed
// batch up to overloadRedeliver times without progress before dropping
// it.
const (
	overloadFlows     = 64
	overloadSeed      = 1
	overloadRedeliver = 3
)

// OverloadReport is the soak's ledger. AcceptedGoodput is served over
// admitted — of the traffic the fleet accepted, how much it actually
// finished; shed traffic was refused honestly at the door and does not
// count against it.
type OverloadReport struct {
	// Stats is the controller's ledger: submitted, admitted and shed by
	// class, plus the breaker, re-steer and brownout counters.
	overload.Stats

	Shards      int
	CapacityPPS float64 // measured closed-loop, packets/sec
	OfferedPPS  float64 // CapacityPPS * Multiple

	Served      uint64
	Dropped     uint64 // fleet-level batch losses (redelivery exhausted)
	Redelivered uint64

	AcceptedGoodput float64 // Served / Admitted
	ShedFraction    float64 // ShedTotal / Submitted
	P99Cycles       int64   // per-call cycle p99 from the merged fleet report

	OrderViolations int // fleet-global per-flow sequence inversions
	Respawns        int

	// ConservationOK: submitted == served + dropped + shed exactly.
	ConservationOK bool

	Rx, Tx, RouterDropped int // device-level accounting (drops here are router policy, not losses)
}

// classOf assigns deterministic priority classes by flow key: 20% High,
// 60% Normal, 20% Low.
func classOf(flow uint64) overload.Class {
	switch flow % 10 {
	case 0, 1:
		return overload.High
	case 8, 9:
		return overload.Low
	default:
		return overload.Normal
	}
}

// measureCapacity runs a short closed-loop burst through a throwaway
// fleet shaped like the soak's cfg (no kills, no controller) and returns
// the sustained packets/sec — the capacity the open-loop phase
// multiplies. The throwaway fleet drives packets the way the soak's will,
// so the multiple is of the soak's own serving capacity.
func measureCapacity(res *build.Result, cfg fleet.Config, pkts []FlowPacket) (float64, error) {
	rg, err := newRig(res, cfg, 0, 0)
	if err != nil {
		return 0, err
	}
	n := len(pkts) / 4
	if n < 256 {
		n = 256
	}
	if n > len(pkts) {
		n = len(pkts)
	}
	start := time.Now()
	for _, fp := range pkts[:n] {
		if err := rg.fl.Submit(fp.Flow, fp); err != nil {
			return 0, err
		}
	}
	if err := rg.fl.Close(); err != nil {
		return 0, fmt.Errorf("clack: capacity run: %w", err)
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n) / elapsed.Seconds(), nil
}

// ServeOverload runs the overload soak: measure capacity closed-loop,
// then offer Multiple times that rate open-loop through the overload
// controller while shards are killed on schedule.
func ServeOverload(res *build.Result, spec OverloadSpec) (*OverloadReport, error) {
	if spec.Shards < 2 {
		return nil, fmt.Errorf("clack: overload soak needs >= 2 shards (re-steering needs a sibling), got %d", spec.Shards)
	}
	if spec.Multiple <= 0 {
		spec.Multiple = 3
	}
	fspec := FlowSpec{Packets: spec.Packets, Flows: overloadFlows, Skew: 1.05, Seed: overloadSeed}
	pkts := fspec.Generate()

	cfg := fleet.Config{Shards: spec.Shards, RedeliverAttempts: overloadRedeliver}
	capacity, err := measureCapacity(res, cfg, pkts)
	if err != nil {
		return nil, err
	}
	offered := capacity * spec.Multiple

	rg, err := newRig(res, cfg, 0, spec.KillEvery)
	if err != nil {
		return nil, err
	}
	ctrl := overload.NewController(rg.fl)

	// Open loop: each packet has a wall-clock slot at the offered rate;
	// the generator never waits for the fleet, only for the clock. High
	// traffic gets a small deadline budget, everything else must fit or
	// shed.
	interval := time.Duration(float64(time.Second) / offered)
	tickEvery := len(pkts) / 64
	if tickEvery < 16 {
		tickEvery = 16
	}
	start := time.Now()
	for i, fp := range pkts {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		class := classOf(fp.Flow)
		var deadline time.Time
		if class == overload.High {
			deadline = time.Now().Add(2 * time.Millisecond)
		}
		ctrl.Submit(fp.Flow, class, fp, deadline)
		if (i+1)%tickEvery == 0 {
			ctrl.Tick()
		}
	}
	// Settle: let barriers drain and breakers close, then stop.
	for i := 0; i < 8; i++ {
		ctrl.Tick()
		time.Sleep(time.Millisecond)
	}
	ctrl.Drain(time.Now().Add(10 * time.Second))
	frep, closeErr := rg.report()
	if closeErr != nil && spec.KillEvery == 0 {
		return nil, closeErr // with kills, shard errors are the point
	}

	rep := &OverloadReport{
		Stats:           ctrl.Stats(),
		Shards:          spec.Shards,
		CapacityPPS:     capacity,
		OfferedPPS:      offered,
		OrderViolations: frep.OrderViolations,
		Rx:              frep.Rx,
		Tx:              frep.Tx,
		RouterDropped:   frep.Dropped,
	}
	totals := frep.Metrics.Totals()
	rep.P99Cycles = totals.P99()
	for _, sh := range rg.fl.Shards() {
		rep.Served += sh.Served()
		rep.Dropped += sh.Dropped()
		rep.Redelivered += sh.Redelivered()
		rep.Respawns += sh.Respawns()
	}
	if rep.Admitted > 0 {
		rep.AcceptedGoodput = float64(rep.Served) / float64(rep.Admitted)
	}
	if rep.Submitted > 0 {
		rep.ShedFraction = float64(rep.ShedTotal) / float64(rep.Submitted)
	}
	rep.ConservationOK = rep.Submitted == rep.Served+rep.Dropped+rep.ShedTotal &&
		rep.Admitted == rep.Served+rep.Dropped
	return rep, nil
}
