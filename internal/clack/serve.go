package clack

import (
	"fmt"

	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

// ServeReport summarizes one supervised serving run: what the devices
// saw, how much traffic survived the faults, and where every unit
// instance ended up.
type ServeReport struct {
	Stats *DeviceStats
	// Goodput is (transmitted + deliberately dropped) / received: the
	// fraction of ingested packets the router fully accounted for.
	// Packets lost mid-pipeline to a fault are the difference.
	Goodput float64
	Calls   int // supervised kmain iterations driven
	Faults  int // iterations that ended in a handled fault
	// Converged reports that the run ended with every instance serving
	// (healthy or degraded-to-fallback; never dead or mid-backoff).
	Converged  bool
	Statuses   []supervise.InstanceStatus
	Recoveries []supervise.RecoveryRecord
	Events     []supervise.Event
	// Metrics is the per-instance observability snapshot for the run: a
	// collector rides on every supervised serve, so calls, cycles, traps,
	// restarts, and swaps are attributed per unit instance (clack
	// -metrics renders it).
	Metrics *observe.Report
}

// FirstInstanceOf returns the first instance of the named unit in the
// program's instantiation order, or nil.
func FirstInstanceOf(res *build.Result, unitName string) *link.Instance {
	for _, inst := range res.Program.Instances {
		if inst.Unit.Name == unitName {
			return inst
		}
	}
	return nil
}

// ServeSupervised runs a built router as a supervised service over the
// given traffic, one kmain iteration per supervised call so every fault
// costs at most the packet in flight. When faultEvery > 0, an injected
// trap kills the first Classifier instance's push entry on every n-th
// call — the acceptance scenario for degraded-mode serving: the
// supervisor restarts it per policy, then swaps in ClassifierSafe, and
// the router keeps forwarding throughout.
func ServeSupervised(res *build.Result, spec TrafficSpec, pol *supervise.Policy,
	clk supervise.Clock, faultEvery int) (*ServeReport, error) {

	m := res.NewMachine()
	stats := InstallDevices(m, spec.Generate())
	machine.InstallStopWatch(m) // elements tick the measurement window
	col := observe.Attach(m)    // near-zero cost; every serve is observable
	sup := supervise.New(res, m, pol, clk)
	sup.Observe(col) // before init, so the ledger counts the initializers
	if err := res.RunInit(m); err != nil {
		return nil, fmt.Errorf("clack: init: %w", err)
	}

	if faultEvery > 0 {
		victim := FirstInstanceOf(res, "Classifier")
		if victim == nil {
			return nil, fmt.Errorf("clack: no Classifier instance to inject faults into")
		}
		in := faultinject.Attach(m)
		defer in.Detach()
		in.TrapCallEvery(victim.ExportSyms["in"]["push"], faultEvery)
	}

	rep := &ServeReport{Stats: stats}
	// Each iteration consumes at least one packet or reports the traffic
	// dry, so this bound is never reached by a healthy or degraded
	// router; it catches a supervisor that stopped making progress.
	limit := 4*spec.Packets + 64
	for rep.Calls < limit {
		rep.Calls++
		got, err := sup.Call("main", "kmain", 1)
		if err != nil {
			rep.Faults++
			continue
		}
		if got == 0 {
			break
		}
	}
	if rep.Calls >= limit {
		return nil, fmt.Errorf("clack: supervised router made no progress after %d calls", limit)
	}

	rx := stats.Rx[0] + stats.Rx[1]
	if rx > 0 {
		rep.Goodput = float64(stats.Tx[0]+stats.Tx[1]+stats.Dropped) / float64(rx)
	}
	rep.Converged = sup.Healthy()
	rep.Statuses = sup.Report()
	rep.Recoveries = sup.Recoveries()
	rep.Events = sup.Events()
	rep.Metrics = col.Report()
	if err := m.CheckDynInvariants(); err != nil {
		return nil, fmt.Errorf("clack: dynamic invariants after serving: %w", err)
	}
	return rep, nil
}
