package main

import (
	"fmt"
	"runtime"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/machine"
)

// servePackets is the size of one serve operation's trace.
const servePackets = 4000

// The serve workload serves a seeded DefaultFlowTraffic trace through
// clack.ServeFleet on the compiled backend: base_ms with one shard,
// fast_ms with two. Each call is a closed loop: the single generator
// blocks when a shard queue is full.
var serveWorkload = workload{
	why: "sharded serving on the compiled backend, where fleet and supervise overhead is a visible share " +
		"of each packet's cost; one shard against two shows the scaling",
	parallelFast: true,
	setup:        setupServe,
	op:           serveOp,
}

type serveState struct {
	res  *build.Result
	spec clack.FlowSpec
}

func setupServe(r *runner) error {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		return err
	}
	res.Backend = machine.BackendCompiled
	spec := clack.DefaultFlowTraffic(servePackets)
	spec.Seed = r.seed
	st := &serveState{res: res, spec: spec}
	// Serve once so a broken fleet fails set-up, not every operation.
	if _, err := serveOnce(st, 2); err != nil {
		return err
	}
	r.state = st
	return nil
}

// serveOnce serves the trace on a fresh fleet and checks the report:
// every packet received, goodput 1, per-flow order kept, and every
// shard's supervisor converged.
func serveOnce(st *serveState, shards int) (*clack.FleetReport, error) {
	rep, err := clack.ServeFleet(freshResult(st.res), st.spec, shards, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	if rep.Rx != st.spec.Packets || rep.Goodput != 1.0 || rep.OrderViolations != 0 || !rep.Converged {
		return nil, fmt.Errorf("%d shards: rx %d of %d, goodput %.4f, %d order violations, converged=%v",
			shards, rep.Rx, st.spec.Packets, rep.Goodput, rep.OrderViolations, rep.Converged)
	}
	return rep, nil
}

// serveOp serves the trace with one shard and with two, alternating
// which goes first.
func serveOp(r *runner, i int) (one, two time.Duration, err error) {
	st := r.state.(*serveState)
	order := []int{1, 2}
	if i%2 != 0 {
		order = []int{2, 1}
	}
	var took [3]time.Duration
	var reps [3]*clack.FleetReport
	var mem0, mem1 runtime.MemStats
	if r.tr != nil {
		gen := r.tr.begin("clack.gen", -1)
		st.spec.Generate()
		r.tr.end(gen)
		r.sample("clack.gen_ms", "ms", ms(r.tr.dur(gen)))
		runtime.ReadMemStats(&mem0)
	}
	for _, shards := range order {
		id := r.tr.begin(fmt.Sprintf("clack.ServeFleet/%d", shards), -1)
		start := time.Now()
		reps[shards], err = serveOnce(st, shards)
		took[shards] = time.Since(start)
		r.tr.end(id)
		if err != nil {
			return 0, 0, err
		}
	}
	if r.tr != nil {
		runtime.ReadMemStats(&mem1)
		rep := reps[2]
		calls, maxRx := 0, 0
		for _, s := range rep.PerShard {
			calls += s.Calls
			maxRx = max(maxRx, s.Rx)
		}
		r.sample("fleet.serve_ms", "ms", ms(took[2]))
		r.sample("fleet.pps_1shard", "1/s", servePackets/took[1].Seconds())
		r.sample("fleet.scaling", "ratio", took[1].Seconds()/took[2].Seconds())
		r.sample("fleet.kmain_calls_per_packet", "count", float64(calls)/float64(rep.Rx))
		r.sample("fleet.shard_imbalance", "ratio", float64(maxRx)/(float64(rep.Rx)/float64(len(rep.PerShard))))
		r.sample("supervise.calls", "count", float64(rep.Metrics.TotalCalls()))
		r.sample("go.alloc_kb_per_packet", "KB", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/(2*servePackets))
		r.sample("go.heap_peak_mb", "MB", float64(heapHeld(&mem1))/(1<<20))
	}
	return took[1], took[2], nil
}
