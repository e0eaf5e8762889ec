package main

import (
	"fmt"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/machine"
)

// routePackets is the size of one route operation's trace.
const routePackets = 2000

// The route workload forwards a seeded DefaultTraffic trace through the
// modular router on a fresh machine: base_ms on the interpreter, fast_ms
// on the compiled backend. Compile happens in set-up, so only machine
// and the clack device builtins work during the timed operations.
var routeWorkload = workload{
	why: "router forwarding on both execution backends; all compile work is in set-up, " +
		"so only the machine and the clack device builtins are timed",
	setup: setupRoute,
	op:    routeOp,
}

type routeState struct {
	byBackend [2]*build.Result // modular router, interp and compiled
	streams   [2][]clack.Packet
	want      *forwarded // the interpreter's reference run
}

func setupRoute(r *runner) error {
	st := &routeState{}
	for i, b := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		res, err := clack.BuildRouter(clack.Variant{})
		if err != nil {
			return err
		}
		res.Backend = b
		st.byBackend[i] = res
	}
	flat, err := clack.BuildRouter(clack.Variant{Flattened: true})
	if err != nil {
		return err
	}
	spec := clack.DefaultTraffic(routePackets)
	spec.Seed = r.seed
	st.streams = spec.Generate()
	if st.want, err = forward(nil, st.byBackend[0], st.streams, routePackets); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	wantFlat, err := forward(nil, flat, st.streams, routePackets)
	if err != nil {
		return fmt.Errorf("flattened reference run: %w", err)
	}
	if wantFlat.stats.Tx != st.want.stats.Tx || wantFlat.stats.Dropped != st.want.stats.Dropped {
		return fmt.Errorf("flattened router forwards tx=%v dropped=%d, modular tx=%v dropped=%d",
			wantFlat.stats.Tx, wantFlat.stats.Dropped, st.want.stats.Tx, st.want.stats.Dropped)
	}
	if r.traceOn {
		r.sample("machine.cycles_per_packet", "count", st.want.watch.PerWindow())
		r.sample("machine.cycles_per_packet_flat", "count", wantFlat.watch.PerWindow())
	}
	if r.round == 0 {
		fmt.Printf("  cycles_per_packet %.1f, cycles_per_packet_flat %.1f (interpreter, deterministic)\n",
			st.want.watch.PerWindow(), wantFlat.watch.PerWindow())
	}
	r.state = st
	return nil
}

// routeOp forwards the trace once per backend, alternating which goes
// first, and checks both runs against the interpreter's reference.
func routeOp(r *runner, i int) (interp, compiled time.Duration, err error) {
	st := r.state.(*routeState)
	order := []int{0, 1}
	if i%2 != 0 {
		order = []int{1, 0}
	}
	var got [2]*forwarded
	for _, b := range order {
		if got[b], err = forward(r, st.byBackend[b], st.streams, routePackets); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", st.byBackend[b].Backend, err)
		}
	}
	w := st.want
	for b, f := range got {
		if f.stats.Tx != w.stats.Tx || f.stats.Dropped != w.stats.Dropped || f.stats.Rx != w.stats.Rx {
			return 0, 0, fmt.Errorf("%s forwarded rx=%v tx=%v dropped=%d, reference rx=%v tx=%v dropped=%d",
				st.byBackend[b].Backend, f.stats.Rx, f.stats.Tx, f.stats.Dropped, w.stats.Rx, w.stats.Tx, w.stats.Dropped)
		}
	}
	if c := got[0].m; c.Cycles != w.m.Cycles || c.Stalls != w.m.Stalls {
		return 0, 0, fmt.Errorf("interpreter cycles %d (stalls %d), reference %d (%d)", c.Cycles, c.Stalls, w.m.Cycles, w.m.Stalls)
	}
	if c := got[1].m; c.Cycles != w.m.Cycles-w.m.Stalls || c.Stalls != 0 {
		return 0, 0, fmt.Errorf("compiled cycles %d (stalls %d), want interpreter cycles minus stalls = %d",
			c.Cycles, c.Stalls, w.m.Cycles-w.m.Stalls)
	}
	return got[0].total, got[1].total, nil
}

// forwarded is one trace's outcome.
type forwarded struct {
	stats *clack.DeviceStats
	watch *machine.StopWatch
	m     *machine.M
	total time.Duration // wall time from machine creation to the finalizers
}

// forward runs kmain over streams on a fresh machine of res, as
// clack.RunRouter does, with spans around each machine step when r is
// tracing. It fails on malformed transmissions or when no packet
// crossed the router.
func forward(r *runner, res *build.Result, streams [2][]clack.Packet, packets int) (*forwarded, error) {
	var tr *tracer
	if r != nil {
		tr = r.tr
	}
	backend := res.Backend.String()
	res = freshResult(res)
	begin := time.Now()
	root := tr.begin("clack.route", -1)
	id := tr.begin("machine.new", root)
	m := res.NewMachine()
	tr.end(id)
	stats := clack.InstallDevices(m, streams)
	watch := machine.InstallStopWatch(m)
	var inBuiltins time.Duration
	if tr != nil {
		for name, fn := range m.Builtins {
			fn := fn
			m.RegisterBuiltin(name, func(mm *machine.M, args []int64) (int64, error) {
				start := time.Now()
				v, err := fn(mm, args)
				inBuiltins += time.Since(start)
				return v, err
			})
		}
	}
	kmain, err := res.Export("main", "kmain")
	if err != nil {
		return nil, err
	}
	init := tr.begin("machine.init", root)
	if err := res.RunInit(m); err != nil {
		return nil, err
	}
	tr.end(init)
	c0, e0, calls0, b0, refs0, miss0 := m.Cycles, m.Executed, m.Calls+m.IndCalls, m.BuiltinCnt, m.ICacheRefs, m.ICacheMiss
	run := tr.begin("machine.run", root)
	start := time.Now()
	_, err = m.Run(kmain, int64(packets+16))
	wall := time.Since(start)
	tr.end(run)
	if err != nil {
		return nil, err
	}
	tr.child("clack.builtins", run, 0, inBuiltins, true)
	fini := tr.begin("machine.fini", root)
	if err := res.RunFini(m); err != nil {
		return nil, err
	}
	tr.end(fini)
	tr.end(root)
	total := time.Since(begin)
	if watch.Windows == 0 {
		return nil, fmt.Errorf("no packets traversed the router")
	}
	if len(stats.TxBad) > 0 {
		return nil, fmt.Errorf("malformed transmissions: %v", stats.TxBad)
	}
	if tr != nil {
		pk := float64(packets)
		pre := "machine." + backend + "."
		r.sample(pre+"new_us", "us", float64(tr.dur(id))/1e3)
		r.sample(pre+"init_us", "us", float64(tr.dur(init))/1e3)
		r.sample(pre+"run_ms", "ms", ms(wall))
		r.sample(pre+"ns_per_cycle", "ns", float64(wall)/float64(m.Cycles-c0))
		r.sample("clack."+backend+".builtin_ns_per_packet", "ns", float64(inBuiltins)/pk)
		r.sample("machine.instrs_per_packet", "count", float64(m.Executed-e0)/pk)
		r.sample("machine.calls_per_packet", "count", float64(m.Calls+m.IndCalls-calls0)/pk)
		r.sample("machine.builtins_per_packet", "count", float64(m.BuiltinCnt-b0)/pk)
		if res.Backend == machine.BackendInterp {
			r.sample("machine.stalls_per_packet", "count", watch.StallsPerWindow())
			r.sample("machine.icache_miss_ratio", "ratio", float64(m.ICacheMiss-miss0)/float64(m.ICacheRefs-refs0))
		}
	}
	return &forwarded{stats: stats, watch: watch, m: m, total: total}, nil
}
