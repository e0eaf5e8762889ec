package clack

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

// This file is the sharded serving mode: one built router image, N
// machine+supervisor+collector shards behind the fleet's flow-hash
// balancer. Each shard owns a private pair of simulated NICs; a flow is
// pinned to one shard (fleet.FlowShard) and to one ingress device
// within it (fleet.FlowLane), so a flow's packets traverse exactly one
// machine in arrival order. The router graph is all-push — a packet
// runs to completion before the next is polled — which makes per-flow
// transmit order equal per-flow arrival order; the __tx builtin checks
// that invariant on every transmitted packet via per-flow sequence
// numbers the generator stamps into the payload (payload words ride
// through every element untouched).

// FlowSpec describes flow-structured traffic: spec.Flows distinct flow
// keys with Zipf(Skew) popularity, each flow owning a fixed
// (src, dst) pair — so its route is stable — and carrying per-flow
// sequence numbers. The slow-path mix mirrors TrafficSpec.
type FlowSpec struct {
	Packets     int
	Flows       int     // distinct flow keys (>= 1)
	Skew        float64 // Zipf s parameter (> 1); 0 means uniform flows
	ARPEvery    int     // every n-th packet is an ARP request (0 = none)
	OtherEvery  int     // every n-th packet is unclassifiable
	BadSumEvery int     // every n-th packet has a corrupt checksum
	LowTTLEvery int     // every n-th packet arrives with TTL 1
	Seed        int64
}

// DefaultFlowTraffic is DefaultTraffic's flow-structured sibling: the
// same slow-path mix over 256 flows with a mild Zipf skew.
func DefaultFlowTraffic(n int) FlowSpec {
	return FlowSpec{Packets: n, Flows: 256, Skew: 1.05, ARPEvery: 10,
		OtherEvery: 37, BadSumEvery: 41, LowTTLEvery: 43, Seed: 1}
}

// FlowPacket is one generated packet tagged with its flow key.
type FlowPacket struct {
	Flow uint64
	Pkt  Packet
}

// Payload word roles for flow traffic. The router never writes payload
// words, so both survive to the transmit ring on every path (the ARP
// responder swaps src/dst, which is why the flow identity rides in the
// payload instead).
const (
	payloadFlowWord = 6 // Payload[6]: flow key
	payloadSeqWord  = 7 // Payload[7]: per-flow sequence, from 1
)

// Generate builds the packet stream. Deterministic for a given spec:
// same flows, same sequence numbers, same mix.
func (spec FlowSpec) Generate() []FlowPacket {
	r := rand.New(rand.NewSource(spec.Seed))
	flows := spec.Flows
	if flows < 1 {
		flows = 1
	}
	var zipf *rand.Zipf
	if spec.Skew > 1 {
		zipf = rand.NewZipf(r, spec.Skew, 1, uint64(flows-1))
	}
	// Per-flow constants: src identifies the flow on the wire; dst picks
	// a stable route (networks 10/20/30/77 as in TrafficSpec.Generate).
	nets := []int64{10, 20, 30, 77}
	seq := make([]int64, flows)
	every := func(n, i int) bool { return n > 0 && i%n == n-1 }
	out := make([]FlowPacket, 0, spec.Packets)
	for i := 0; i < spec.Packets; i++ {
		var flow uint64
		if zipf != nil {
			flow = zipf.Uint64()
		} else {
			flow = uint64(r.Intn(flows))
		}
		seq[flow]++
		var p Packet
		p.TTL = int64(4 + r.Intn(60))
		p.Src = 1 + int64(flow)
		p.Dst = nets[flow%uint64(len(nets))]*256 + int64(flow%256)
		for j := range p.Payload {
			p.Payload[j] = int64(r.Intn(1 << 15))
		}
		p.Payload[payloadFlowWord] = int64(flow)
		p.Payload[payloadSeqWord] = seq[flow]
		p.Checksum = fold(p.TTL, p.Dst, p.Payload)
		switch {
		case every(spec.ARPEvery, i):
			p.Kind = KindARP
		case every(spec.OtherEvery, i):
			p.Kind = KindOther
		case every(spec.BadSumEvery, i):
			p.Kind = KindIP
			p.Checksum ^= 0x5a5a
		case every(spec.LowTTLEvery, i):
			p.Kind = KindIP
			p.TTL = 1
		default:
			p.Kind = KindIP
		}
		out = append(out, FlowPacket{Flow: flow, Pkt: p})
	}
	return out
}

// shardIO is one shard's host side: its NIC, whose transmit hook feeds
// the fleet-global order oracle, and its kmain counters. Setup rewinds
// the ingress queues at every machine boot — a dead machine's unpolled
// packets die with it — while the counters run across every generation
// the shard goes through.
type shardIO struct {
	nic
	orderViolations int
	faults          int
	calls           int
}

func newShardIO(oracle *orderOracle) *shardIO {
	io := &shardIO{}
	io.onTx = func(pkt []int64) {
		if !oracle.check(pkt[6+payloadFlowWord], pkt[6+payloadSeqWord]) {
			io.orderViolations++
		}
	}
	return io
}

// drain drives kmain one iteration at a time (a fault costs at most the
// packets in flight) until the ingress queues are dry, then rewinds
// them. The bound mirrors ServeSupervised: a healthy or degraded shard
// consumes at least one of the n queued packets per iteration; only a
// machine the supervisor has given up on (dead instance, every call
// failing) exhausts it, and that is exactly the respawn case.
func (io *shardIO) drain(sup *supervise.Supervisor, n int) error {
	limit := io.calls + 4*n + 64
	for io.remaining() > 0 {
		if io.calls >= limit {
			return fmt.Errorf("no progress after %d kmain calls (%d packets stuck)",
				limit, io.remaining())
		}
		io.calls++
		if _, err := sup.Call("main", "kmain", 1); err != nil {
			io.faults++
		}
	}
	io.rewind()
	return nil
}

// orderOracle is the fleet-global per-flow order check: one monotonic
// sequence ledger shared by every shard's __tx builtin, surviving
// respawns and following a flow across a re-steer. Mutexed — shard
// goroutines transmit concurrently.
type orderOracle struct {
	mu      sync.Mutex
	lastSeq map[int64]int64
}

func newOrderOracle() *orderOracle { return &orderOracle{lastSeq: map[int64]int64{}} }

// check records a transmit of flow's packet seq and reports whether it
// kept the flow's order (seq above everything transmitted before).
func (o *orderOracle) check(flow, seq int64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	ok := seq > o.lastSeq[flow]
	o.lastSeq[flow] = seq
	return ok
}

// ShardServeStats is one shard's cumulative serving record, summed over
// every machine generation the shard went through.
type ShardServeStats struct {
	Rx, Tx, Dropped int
	Faults          int // supervised kmain calls that ended in a handled fault
	Calls           int // supervised kmain calls driven
	OrderViolations int
	Restarts        int // supervisor restarts inside the shard
	Swaps           int // fallback swaps inside the shard
	Respawns        int // whole-machine respawns from the fleet snapshot
}

// FleetReport summarizes a sharded serving run.
type FleetReport struct {
	Shards   int
	Rx       int
	Tx       int
	Dropped  int
	Goodput  float64 // (Tx + Dropped) / Rx, fleet-wide
	PerShard []ShardServeStats
	// OrderViolations counts per-flow sequence inversions observed at
	// transmit, fleet-wide. The flow-hash design makes this 0.
	OrderViolations int
	// Converged reports every shard's supervisor ended with all
	// instances serving (healthy or degraded), and no shard died.
	Converged bool
	Statuses  [][]supervise.InstanceStatus
	// Metrics is the fleet-wide roll-up of every shard's collector,
	// retired generations included.
	Metrics *observe.Report
}

// rig is the host side of every serving mode — per-shard NIC state, the
// fleet-global order oracle, an optional fault schedule, the fleet's
// Setup and batch handler, and report assembly. ServeFleet,
// ServeFleetUpgrade and ServeOverload (capacity run included) all serve
// through it, so every mode exercises exactly the same machinery.
type rig struct {
	fl  *fleet.Fleet[FlowPacket]
	ios []*shardIO
	// trapEvery > 0 traps shard 0's Classifier (trapSym) on every
	// trapEvery-th call: ServeFleet's blast-radius scenario.
	trapEvery int
	trapSym   string
	// killEvery > 0 arms the overload soak's fleet-wide kill lever: the
	// shard that next serves a packet once processed crosses nextKill
	// dies.
	killEvery int64
	// perPacket drives and acks one packet at a time; set when the fleet
	// replays dead shards' batches (RedeliverAttempts > 0), the only
	// case where acks matter.
	perPacket bool
	processed atomic.Int64
	nextKill  atomic.Int64
}

var errShardKilled = errors.New("clack: overload soak killed this shard")

// newRig builds the fleet described by cfg (its Setup is the rig's)
// with the given fault schedule.
func newRig(res *build.Result, cfg fleet.Config, trapEvery, killEvery int) (*rig, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("clack: fleet needs at least 1 shard, got %d", cfg.Shards)
	}
	rg := &rig{
		ios:       make([]*shardIO, cfg.Shards),
		trapEvery: trapEvery,
		killEvery: int64(killEvery),
		perPacket: cfg.RedeliverAttempts > 0,
	}
	oracle := newOrderOracle()
	for id := range rg.ios {
		rg.ios[id] = newShardIO(oracle)
	}
	rg.nextKill.Store(rg.killEvery)
	if trapEvery > 0 {
		victim := FirstInstanceOf(res, "Classifier")
		if victim == nil {
			return nil, fmt.Errorf("clack: no Classifier instance to inject faults into")
		}
		rg.trapSym = victim.ExportSyms["in"]["push"]
	}
	cfg.Setup = rg.setup
	fl, err := fleet.New[FlowPacket](res, cfg, rg.handler)
	if err != nil {
		return nil, err
	}
	rg.fl = fl
	return rg, nil
}

func (rg *rig) setup(id int, m *machine.M) error {
	machine.InstallStopWatch(m)
	if id == fleet.Prototype {
		// The prototype only runs the init schedule; give it inert
		// devices in case an initializer touches them.
		newShardIO(newOrderOracle()).install(m)
		return nil
	}
	rg.ios[id].rewind()
	rg.ios[id].install(m)
	if rg.trapEvery > 0 && id == 0 {
		faultinject.Attach(m).TrapCallEvery(rg.trapSym, rg.trapEvery)
	}
	return nil
}

// killed pulls the kill lever: true for exactly one caller per
// killEvery processed packets, fleet-wide.
func (rg *rig) killed() bool {
	if rg.killEvery == 0 {
		return false
	}
	next := rg.nextKill.Load()
	return rg.processed.Load() >= next && rg.nextKill.CompareAndSwap(next, next+rg.killEvery)
}

// handler serves a batch. When the fleet does not replay, it queues the
// whole batch and drains it in one pass — per-packet driving costs
// measurably more, and acks would go unused. When it replays, it serves
// packet by packet, acking each and pulling the kill lever in between: a
// kill then takes the machine but not the unacked remainder, which the
// fleet replays onto the respawn without re-sending a transmitted
// packet, and the device queues are empty between packets, so the
// recoverable path drops nothing.
func (rg *rig) handler(sh *fleet.Shard[FlowPacket], batch []FlowPacket) error {
	io := rg.ios[sh.ID]
	step := len(batch)
	if rg.perPacket {
		step = 1
	}
	for i := 0; i < len(batch); i += step {
		if rg.killed() {
			return errShardKilled
		}
		for _, fp := range batch[i : i+step] {
			lane := fleet.FlowLane(fp.Flow, 2)
			io.rx[lane] = append(io.rx[lane], fp.Pkt)
		}
		if err := io.drain(sh.Sup, step); err != nil {
			return err
		}
		sh.Ack(i + step)
		rg.processed.Add(int64(step))
	}
	return nil
}

// report closes the fleet and assembles the serving report; the error is
// Close's (shard deaths), which the report also reflects as not
// Converged.
func (rg *rig) report() (*FleetReport, error) {
	closeErr := rg.fl.Close()
	rep := &FleetReport{
		Shards:    len(rg.ios),
		Converged: closeErr == nil,
		Statuses:  rg.fl.Statuses(),
		Metrics:   rg.fl.Report(),
	}
	for id, sh := range rg.fl.Shards() {
		io := rg.ios[id]
		st := ShardServeStats{
			Rx:              io.stats.Rx[0] + io.stats.Rx[1],
			Tx:              io.stats.Tx[0] + io.stats.Tx[1],
			Dropped:         io.stats.Dropped,
			Faults:          io.faults,
			Calls:           io.calls,
			OrderViolations: io.orderViolations,
			Respawns:        sh.Respawns(),
		}
		for _, is := range rep.Statuses[id] {
			st.Restarts += is.Restarts
			st.Swaps += is.Swaps
			if is.State != supervise.Healthy && is.State != supervise.Degraded {
				rep.Converged = false
			}
		}
		rep.PerShard = append(rep.PerShard, st)
		rep.Rx += st.Rx
		rep.Tx += st.Tx
		rep.Dropped += st.Dropped
		rep.OrderViolations += st.OrderViolations
	}
	if rep.Rx > 0 {
		rep.Goodput = float64(rep.Tx+rep.Dropped) / float64(rep.Rx)
	}
	return rep, closeErr
}

// ServeFleet serves flow-structured traffic over a sharded router
// fleet. Every shard runs the same built image; faultEvery > 0 arms a
// fault injector on shard 0's Classifier only — the blast-radius
// scenario: that shard's supervisor restarts and then swaps in
// ClassifierSafe while the siblings' counters stay untouched.
func ServeFleet(res *build.Result, spec FlowSpec, shards int, pol *supervise.Policy,
	clk func(int) supervise.Clock, faultEvery int) (*FleetReport, error) {

	rg, err := newRig(res, fleet.Config{Shards: shards, Policy: pol, Clock: clk}, faultEvery, 0)
	if err != nil {
		return nil, err
	}
	for _, fp := range spec.Generate() {
		rg.fl.Submit(fp.Flow, fp)
	}
	rep, _ := rg.report()
	return rep, nil
}
