package clack

import (
	"reflect"
	"testing"

	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

func fakeClocks(int) supervise.Clock { return supervise.NewFakeClock() }

// TestServeFleetForwardsAndPreservesOrder is the clean-path fleet run:
// every ingested packet is accounted for (transmitted or deliberately
// dropped — nothing lost), no shard needs its supervisor, and per-flow
// transmit order matches arrival order on every shard.
func TestServeFleetForwardsAndPreservesOrder(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	rep, err := ServeFleet(res, DefaultFlowTraffic(2000), 4, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if rep.Rx != 2000 {
		t.Errorf("fleet ingested %d packets, want 2000", rep.Rx)
	}
	if rep.Tx+rep.Dropped != rep.Rx {
		t.Errorf("accounting: tx %d + dropped %d != rx %d", rep.Tx, rep.Dropped, rep.Rx)
	}
	if rep.Goodput != 1.0 {
		t.Errorf("goodput = %.4f, want 1.0 on a fault-free run", rep.Goodput)
	}
	if rep.OrderViolations != 0 {
		t.Errorf("%d per-flow order violations, want 0", rep.OrderViolations)
	}
	if !rep.Converged {
		t.Error("fleet did not converge on a fault-free run")
	}
	for id, st := range rep.PerShard {
		if st.Restarts != 0 || st.Swaps != 0 || st.Respawns != 0 {
			t.Errorf("shard %d: restarts=%d swaps=%d respawns=%d on a fault-free run",
				id, st.Restarts, st.Swaps, st.Respawns)
		}
		if st.Rx == 0 {
			t.Errorf("shard %d ingested nothing; balancer starved it", id)
		}
	}
	// Every shard attributed work; the roll-up must show the classifier
	// serving on all of them (calls across shards merge by path).
	var clsCalls uint64
	for i := range rep.Metrics.Instances {
		if rep.Metrics.Instances[i].Path != "" {
			clsCalls += rep.Metrics.Instances[i].Calls
		}
	}
	if clsCalls == 0 {
		t.Error("merged metrics attribute no calls")
	}
}

// TestServeFleetSoakFaultIsolation is the satellite's soak scenario:
// shard 0's classifier is killed every 50 packets under a 4-shard load.
// The fleet must hold >= 99% goodput, keep per-flow order, and the
// blast radius must be exactly shard 0 — its supervisor restarts then
// swaps in ClassifierSafe while every sibling's counters stay zero.
func TestServeFleetSoakFaultIsolation(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	rep, err := ServeFleet(res, DefaultFlowTraffic(4000), 4, supervise.Default(), fakeClocks, 50)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if rep.Goodput < 0.99 {
		t.Errorf("goodput = %.4f, want >= 0.99", rep.Goodput)
	}
	if rep.OrderViolations != 0 {
		t.Errorf("%d per-flow order violations under faults, want 0", rep.OrderViolations)
	}
	if !rep.Converged {
		t.Error("fleet did not converge (a shard ended dead or backing off)")
	}
	for id, st := range rep.PerShard {
		if id == 0 {
			if st.Restarts == 0 {
				t.Error("shard 0 saw no restarts; the injector never fired")
			}
			if st.Swaps == 0 {
				t.Error("shard 0 never swapped to ClassifierSafe")
			}
			if st.Faults == 0 {
				t.Error("shard 0 recorded no faulted kmain calls")
			}
			continue
		}
		if st.Restarts != 0 || st.Swaps != 0 || st.Faults != 0 || st.Respawns != 0 {
			t.Errorf("shard %d: restarts=%d swaps=%d faults=%d respawns=%d; fault bled outside shard 0",
				id, st.Restarts, st.Swaps, st.Faults, st.Respawns)
		}
	}
	// The roll-up must carry shard 0's recovery history: restart and
	// swap lifecycle events attributed to the Classifier instance.
	var restarts, swaps uint64
	for i := range rep.Metrics.Instances {
		restarts += rep.Metrics.Instances[i].Restarts
		swaps += rep.Metrics.Instances[i].Swaps
	}
	if restarts == 0 || swaps == 0 {
		t.Errorf("merged metrics: restarts=%d swaps=%d, want both > 0", restarts, swaps)
	}
}

// TestServeFleetDeterministic pins reproducibility: the same spec over
// the same shard count produces identical per-shard serving stats —
// flow placement, packet mix, and fault-free execution are all
// deterministic, so a fleet run is replayable.
func TestServeFleetDeterministic(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	a, err := ServeFleet(res, DefaultFlowTraffic(600), 2, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	b, err := ServeFleet(res, DefaultFlowTraffic(600), 2, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if !reflect.DeepEqual(a.PerShard, b.PerShard) {
		t.Errorf("two identical fleet runs diverged:\n%+v\n%+v", a.PerShard, b.PerShard)
	}
}

// TestFlowTrafficGeneratorInvariants pins the generator properties the
// order check relies on: per-flow sequences are dense from 1, the flow
// tag survives in the payload, and a flow's (src, dst) — hence its
// route — never varies.
func TestFlowTrafficGeneratorInvariants(t *testing.T) {
	spec := DefaultFlowTraffic(3000)
	pkts := spec.Generate()
	if len(pkts) != 3000 {
		t.Fatalf("generated %d packets, want 3000", len(pkts))
	}
	nextSeq := map[uint64]int64{}
	dstOf := map[uint64]int64{}
	for i, fp := range pkts {
		if got := uint64(fp.Pkt.Payload[payloadFlowWord]); got != fp.Flow {
			t.Fatalf("packet %d: payload flow tag %d != flow %d", i, got, fp.Flow)
		}
		nextSeq[fp.Flow]++
		if fp.Pkt.Payload[payloadSeqWord] != nextSeq[fp.Flow] {
			t.Fatalf("packet %d: flow %d seq %d, want %d", i, fp.Flow,
				fp.Pkt.Payload[payloadSeqWord], nextSeq[fp.Flow])
		}
		if prev, ok := dstOf[fp.Flow]; ok && prev != fp.Pkt.Dst {
			t.Fatalf("flow %d changed dst %d -> %d; routes must be stable per flow",
				fp.Flow, prev, fp.Pkt.Dst)
		}
		dstOf[fp.Flow] = fp.Pkt.Dst
		if fp.Pkt.Src != 1+int64(fp.Flow) {
			t.Fatalf("flow %d has src %d, want %d", fp.Flow, fp.Pkt.Src, 1+int64(fp.Flow))
		}
	}
	// Determinism: a second generation is byte-identical.
	if !reflect.DeepEqual(pkts, spec.Generate()) {
		t.Error("generator is not deterministic for a fixed spec")
	}
}

// TestOrderOracleCountsInversionsAcrossShards shows the fleet-global
// order oracle firing: two shards' __tx builtins share one oracle, and a
// flow whose sequence goes backwards is a violation on the shard that
// transmits it — including when the earlier, higher sequence left
// through the other shard, as it does after a re-steer. A per-shard
// ledger would miss those.
func TestOrderOracleCountsInversionsAcrossShards(t *testing.T) {
	oracle := newOrderOracle()
	ios := [2]*shardIO{newShardIO(oracle), newShardIO(oracle)}
	var ms [2]*machine.M
	for i := range ms {
		ms[i] = &machine.M{Builtins: map[string]machine.Builtin{}, Mem: make([]int64, PktWords)}
		ios[i].install(ms[i])
	}
	tx := func(shard int, flow, seq int64) {
		t.Helper()
		m := ms[shard]
		p := Packet{Kind: KindIP, TTL: 9}
		p.Payload[payloadFlowWord], p.Payload[payloadSeqWord] = flow, seq
		copy(m.Mem, p.words())
		if _, err := m.Builtins["__tx"](m, []int64{0, 0}); err != nil {
			t.Fatalf("__tx: %v", err)
		}
	}
	tx(0, 7, 1)
	tx(0, 7, 2)
	tx(0, 7, 2) // repeated on its own shard
	tx(1, 7, 3) // re-steered to shard 1, still ascending
	tx(0, 7, 3) // back on shard 0 at a sequence shard 1 already sent
	tx(1, 8, 5)
	tx(0, 8, 4) // shard 0 never saw flow 8; shard 1 sent 5 first
	tx(0, 9, 1) // an unrelated flow is unaffected
	if ios[0].orderViolations != 3 || ios[1].orderViolations != 0 {
		t.Fatalf("violations: shard 0 = %d, shard 1 = %d; want 3 and 0",
			ios[0].orderViolations, ios[1].orderViolations)
	}
}
