package clack

import (
	"testing"

	"knit/internal/machine"
)

// TestServeOverloadSoak is the issue's acceptance scenario: open-loop
// traffic at 3x measured capacity, a shard killed every 50 processed
// packets, on both backends. Accepted goodput must stay >= 0.99, the
// fleet-global order oracle must see zero per-flow inversions
// (including across re-steers), conservation must balance exactly, and
// redelivery must recover every killed batch (0 drops).
func TestServeOverloadSoak(t *testing.T) {
	backends := []struct {
		name string
		b    machine.Backend
	}{
		{"interp", machine.BackendInterp},
		{"compiled", machine.BackendCompiled},
	}
	for _, bk := range backends {
		bk := bk
		t.Run(bk.name, func(t *testing.T) {
			res, err := BuildRouter(Variant{})
			if err != nil {
				t.Fatalf("BuildRouter: %v", err)
			}
			res.Backend = bk.b
			rep, err := ServeOverload(res, OverloadSpec{
				Packets:   1200,
				Shards:    3,
				Multiple:  3,
				KillEvery: 50,
			})
			if err != nil {
				t.Fatalf("ServeOverload: %v", err)
			}
			t.Logf("%s: capacity=%.0fpps offered=%.0fpps submitted=%d admitted=%d served=%d shed=%v goodput=%.4f respawns=%d redelivered=%d trips=%d resteers=%d p99=%d cycles",
				bk.name, rep.CapacityPPS, rep.OfferedPPS, rep.Submitted, rep.Admitted,
				rep.Served, rep.Shed, rep.AcceptedGoodput, rep.Respawns, rep.Redelivered,
				rep.Stats.Trips, rep.Stats.Resteers, rep.P99Cycles)
			if rep.Submitted != 1200 {
				t.Fatalf("submitted = %d, want 1200", rep.Submitted)
			}
			if !rep.ConservationOK {
				t.Fatalf("conservation broken: submitted=%d admitted=%d served=%d dropped=%d shed=%d",
					rep.Submitted, rep.Admitted, rep.Served, rep.Dropped, rep.ShedTotal)
			}
			if rep.AcceptedGoodput < 0.99 {
				t.Fatalf("accepted goodput = %.4f, want >= 0.99", rep.AcceptedGoodput)
			}
			if rep.OrderViolations != 0 {
				t.Fatalf("order violations = %d, want 0", rep.OrderViolations)
			}
			if rep.Dropped != 0 {
				t.Fatalf("dropped = %d, want 0 (kills are transient; redelivery must recover)", rep.Dropped)
			}
			if rep.Respawns == 0 || rep.Redelivered == 0 {
				t.Fatalf("soak too tame: respawns=%d redelivered=%d, want > 0", rep.Respawns, rep.Redelivered)
			}
		})
	}
}
