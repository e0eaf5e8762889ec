package overload

import (
	"math/rand"
	"testing"
	"time"

	"knit/internal/knit/fleet"
	"knit/internal/machine"
)

// TestConservationUnderChaos is the accounting property test: across
// randomized traffic (mixed classes, many flows), randomized transient
// kills (respawns with redelivery), the breaker trips, re-steers,
// closes and return migrations they induce, and pressure-driven
// shedding, every submitted item is exactly one of served, dropped, or
// shed:
//
//	submitted == served + dropped + shed
//
// with redelivered items counted once (a replay changes no ledger until
// it lands as served or dropped). Runs on both execution backends.
func TestConservationUnderChaos(t *testing.T) {
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
			res := buildOverload(t, bk.b)
			// The breaker thresholds are the controller's fixed ones, so
			// the traffic is scaled to meet them: a half-open shard closes
			// only after its 4-tick window holds minCalls (16) calls on
			// two ticks running. Ticks are spaced by a burst of
			// itemsPerTick submissions and a pause that lets the shards
			// drain. Every shard homes well over maxRemaps (32) of the
			// flows, so the remap table fills and a half-open shard keeps
			// enough unremapped home flows to serve as probe traffic.
			const (
				shards       = 3
				items        = 1600
				flows        = 256
				itemsPerTick = 32
				// tailTicks bounds the kill-free settling phase after the
				// chaos: light deadline-backed traffic on every flow until
				// each breaker has closed and each flow is home again.
				tailTicks = 200
			)
			// A "kill item" fails its batch once per batch incarnation:
			// seen tracks which kill keys this shard generation already
			// faulted on, so the redelivered remainder succeeds — the
			// recoverable path. Each map is touched only by its own
			// shard's goroutine.
			seen := make([]map[int64]bool, shards)
			for i := range seen {
				seen[i] = map[int64]bool{}
			}
			handler := func(sh *fleet.Shard[int64], batch []int64) error {
				for i, x := range batch {
					if x < 0 && !seen[sh.ID][x] {
						seen[sh.ID][x] = true
						return errPoisoned
					}
					v := x
					if v < 0 {
						v = -v
					}
					if _, err := sh.Sup.Call("main", "work", v); err != nil {
						return err
					}
					sh.Ack(i + 1)
				}
				return nil
			}
			fl, err := fleet.New[int64](res, fleet.Config{
				Shards:            shards,
				Batch:             2,
				Queue:             2,
				RedeliverAttempts: 2,
			}, handler)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c := NewController(fl)

			rng := rand.New(rand.NewSource(0x5eed))
			kills := int64(0)
			submitted := uint64(0)
			for i := 0; i < items; i++ {
				flow := uint64(rng.Intn(flows))
				class := Class(rng.Intn(int(NumClasses)))
				var item int64
				if rng.Intn(40) == 0 {
					kills--
					item = kills // unique negative key: one transient kill
				} else {
					item = int64(rng.Intn(100) + 1)
				}
				var deadline time.Time
				if rng.Intn(4) == 0 && class == High {
					deadline = time.Now().Add(2 * time.Millisecond)
				}
				c.Submit(flow, class, item, deadline)
				submitted++
				if i%itemsPerTick == itemsPerTick-1 {
					c.Tick()
					time.Sleep(200 * time.Microsecond)
				}
			}
			chaos := c.Stats()
			settled := func() bool {
				for id := 0; id < shards; id++ {
					if c.BreakerState(id) != Closed {
						return false
					}
				}
				return c.Remapped() == 0
			}
			for i := 0; i < tailTicks && !settled(); i++ {
				for flow := uint64(0); flow < flows; flow++ {
					c.Submit(flow, High, int64(rng.Intn(100)+1), time.Now().Add(2*time.Millisecond))
					submitted++
				}
				c.Tick()
				time.Sleep(200 * time.Microsecond)
			}
			c.Drain(time.Now().Add(5 * time.Second))
			if got := c.Parked(); got != 0 {
				t.Fatalf("parked after Drain = %d, want 0", got)
			}
			fl.Close() // poisoned batches make the error non-nil; ledgers are what matter

			st := c.Stats()
			var served, dropped, redelivered uint64
			var respawns int
			for _, sh := range fl.Shards() {
				served += sh.Served()
				dropped += sh.Dropped()
				redelivered += sh.Redelivered()
				respawns += sh.Respawns()
			}
			if st.Submitted != submitted {
				t.Fatalf("submitted = %d, want %d", st.Submitted, submitted)
			}
			if st.Submitted != st.Admitted+st.ShedTotal {
				t.Fatalf("conservation (controller): submitted %d != admitted %d + shed %d",
					st.Submitted, st.Admitted, st.ShedTotal)
			}
			if served+dropped != st.Admitted {
				t.Fatalf("conservation (fleet): served %d + dropped %d != admitted %d",
					served, dropped, st.Admitted)
			}
			if served+dropped+st.ShedTotal != st.Submitted {
				t.Fatalf("conservation (end to end): served %d + dropped %d + shed %d != submitted %d",
					served, dropped, st.ShedTotal, st.Submitted)
			}
			// The chaos must actually have happened for the property to
			// mean anything: kills recovered by redelivery, and breakers
			// that tripped, closed again and brought their flows home.
			if respawns == 0 || redelivered == 0 {
				t.Fatalf("chaos too tame: respawns=%d redelivered=%d, want > 0", respawns, redelivered)
			}
			if chaos.Trips == 0 || chaos.Resteers == 0 || chaos.Closes == 0 || chaos.Returns == 0 {
				t.Fatalf("chaos too tame: trips=%d resteers=%d closes=%d returns=%d during the load, want > 0",
					chaos.Trips, chaos.Resteers, chaos.Closes, chaos.Returns)
			}
			// Once the kills stop, probe traffic closes every breaker and
			// every re-steered flow migrates home.
			if !settled() {
				t.Fatalf("not settled after %d quiet ticks: breakers %v %v %v, remapped=%d",
					tailTicks, c.BreakerState(0), c.BreakerState(1), c.BreakerState(2), c.Remapped())
			}
			if dropped != 0 {
				t.Fatalf("dropped = %d, want 0 (transient kills with redelivery are the recoverable path)", dropped)
			}
			t.Logf("%s: served=%d shed=%v redelivered=%d respawns=%d trips=%d reopens=%d resteers=%d; "+
				"during load closes=%d returns=%d; after settling closes=%d returns=%d remapped=%d",
				bk.name, served, st.Shed, redelivered, respawns, st.Trips, st.Reopens, st.Resteers,
				chaos.Closes, chaos.Returns, st.Closes, st.Returns, c.Remapped())
		})
	}
}
