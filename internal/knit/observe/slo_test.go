package observe

import "testing"

func sampleAt(calls, traps uint64, bucket int, n uint64) Sample {
	s := Sample{Calls: calls, Traps: traps}
	if bucket >= 0 {
		s.Hist[bucket] = n
	}
	return s
}

func TestWindowSlides(t *testing.T) {
	var w Window
	w.Reset(Sample{Calls: 100, Traps: 10})

	cur := w.Advance(Sample{Calls: 150, Traps: 12})
	if cur.Calls != 50 || cur.Traps != 2 {
		t.Fatalf("first delta = %d calls / %d traps, want 50/2", cur.Calls, cur.Traps)
	}
	cur = w.Advance(Sample{Calls: 200, Traps: 12})
	if cur.Calls != 100 || cur.Traps != 2 {
		t.Fatalf("two deltas = %d calls / %d traps, want 100/2", cur.Calls, cur.Traps)
	}
	w.Advance(Sample{Calls: 210, Traps: 12})
	cur = w.Advance(Sample{Calls: 230, Traps: 12})
	if cur.Calls != 130 || cur.Traps != 2 {
		t.Fatalf("full window = %d calls / %d traps, want 130/2", cur.Calls, cur.Traps)
	}
	// The fifth advance evicts the first delta: the window holds the
	// last WindowTicks.
	cur = w.Advance(Sample{Calls: 260, Traps: 12})
	if cur.Calls != 110 || cur.Traps != 0 {
		t.Fatalf("slid window = %d calls / %d traps, want 110/0", cur.Calls, cur.Traps)
	}
}

func TestWindowClampsBackwardsCounters(t *testing.T) {
	// A respawn replaces the collector, so cumulative counters restart
	// from zero; the delta must clamp to the new value, not wrap.
	var w Window
	w.Reset(Sample{Calls: 1000, Traps: 5})
	cur := w.Advance(Sample{Calls: 30, Traps: 1})
	if cur.Calls != 30 || cur.Traps != 1 {
		t.Fatalf("clamped delta = %d calls / %d traps, want 30/1", cur.Calls, cur.Traps)
	}
}

func TestWindowReset(t *testing.T) {
	var w Window
	w.Reset(Sample{})
	w.Advance(Sample{Calls: 100})
	w.Reset(Sample{Calls: 100})
	if cur := w.Current(); cur.Calls != 0 {
		t.Fatalf("current after reset = %d calls, want 0", cur.Calls)
	}
	if cur := w.Advance(Sample{Calls: 120}); cur.Calls != 20 {
		t.Fatalf("delta after reset = %d calls, want 20", cur.Calls)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	const minCalls = 100
	base := sampleAt(1000, 0, 4, 1000) // trap rate 0, p99 bucket 4

	cases := []struct {
		name      string
		candidate Sample
		want      Verdict
	}{
		{"healthy", sampleAt(1000, 0, 4, 1000), Meeting},
		{"thin traffic", sampleAt(10, 0, 4, 10), Inconclusive},
		{"trap breach", sampleAt(1000, 100, 4, 1000), Breaching},
		// Breaches outrank the MinCalls floor: thin but trapping.
		{"thin trap breach", sampleAt(10, 5, 4, 10), Breaching},
		// p99 one bucket up is within P99Factor=4 (log2 buckets)...
		{"p99 within factor", sampleAt(1000, 0, 5, 1000), Meeting},
		// ...three buckets up (8x) is a breach.
		{"p99 breach", sampleAt(1000, 0, 7, 1000), Breaching},
	}
	for _, tc := range cases {
		if got := Judge(tc.candidate, base, minCalls); got != tc.want {
			t.Errorf("%s: verdict = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestJudgeIdleBaseline(t *testing.T) {
	// An idle baseline (no calls, p99 = 0) must not turn every busy
	// candidate into a p99 breach.
	cand := sampleAt(1000, 0, 8, 1000)
	if got := Judge(cand, Sample{}, 256); got != Meeting {
		t.Fatalf("verdict against idle baseline = %v, want %v", got, Meeting)
	}
}

func TestProbation(t *testing.T) {
	base := sampleAt(1000, 0, 4, 1000)
	healthy := sampleAt(100, 0, 4, 100)
	thin := sampleAt(1, 0, 4, 1)
	trapping := sampleAt(100, 50, 4, 100)

	// Inconclusive ticks neither pass nor reset the trial.
	var p Probation
	for i, cand := range []Sample{healthy, thin} {
		if got := p.Step(cand, base, 16, false); got != Inconclusive {
			t.Fatalf("step %d: %v, want inconclusive", i, got)
		}
	}
	if got := p.Step(healthy, base, 16, false); got != Meeting {
		t.Fatalf("after %d meeting verdicts: %v, want meeting (passed)", PromoteAfter, got)
	}

	var q Probation
	q.Step(healthy, base, 16, false)
	if got := q.Step(trapping, base, 16, false); got != Breaching {
		t.Fatalf("breach mid-trial: %v, want breaching (failed)", got)
	}
	var r Probation
	if got := r.Step(healthy, base, 16, true); got != Breaching {
		t.Fatalf("death with healthy windows: %v, want breaching (failed)", got)
	}
}
