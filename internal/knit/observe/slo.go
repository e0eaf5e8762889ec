package observe

// Windowed SLO evaluation, shared by the reconfiguration layer's canary
// controller and the overload layer's per-shard circuit breakers:
// cumulative collector counters are turned into sliding deltas, so a
// shard's trap rate and cycle tail are judged on what happened
// *recently* (for a canary: since the upgrade), not diluted by its
// healthy history. The SLO judge and the Probation below are the one
// implementation both consumers use — a candidate window is compared
// against a baseline window, so "healthy" is always relative to what
// the rest of the system is experiencing under the same traffic.

// Sample is an aggregate activity snapshot: calls, traps, and the
// per-call cycle histogram summed across instances. Samples subtract
// (Window.Advance) and add (Add), which is what makes sliding windows
// and fleet-side merging cheap.
type Sample struct {
	Calls uint64
	Traps uint64
	Hist  [HistBuckets]uint64
}

// Add accumulates s2 into s.
func (s *Sample) Add(s2 Sample) {
	s.Calls += s2.Calls
	s.Traps += s2.Traps
	for i := range s.Hist {
		s.Hist[i] += s2.Hist[i]
	}
}

// TrapRate is traps per call (0 when idle).
func (s *Sample) TrapRate() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Traps) / float64(s.Calls)
}

// P99 estimates the 99th percentile of the per-call cycle distribution
// (upper bucket bound; 0 when idle).
func (s *Sample) P99() int64 {
	return histPercentile(&s.Hist, s.Calls, 99)
}

// Totals sums the collector's ledgers into one cumulative Sample —
// everything the machine did since the collector attached.
func (c *Collector) Totals() Sample {
	var s Sample
	for _, im := range c.inst {
		s.Calls += im.Calls
		s.Traps += im.TrapTotal()
		for i := range im.Hist {
			s.Hist[i] += im.Hist[i]
		}
	}
	return s
}

// Totals sums a detached report into one cumulative Sample, so merged
// fleet reports (retired generations included) feed the same SLO math
// live collectors do.
func (r *Report) Totals() Sample {
	var s Sample
	for i := range r.Instances {
		im := &r.Instances[i]
		s.Calls += im.Calls
		s.Traps += im.TrapTotal()
		for j := range im.Hist {
			s.Hist[j] += im.Hist[j]
		}
	}
	return s
}

// The SLO policy is fixed: one set of thresholds gates both the canary
// controller, which judges upgraded shards against stable ones, and the
// overload layer's circuit breakers, which judge each shard against the
// rest of the fleet. Only the traffic floor (Judge's minCalls) differs
// between them.
const (
	// TrapRateMargin is how far above the baseline's windowed trap rate
	// the candidate's may sit before the judgment is a breach.
	TrapRateMargin = 0.001
	// P99Factor bounds the candidate's windowed per-call cycle p99 at
	// this multiple of the baseline's (the p99 is a log2 bucket bound,
	// so the factor spans two buckets).
	P99Factor = 4
	// WindowTicks is the sliding window length in observation ticks.
	WindowTicks = 4
	// PromoteAfter is how many Meeting verdicts pass a Probation — a
	// canary promotes, a half-open breaker closes.
	PromoteAfter = 2
)

// Verdict is one window's SLO judgment.
type Verdict int

const (
	// Inconclusive: the candidate window holds less than minCalls of
	// traffic and no bound is breached — keep observing.
	Inconclusive Verdict = iota
	// Meeting: the candidate is within both bounds with enough traffic
	// to say so.
	Meeting
	// Breaching: the candidate exceeds the trap-rate margin or the p99
	// factor over the baseline.
	Breaching
)

func (v Verdict) String() string {
	switch v {
	case Meeting:
		return "meeting"
	case Breaching:
		return "breaching"
	default:
		return "inconclusive"
	}
}

// Judge compares one candidate window against one baseline window.
// Breaches are detected before the minCalls floor is applied: a
// candidate that is already trapping on thin traffic is breaching, not
// inconclusive — thin evidence of health is inconclusive, thin evidence
// of traps is not.
func Judge(candidate, baseline Sample, minCalls uint64) Verdict {
	if candidate.TrapRate() > baseline.TrapRate()+TrapRateMargin {
		return Breaching
	}
	if bp := baseline.P99(); bp > 0 && candidate.P99() > P99Factor*bp {
		return Breaching
	}
	if candidate.Calls < minCalls {
		return Inconclusive
	}
	return Meeting
}

// Probation is a candidate on trial: PromoteAfter Meeting verdicts pass
// it, and a breach or a death fails it at once. The canary controller
// tries an upgrade with one; a half-open breaker tries a shard with
// one. The zero value is a fresh trial.
type Probation struct{ meeting int }

// Step judges one tick's windows and folds the verdict into the trial.
// died reports that the candidate's machine died beyond its
// supervisor's recovery since the last step, which fails the trial
// whatever the windows say. Step returns Breaching once the trial has
// failed, Meeting once it has passed, and Inconclusive while it goes on.
func (p *Probation) Step(candidate, baseline Sample, minCalls uint64, died bool) Verdict {
	if died {
		return Breaching
	}
	switch Judge(candidate, baseline, minCalls) {
	case Breaching:
		return Breaching
	case Meeting:
		p.meeting++
		if p.meeting >= PromoteAfter {
			return Meeting
		}
	}
	return Inconclusive
}

// Window turns cumulative samples into a sliding window of recent
// deltas. Feed it the collector's Totals at a steady cadence; Current
// sums the most recent WindowTicks deltas. The zero value is an empty
// window anchored at zero. Not safe for concurrent use — drive it from
// whatever goroutine owns the collector's machine.
type Window struct {
	last  Sample
	ring  [WindowTicks]Sample
	next  int
	count int
}

// Advance records the delta between now and the previous cumulative
// sample and returns the updated window total. A machine that was
// restored or respawned can present counters smaller than the previous
// sample; the delta then falls back to the new cumulative value (the
// fresh collector started from zero).
func (w *Window) Advance(now Sample) Sample {
	d := delta(now, w.last)
	w.last = now
	w.ring[w.next] = d
	w.next = (w.next + 1) % WindowTicks
	if w.count < WindowTicks {
		w.count++
	}
	return w.Current()
}

// Current sums the deltas currently in the window.
func (w *Window) Current() Sample {
	var s Sample
	for i := 0; i < w.count; i++ {
		s.Add(w.ring[i])
	}
	return s
}

// Reset empties the window and re-bases the cumulative anchor at now,
// so the next Advance measures from this instant — the canary
// controller calls it at apply time to scope judgment to post-upgrade
// traffic.
func (w *Window) Reset(now Sample) { *w = Window{last: now} }

// delta computes now-prev counter-wise, clamping each counter to now
// when it went backwards (collector replaced under the window).
func delta(now, prev Sample) Sample {
	d := Sample{Calls: sub(now.Calls, prev.Calls), Traps: sub(now.Traps, prev.Traps)}
	for i := range d.Hist {
		d.Hist[i] = sub(now.Hist[i], prev.Hist[i])
	}
	return d
}

func sub(now, prev uint64) uint64 {
	if now < prev {
		return now
	}
	return now - prev
}

// histPercentile estimates the p-th percentile (0 < p <= 100) of a
// log2 cycle histogram holding calls entries, returning the upper bound
// of the bucket containing it (0 when no calls were seen).
func histPercentile(hist *[HistBuckets]uint64, calls uint64, p float64) int64 {
	if calls == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(calls))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range hist {
		seen += c
		if seen >= rank {
			return int64(1) << (i + 1)
		}
	}
	return int64(1) << HistBuckets
}
