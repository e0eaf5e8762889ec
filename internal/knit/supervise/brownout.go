package supervise

import (
	"errors"
	"fmt"
	"sort"
)

// Brownout: proactively degrading a healthy system to its declared
// fallback wirings to shed work before overload forces shedding of
// traffic. Where HandleFault swaps a unit because it failed, DegradeAll
// swaps every unit that *can* degrade because the fleet is drowning —
// the same interposition mechanism (§2.3), entered deliberately and, in
// contrast to fault-driven degradation, deliberately reversible:
// RestoreAll re-points the exports back at the original instances and
// unloads the fallbacks.

// DegradeAll swaps every healthy instance that declares a fallback unit
// to that fallback, marking each swap brownout-initiated so RestoreAll
// knows it may undo it. Instances already degraded, backing off, or
// dead are left alone. Returns how many instances were swapped; a swap
// failure stops nothing — the joined errors report what did not switch.
func (s *Supervisor) DegradeAll() (int, error) {
	var errs []error
	n := 0
	for _, inst := range s.res.Program.Instances {
		if inst.Unit.Fallback == "" {
			continue
		}
		st := s.stateFor(inst.Path)
		if st.state != Healthy || st.inst == nil {
			continue
		}
		if !s.swap(st) {
			errs = append(errs, fmt.Errorf("brownout %s: %w", inst.Path, st.lastErr))
			continue
		}
		st.brownout = true
		s.event(st, "brownout", "degraded for load")
		n++
	}
	return n, errors.Join(errs...)
}

// RestoreAll undoes brownout-initiated degradations: the fallback
// module is released (LoadedUnit.Release), which un-interposes the
// original instance's export symbols — callers route to the primary
// again — and unloads the fallback, finalizers and all. Degradations
// the fault handler performed — including brownout swaps that faulted
// while browned out — are NOT restored: a unit that earned its
// fallback keeps it. Returns how many instances came back.
func (s *Supervisor) RestoreAll() (int, error) {
	var errs []error
	n := 0
	// Map iteration order is random; sort for a deterministic event log.
	paths := make([]string, 0, len(s.states))
	for p := range s.states {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		st := s.states[p]
		if !st.brownout || st.state != Degraded || st.lu == nil || st.inst == nil {
			continue
		}
		// The brownout swap started from Healthy, so the fallback's
		// anchors are the original instance's export globals.
		if err := st.lu.Release(s.m); err != nil {
			// Finalizer failure: the fallback stays loaded but bypassed —
			// the primary is serving again. Report it, keep going.
			errs = append(errs, fmt.Errorf("restore %s: %w", st.path, err))
		}
		delete(s.alias, st.lu.Name())
		st.lu = nil
		st.active = st.inst
		st.state = Healthy
		st.brownout = false
		st.failures = st.failures[:0]
		s.event(st, "restore", "brownout lifted")
		n++
	}
	return n, errors.Join(errs...)
}

// BrownedOut reports whether any instance is currently serving through
// a brownout-initiated fallback.
func (s *Supervisor) BrownedOut() bool {
	for _, st := range s.states {
		if st.brownout && st.state == Degraded {
			return true
		}
	}
	return false
}
