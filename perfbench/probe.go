package main

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The probe is a fixed piece of work that belongs to the benchmark, not
// to the program under test. The run measures it next to every
// operation and set-up round, and reports each timing scaled by
// probeRef ÷ the probe's median: the time the operation would take on a
// host where the probe takes probeRef. On a shared host the raw wall
// times of one configuration drift by 20% or more within minutes, with
// the load the neighbours put on the machine; the probe drifts with
// them, so the scaled timings stay put while a change to the program
// still moves them.
//
// The probe runs on procs goroutines at once, one per P the timed path
// keeps busy: a host that lends the run one CPU instead of two slows a
// single-threaded path less than a parallel one.
// Its work mixes what the measured layers do: a switch-dispatched
// bytecode loop (the interpreter), string hashing and map lookups (the
// elaborator and linker), a dependent walk through a large table (cache
// misses) and a string sort. It allocates nothing, so the program's
// heap cannot make the probe trigger a collection.
func probe(procs int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, ps := range probeStates[:procs] {
		wg.Add(1)
		go func(ps *probeState) {
			defer wg.Done()
			ps.sink += ps.interp() + ps.lookups() + ps.walk() + ps.sort()
		}(ps)
	}
	wg.Wait()
	return time.Since(start)
}

// probeRef is the probe time the scaled timings are expressed against:
// about what the probe takes on a 2-vCPU x86-64 host.
const probeRef = 7 * time.Millisecond

// Probe sizes: together about 7 ms per P on a 2-vCPU x86-64 host.
const (
	probeSteps = 450_000
	probeKeys  = 8_000
	probeTable = 1 << 18 // 2 MiB of int64: larger than a core's L2
	probeHops  = 10_000
)

// probeState is one goroutine's share of the probe: its inputs, built once, and
// working space, so the probe itself never allocates.
type probeState struct {
	keys  []string
	index map[string]int
	table []int64
	buf   []string
	stack []int64
	sink  int64
}

var probeStates = newProbeStates(runtime.GOMAXPROCS(0))

func newProbeStates(n int) []*probeState {
	out := make([]*probeState, n)
	for p := range out {
		ps := &probeState{
			keys:  make([]string, probeKeys),
			index: make(map[string]int, probeKeys),
			table: make([]int64, probeTable),
			buf:   make([]string, probeKeys),
			stack: make([]int64, 0, 16),
		}
		for i := range ps.keys {
			k := "Unit" + strconv.Itoa((i*7919)%probeKeys) + "/Inst#" + strconv.Itoa(i%97)
			ps.keys[i] = k
			ps.index[k] = i
		}
		// A single cycle through the table with a large odd stride.
		for i := range ps.table {
			ps.table[i] = int64((i + 40503) % probeTable)
		}
		out[p] = ps
	}
	return out
}

// interp runs a small stack machine whose loop body has a
// data-dependent branch.
func (ps *probeState) interp() int64 {
	const (
		opPush = iota
		opMul
		opMod
		opDup
		opSwap
		opDec
		opJnz
	)
	prog := [...]int{opPush, 7, opDup, opPush, 31, opMul, opPush, 1021, opMod, opSwap, opDec, opDup, opJnz, 2}
	stack := append(ps.stack[:0], probeSteps)
	var acc int64
	for pc, n := 0, 0; n < probeSteps; n++ {
		switch prog[pc] {
		case opPush:
			stack = append(stack, int64(prog[pc+1]))
			pc += 2
			continue
		case opMul:
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], a*b)
		case opMod:
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], a%b)
		case opDup:
			stack = append(stack, stack[len(stack)-1])
		case opSwap:
			i := len(stack) - 1
			stack[i], stack[i-1] = stack[i-1], stack[i]
			acc += stack[i]
		case opDec:
			stack[len(stack)-1]--
		case opJnz:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) > 8 || v == 0 {
				stack = append(stack[:0], acc|1)
			}
			pc = prog[pc+1]
			continue
		}
		pc++
	}
	return acc
}

// lookups hashes every key into the index.
func (ps *probeState) lookups() int64 {
	var sum int64
	for _, k := range ps.keys {
		sum += int64(ps.index[k])
	}
	return sum
}

// walk follows the table's cycle: one dependent load per hop.
func (ps *probeState) walk() int64 {
	i := int64(0)
	for h := 0; h < probeHops; h++ {
		i = ps.table[i]
	}
	return i
}

// sort sorts a copy of the keys.
func (ps *probeState) sort() int64 {
	copy(ps.buf, ps.keys)
	slices.Sort(ps.buf)
	return int64(len(ps.buf[0]))
}
