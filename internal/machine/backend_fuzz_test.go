package machine

import (
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// beOp decodes one fuzz byte for FuzzBackendEquivalence: an operation
// and a template argument. Unlike FuzzDynamicLifecycle this fuzzer
// needs no success model — the interpreter IS the model, and the
// compiled backend must match it step for step.
//
//	op 0,1: load template tpl
//	op 2,3: unload template tpl
//	op 4:   interpose fn_tpl -> fn_((tpl+1)%4)
//	op 5:   unpose fn_tpl
//	op 6:   snapshot
//	op 7:   restore
func beOp(b byte) (op int, tpl int) {
	return int(b & 7), int(b>>3) % 4
}

// FuzzBackendEquivalence drives the same random lifecycle sequence —
// dynamic loads and unloads, interpositions, snapshots and restores,
// with every entry point run after every step — against two machines in
// lockstep: one on the reference interpreter, one on the compiled
// closure backend. At every step both must produce identical values,
// identical error text, identical instruction counts, identical memory
// images, and clean dynamic-table invariants. This is the harness for
// the guarantee that the compiled backend's dispatch caches can never
// go stale: any sequence where a cached call target survives an
// interposition, unload, or restore shows up as a divergence here.
func FuzzBackendEquivalence(f *testing.F) {
	enc := func(op, tpl int) byte { return byte(op | tpl<<3) }
	// Seeds: ordered loads; interpose over loaded modules then unpose;
	// snapshot/restore straddling loads and interpositions; unload with
	// a redirect still installed; reload after restore.
	f.Add([]byte{enc(0, 0), enc(0, 1), enc(0, 2), enc(0, 3)})
	f.Add([]byte{enc(0, 0), enc(0, 3), enc(4, 0), enc(4, 3), enc(5, 0), enc(5, 3)})
	f.Add([]byte{enc(0, 0), enc(6, 0), enc(0, 1), enc(4, 1), enc(7, 0), enc(0, 1)})
	f.Add([]byte{enc(0, 0), enc(0, 1), enc(4, 0), enc(2, 1), enc(2, 0), enc(5, 0)})
	f.Add([]byte{enc(0, 2), enc(0, 0), enc(0, 1), enc(6, 0), enc(4, 2), enc(2, 2), enc(7, 0), enc(0, 2)})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		base := fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		mi := loadFile(t, base)
		mc := loadFile(t, base)
		mc.SetBackend(BackendCompiled)

		var snapI, snapC *Snapshot

		// step applies one operation to both machines and fails on any
		// observable divergence.
		step := func(i int, name string, op func(m *M) error) {
			t.Helper()
			ei := op(mi)
			ec := op(mc)
			if (ei == nil) != (ec == nil) || (ei != nil && ei.Error() != ec.Error()) {
				t.Fatalf("step %d %s: interp err=%v, compiled err=%v", i, name, ei, ec)
			}
			if err := mi.CheckDynInvariants(); err != nil {
				t.Fatalf("step %d %s: interp invariants: %v", i, name, err)
			}
			if err := mc.CheckDynInvariants(); err != nil {
				t.Fatalf("step %d %s: compiled invariants: %v", i, name, err)
			}
			// Every entry point, live or dead: values, traps, and the
			// instruction counter must stay in lockstep.
			for tpl := 0; tpl < 4; tpl++ {
				fn := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				vi, ri := mi.Run(fn)
				vc, rc := mc.Run(fn)
				if vi != vc || (ri == nil) != (rc == nil) || (ri != nil && ri.Error() != rc.Error()) {
					t.Fatalf("step %d %s: %s: interp (%d, %v), compiled (%d, %v)",
						i, name, fn, vi, ri, vc, rc)
				}
			}
			if mi.Executed != mc.Executed {
				t.Fatalf("step %d %s: Executed interp=%d compiled=%d", i, name, mi.Executed, mc.Executed)
			}
			if len(mi.Mem) != len(mc.Mem) {
				t.Fatalf("step %d %s: memory size interp=%d compiled=%d", i, name, len(mi.Mem), len(mc.Mem))
			}
			for a := range mi.Mem {
				if mi.Mem[a] != mc.Mem[a] {
					t.Fatalf("step %d %s: memory diverges at %d: interp=%d compiled=%d",
						i, name, a, mi.Mem[a], mc.Mem[a])
				}
			}
		}

		step(-1, "init", func(m *M) error { return nil })
		for i, b := range data {
			op, tpl := beOp(b)
			switch {
			case op <= 1:
				step(i, "load", func(m *M) error {
					return m.LoadDynamicAs(fuzzModName(tpl), "fuzz/"+fuzzModName(tpl), fuzzTemplate(tpl), nil)
				})
			case op <= 3:
				step(i, "unload", func(m *M) error { return m.UnloadDynamic(fuzzModName(tpl)) })
			case op == 4:
				from := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				to := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[(tpl+1)%4]
				step(i, "interpose", func(m *M) error { return m.Interpose(from, to) })
			case op == 5:
				sym := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				step(i, "unpose", func(m *M) error { m.Unpose(sym); return nil })
			case op == 6:
				step(i, "snapshot", func(m *M) error {
					if m == mi {
						snapI = m.Snapshot()
					} else {
						snapC = m.Snapshot()
					}
					return nil
				})
			default:
				step(i, "restore", func(m *M) error {
					if m == mi {
						if snapI != nil {
							m.Restore(snapI)
						}
					} else if snapC != nil {
						m.Restore(snapC)
					}
					return nil
				})
			}
		}
	})
}

// shapeGen turns fuzz bytes into one function body, shape by shape.
// Registers r0–r7 are general; r8–r15 are kept for accumulate runs, so
// a clean run's temporaries are read only when a shape asks for it.
type shapeGen struct {
	data []byte
	code []obj.Instr
}

// Layout of the fuzzed program: one 8-word global g at the null guard,
// so data ends at shapeData and memory at shapeData+stackWords.
const shapeData = nullGuard + 8

// shapeAddrs are addresses on both sides of the null guard and of the
// end of memory, plus ones inside g and the stack.
var shapeAddrs = []int64{
	0, nullGuard - 1, nullGuard, nullGuard + 3, shapeData,
	shapeData + stackWords - 1, shapeData + stackWords, -1, 1 << 40,
}

var shapeToks = []cmini.Tok{
	cmini.PLUS, cmini.MINUS, cmini.STAR, cmini.SLASH, cmini.PERCENT, cmini.SHL, cmini.SHR,
	cmini.AMP, cmini.PIPE, cmini.CARET, cmini.LT, cmini.GT, cmini.LE, cmini.GE, cmini.EQ, cmini.NE,
}

func (g *shapeGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

func (g *shapeGen) reg() obj.Reg        { return obj.Reg(g.next() % 8) }
func (g *shapeGen) imm() int64          { return int64(g.next()%19) - 9 }
func (g *shapeGen) addr() int64         { return shapeAddrs[g.next()%len(shapeAddrs)] }
func (g *shapeGen) tok() int            { return int(shapeToks[g.next()%len(shapeToks)]) }
func (g *shapeGen) add(in ...obj.Instr) { g.code = append(g.code, in...) }

func (g *shapeGen) bin(d, a, b obj.Reg, tok int) obj.Instr {
	return obj.Instr{Op: obj.OpBin, Dst: d, A: a, B: b, Tok: tok}
}

// accRun emits an unrolled accumulate run over base r8 into acc r9.
// Modes: clean temporaries (fusable), temporaries from the general
// registers (aliasing), a base that changes between rounds (the shape
// matches but the dataflow does not), and p == k.
func (g *shapeGen) accRun() {
	mode, rounds := g.next()%4, 2+g.next()%3
	g.add(obj.Instr{Op: obj.OpConst, Dst: 8, Imm: g.addr()})
	plus := int(cmini.PLUS)
	for i := 0; i < rounds; i++ {
		base := obj.Reg(8)
		p, k, a, v, s := obj.Reg(10), obj.Reg(11), obj.Reg(12), obj.Reg(13), obj.Reg(14)
		switch mode {
		case 1:
			p, k, a, v, s = g.reg(), g.reg(), g.reg(), g.reg(), g.reg()
		case 2:
			base = obj.Reg(8 * (i % 2))
		case 3:
			k = p
		}
		g.add(obj.Instr{Op: obj.OpMov, Dst: p, A: base},
			obj.Instr{Op: obj.OpConst, Dst: k, Imm: g.imm()},
			g.bin(a, p, k, plus),
			obj.Instr{Op: obj.OpLoad, Dst: v, A: a},
			g.bin(s, 9, v, plus),
			obj.Instr{Op: obj.OpMov, Dst: 9, A: s})
	}
}

// shape emits one shape chosen by the next byte.
func (g *shapeGen) shape() {
	switch g.next() % 19 {
	case 0: // const+ALU
		k := g.reg()
		g.add(obj.Instr{Op: obj.OpConst, Dst: k, Imm: g.imm()}, g.bin(g.reg(), g.reg(), k, g.tok()))
	case 1: // ALU feeding a load
		d := g.reg()
		g.add(g.bin(d, g.reg(), g.reg(), g.tok()), obj.Instr{Op: obj.OpLoad, Dst: g.reg(), A: d})
	case 2: // ALU then mov
		g.add(g.bin(g.reg(), g.reg(), g.reg(), g.tok()), obj.Instr{Op: obj.OpMov, Dst: g.reg(), A: g.reg()})
	case 3: // compare+branch, skipping one instruction or not
		c, pc := g.reg(), len(g.code)
		g.add(g.bin(c, g.reg(), g.reg(), g.tok()),
			obj.Instr{Op: obj.OpBranch, A: c, Targets: [2]int{pc + 2, pc + 3}},
			obj.Instr{Op: obj.OpConst, Dst: g.reg(), Imm: g.imm()})
	case 4: // mov+mov
		g.add(obj.Instr{Op: obj.OpMov, Dst: g.reg(), A: g.reg()}, obj.Instr{Op: obj.OpMov, Dst: g.reg(), A: g.reg()})
	case 5: // mov+const
		g.add(obj.Instr{Op: obj.OpMov, Dst: g.reg(), A: g.reg()}, obj.Instr{Op: obj.OpConst, Dst: g.reg(), Imm: g.imm()})
	case 6: // global-address+load
		a := g.reg()
		g.add(obj.Instr{Op: obj.OpAddrGlobal, Dst: a, Sym: "g", A: obj.NoReg}, obj.Instr{Op: obj.OpLoad, Dst: g.reg(), A: a})
	case 7: // an address on either side of a memory bound
		g.add(obj.Instr{Op: obj.OpConst, Dst: g.reg(), Imm: g.addr()})
	case 8:
		g.add(obj.Instr{Op: obj.OpStore, A: g.reg(), B: g.reg()})
	case 9:
		g.add(obj.Instr{Op: obj.OpLoad, Dst: g.reg(), A: g.reg()})
	case 10:
		g.accRun()
	case 11: // load+call (no longer fused)
		l := g.reg()
		g.add(obj.Instr{Op: obj.OpLoad, Dst: l, A: g.reg()},
			obj.Instr{Op: obj.OpCall, Dst: g.reg(), Sym: "callee", Args: []obj.Reg{l}})
	case 12: // load+ALU (no longer fused)
		g.add(obj.Instr{Op: obj.OpLoad, Dst: g.reg(), A: g.reg()}, g.bin(g.reg(), g.reg(), g.reg(), g.tok()))
	case 13: // local-address+load or +store (no longer fused)
		a := g.reg()
		g.add(obj.Instr{Op: obj.OpAddrLocal, Dst: a, Imm: int64(g.next() % 6)})
		if g.next()%2 == 0 {
			g.add(obj.Instr{Op: obj.OpLoad, Dst: g.reg(), A: a})
		} else {
			g.add(obj.Instr{Op: obj.OpStore, A: a, B: g.reg()})
		}
	case 14: // indexed load, with and without its mov lead and accumulate tail (no longer fused)
		lead, tail := g.next()%2 == 0, g.next()%2 == 0
		p, k, a, v := g.reg(), g.reg(), g.reg(), g.reg()
		if lead {
			g.add(obj.Instr{Op: obj.OpMov, Dst: p, A: g.reg()})
		}
		g.add(obj.Instr{Op: obj.OpConst, Dst: k, Imm: g.imm()},
			g.bin(a, p, k, int(cmini.PLUS)),
			obj.Instr{Op: obj.OpLoad, Dst: v, A: a})
		if tail {
			s := g.reg()
			g.add(g.bin(s, g.reg(), v, int(cmini.PLUS)), obj.Instr{Op: obj.OpMov, Dst: g.reg(), A: s})
		}
	case 15: // every kind of call
		d, x := g.reg(), g.reg()
		switch g.next() % 7 {
		case 0:
			g.add(obj.Instr{Op: obj.OpCall, Dst: d, Sym: "callee", Args: []obj.Reg{x}})
		case 1:
			g.add(obj.Instr{Op: obj.OpCall, Dst: d, Sym: "callee"}) // wrong arity
		case 2:
			g.add(obj.Instr{Op: obj.OpCall, Dst: d, Sym: "__dev", Args: []obj.Reg{x}})
		case 3:
			g.add(obj.Instr{Op: obj.OpCall, Dst: d, Sym: "nowhere"})
		case 4:
			g.add(obj.Instr{Op: obj.OpCall, Dst: d, Sym: "body", Args: []obj.Reg{x}})
		case 5:
			g.add(obj.Instr{Op: obj.OpAddrGlobal, Dst: x, Sym: "callee", A: obj.NoReg},
				obj.Instr{Op: obj.OpCallInd, Dst: d, A: x, Args: []obj.Reg{x}})
		default:
			g.add(obj.Instr{Op: obj.OpCallInd, Dst: d, A: x, Args: []obj.Reg{x}})
		}
	case 16: // read an accumulate run's registers after it
		g.add(obj.Instr{Op: obj.OpMov, Dst: g.reg(), A: obj.Reg(8 + g.next()%8)})
	case 17:
		g.add(obj.Instr{Op: obj.OpUn, Dst: g.reg(), A: g.reg(), Tok: int([]cmini.Tok{cmini.MINUS, cmini.NOT, cmini.TILDE}[g.next()%3])})
	default:
		g.add(obj.Instr{Op: obj.OpConst, Dst: g.reg(), Imm: g.imm()})
	}
}

// shapeProgram builds body(x) from the fuzz bytes, plus the callee it
// may call: callee(x) adds x into g[0] and returns the sum.
func shapeProgram(data []byte) *obj.File {
	g := &shapeGen{data: data}
	for len(g.data) > 0 {
		g.shape()
	}
	g.add(obj.Instr{Op: obj.OpRet, A: g.reg(), HasVal: true})
	f := fileWith(
		buildFunc("body", 1, 16, 4, g.code),
		buildFunc("callee", 1, 3, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "g", A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 2, A: 1},
			{Op: obj.OpBin, Dst: 2, A: 2, B: 0, Tok: int(cmini.PLUS)},
			{Op: obj.OpStore, A: 1, B: 2},
			{Op: obj.OpRet, A: 2, HasVal: true},
		}),
	)
	f.Datas["g"] = &obj.Data{Name: "g", Size: 8, Init: []obj.DataInit{{Kind: obj.InitConst, Offset: 3, Val: 7}}}
	f.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	return f
}

// FuzzCompiledShapes varies what FuzzBackendEquivalence holds fixed:
// instruction shapes. It builds a function body from the fuzz bytes —
// every superinstruction the compiled backend fuses, the shapes it no
// longer fuses, calls of every kind, and addresses on both sides of the
// null guard and of the end of memory — and runs it under a fuzzed Fuel
// on both engines in lockstep: value, error text and trap site,
// Executed, Cycles(compiled) == Cycles(interp) − Stalls, and memory.
func FuzzCompiledShapes(f *testing.F) {
	// Seeds: the first two bytes are Fuel and the argument, then one
	// shape selector plus its operands per shape.
	f.Add([]byte{0, 16, 10, 0, 0, 2, 3, 4, 10, 1, 2, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 10, 0, 1, 6, 9, 9, 9, 10, 0, 0, 5, 9, 9, 9, 16, 1, 5})
	f.Add([]byte{0, 3, 10, 2, 2, 3, 9, 9, 10, 3, 1, 11, 9, 9, 9, 10, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{13, 20, 0, 1, 2, 3, 4, 1, 5, 6, 7, 8, 3, 1, 2, 3, 10, 11, 2, 4, 1, 2, 3, 4, 5, 5, 1, 2, 3})
	f.Add([]byte{0, 17, 6, 1, 2, 7, 3, 2, 8, 3, 1, 9, 4, 3, 11, 4, 5, 6, 12, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 5, 13, 1, 2, 0, 3, 13, 2, 5, 1, 4, 14, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 1, 1, 1, 2, 3, 4})
	f.Add([]byte{60, 9, 15, 0, 1, 0, 15, 1, 2, 1, 15, 2, 3, 2, 15, 3, 4, 3, 15, 4, 5, 5, 15, 6, 2, 6, 15, 1, 1, 4})
	f.Add([]byte{0, 1, 7, 0, 6, 8, 0, 1, 7, 2, 1, 9, 3, 2, 16, 4, 4, 17, 1, 2, 0, 18, 1, 2})
	// An accumulate run whose const overwrites p: the strided run once
	// fused it and loaded Mem[base+imm] instead of Mem[2*imm].
	f.Add([]byte("0007"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		fuel, arg := int64(data[0]), int64(data[1])
		mi, mc := compiledPair(t, shapeProgram(data[2:]))
		for _, m := range []*M{mi, mc} {
			m.Fuel = fuel
			m.RegisterBuiltin("__dev", func(_ *M, args []int64) (int64, error) { return args[0] * 3, nil })
		}
		vi, ei := mi.Run("body", arg)
		vc, ec := mc.Run("body", arg)
		assertBackendParity(t, mi, mc, vi, vc, ei, ec)
	})
}
