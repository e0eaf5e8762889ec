package machine

import (
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// fuzzTemplate builds one of four dynamic-module shapes with known
// inter-module dependencies, so the fuzzer can explore load/unload
// orders while a simple model predicts which operations must succeed:
//
//	t0: standalone (fn_0 -> 0, data g_0)
//	t1: takes the address of t0's fn_0 -> loads only while t0 is live,
//	    and pins t0 (fn_1 -> 1)
//	t2: calls fn_1 -> always loads, pins t1 while both live; fn_2 -> 2
//	    when t1 is live, traps otherwise
//	t3: standalone with a string literal and InitString data (fn_3 -> 3)
func fuzzTemplate(t int) *obj.File {
	name := fuzzModName(t)
	f := obj.NewFile(name)
	addFn := func(fn *obj.Func) {
		f.Funcs[fn.Name] = fn
		f.AddSym(&obj.Symbol{Name: fn.Name, Kind: obj.SymFunc, Defined: true})
	}
	switch t {
	case 0:
		addFn(&obj.Func{Name: "fn_0", NRegs: 2, Code: []obj.Instr{
			{Op: obj.OpConst, Dst: 1, Imm: 0},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}})
		f.Datas["g_0"] = &obj.Data{Name: "g_0", Size: 1,
			Init: []obj.DataInit{{Kind: obj.InitConst, Val: 100}}}
		f.AddSym(&obj.Symbol{Name: "g_0", Kind: obj.SymData, Defined: true})
	case 1:
		addFn(&obj.Func{Name: "fn_1", NRegs: 2, Code: []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "fn_0", A: obj.NoReg},
			{Op: obj.OpConst, Dst: 1, Imm: 1},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}})
		f.AddSym(&obj.Symbol{Name: "fn_0", Kind: obj.SymFunc, Defined: false})
	case 2:
		addFn(&obj.Func{Name: "fn_2", NRegs: 3, Code: []obj.Instr{
			{Op: obj.OpCall, Dst: 1, Sym: "fn_1", A: obj.NoReg},
			{Op: obj.OpConst, Dst: 2, Imm: 1},
			{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}})
		f.AddSym(&obj.Symbol{Name: "fn_1", Kind: obj.SymFunc, Defined: false})
	case 3:
		f.Strings = []string{"x"} // 'x' == 120
		addFn(&obj.Func{Name: "fn_3", NRegs: 3, Code: []obj.Instr{
			{Op: obj.OpAddrString, Dst: 1, Imm: 0, A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 1, A: 1},
			{Op: obj.OpConst, Dst: 2, Imm: 117},
			{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.MINUS)},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}})
		f.Datas["g_3"] = &obj.Data{Name: "g_3", Size: 1,
			Init: []obj.DataInit{{Kind: obj.InitString, Offset: 0, Index: 0}}}
		f.AddSym(&obj.Symbol{Name: "g_3", Kind: obj.SymData, Defined: true})
	}
	return f
}

func fuzzModName(t int) string {
	return [...]string{"tmod0", "tmod1", "tmod2", "tmod3"}[t]
}

// fuzzOp decodes one fuzz byte: an operation and a template argument.
func fuzzOp(b byte) (op int, tpl int) {
	return int(b & 7), int(b>>3) % 4
}

// FuzzDynamicLifecycle drives random load/unload/snapshot/restore
// sequences against a model that predicts which must succeed, and runs
// the machine's dynamic-table invariant checker plus every live (and
// dead) entry point after each step. It is the harness for the
// guarantee that no sequence of lifecycle operations leaves a dangling
// symbol-table entry or an unlaunchable machine.
func FuzzDynamicLifecycle(f *testing.F) {
	enc := func(op, tpl int) byte { return byte(op | tpl<<3) }
	// Seeds: ordered loads and unloads, dependency violations, reload
	// after unload, snapshot/restore around loads.
	f.Add([]byte{enc(0, 0), enc(0, 1), enc(0, 2), enc(0, 3)})
	f.Add([]byte{enc(0, 0), enc(0, 1), enc(3, 0), enc(3, 1), enc(3, 0)})
	f.Add([]byte{enc(0, 1), enc(0, 0), enc(0, 1), enc(3, 1), enc(0, 1)})
	f.Add([]byte{enc(0, 0), enc(6, 0), enc(0, 1), enc(0, 2), enc(7, 0), enc(0, 1)})
	f.Add([]byte{enc(0, 2), enc(0, 0), enc(0, 1), enc(3, 2), enc(6, 0), enc(3, 1), enc(7, 0)})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		m := loadFile(t, fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
			{Op: obj.OpRet, A: 0, HasVal: true},
		})))

		live := [4]bool{}
		var snap *Snapshot
		var snapLive [4]bool

		check := func(step int) {
			t.Helper()
			if err := m.CheckDynInvariants(); err != nil {
				t.Fatalf("step %d: invariants violated: %v", step, err)
			}
			for tpl := 0; tpl < 4; tpl++ {
				fn := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				v, err := m.Run(fn)
				if !live[tpl] {
					if err == nil {
						t.Fatalf("step %d: %s runnable but %s is not loaded", step, fn, fuzzModName(tpl))
					}
					continue
				}
				if tpl == 2 && !live[1] {
					// fn_2 calls into the unloaded t1: must trap, not
					// crash or resolve stale state.
					if err == nil {
						t.Fatalf("step %d: fn_2 resolved a call into unloaded tmod1", step)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, fn, err)
				}
				if v != int64(tpl) {
					t.Fatalf("step %d: %s = %d, want %d", step, fn, v, tpl)
				}
			}
		}

		check(-1)
		for i, b := range data {
			op, tpl := fuzzOp(b)
			switch {
			case op <= 2: // load
				err := m.LoadDynamicAs(fuzzModName(tpl), "fuzz/"+fuzzModName(tpl), fuzzTemplate(tpl), nil)
				wantOK := !live[tpl] && (tpl != 1 || live[0])
				if wantOK != (err == nil) {
					t.Fatalf("step %d: load %s: err=%v, model wanted ok=%v (live=%v)",
						i, fuzzModName(tpl), err, wantOK, live)
				}
				if err == nil {
					live[tpl] = true
				}
			case op <= 5: // unload
				err := m.UnloadDynamic(fuzzModName(tpl))
				wantOK := live[tpl] &&
					!(tpl == 0 && live[1]) && // t1 pins t0
					!(tpl == 1 && live[2]) // t2 pins t1
				if wantOK != (err == nil) {
					t.Fatalf("step %d: unload %s: err=%v, model wanted ok=%v (live=%v)",
						i, fuzzModName(tpl), err, wantOK, live)
				}
				if err == nil {
					live[tpl] = false
				}
			case op == 6: // snapshot
				snap, snapLive = m.Snapshot(), live
			default: // restore
				if snap != nil {
					m.Restore(snap)
					live = snapLive
				}
			}
			check(i)
		}
	})
}
