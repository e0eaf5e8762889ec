package machine

import (
	"fmt"
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

// fuzzStatics adds static (local) symbols to template tpl's file: a
// global holding 100*(tpl+1) and a function returning 1, both read back
// by the exported chk_<tpl>. The variant picks their names (0 adds
// none): 1 names unique to the template; 2 and 5 names several
// templates share; 3 and 4 names the image defines; 6 another
// template's export; 7 a global of t0, which t0 itself would define
// twice. Every clash must refuse the load.
func fuzzStatics(f *obj.File, tpl, variant int) {
	if variant == 0 {
		return
	}
	own := fmt.Sprint(tpl)
	data, fn := "st_"+own, "sf_"+own
	switch variant {
	case 2:
		data = "st_shared"
	case 3:
		data = "base_g"
	case 4:
		fn = "base_id"
	case 5:
		fn = "sf_shared"
	case 6:
		data = fmt.Sprintf("fn_%d", (tpl+1)%4)
	case 7:
		fn = "g_0"
	}
	f.Datas[data] = &obj.Data{Name: data, Size: 1, Local: true,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: int64(100 * (tpl + 1))}}}
	f.AddSym(&obj.Symbol{Name: data, Kind: obj.SymData, Defined: true, Local: true})
	f.Funcs[fn] = &obj.Func{Name: fn, NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: fn, Kind: obj.SymFunc, Defined: true, Local: true})
	chk := "chk_" + own
	f.Funcs[chk] = &obj.Func{Name: chk, NRegs: 3, Code: []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: data, A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 1, A: 1},
		{Op: obj.OpCall, Dst: 2, Sym: fn, A: obj.NoReg},
		{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: chk, Kind: obj.SymFunc, Defined: true})
}

// fuzzRefs lists the external symbols each template references.
var fuzzRefs = [4][]string{nil, {"fn_0"}, {"fn_1"}, nil}

// fuzzOp decodes one fuzz byte: an operation, a template argument, and
// the template's statics variant (see fuzzStatics).
func fuzzOp(b byte) (op, tpl, variant int) {
	return int(b & 7), int(b>>3) % 4, int(b >> 5)
}

// FuzzDynamicLifecycle drives random load/unload/snapshot/restore
// sequences against a model that predicts which must succeed, and runs
// the machine's dynamic invariant checker plus every live (and dead)
// entry point after each step. A refused load must leave the machine
// exactly as it was, and with no module live the machine's memory and
// text must be a fresh machine's. It is the harness for the guarantee that no
// sequence of lifecycle operations leaves two definitions of one name,
// a dangling symbol or an unlaunchable machine.
func FuzzDynamicLifecycle(f *testing.F) {
	enc := func(op, tpl, variant int) byte { return byte(op | tpl<<3 | variant<<5) }
	// Seeds: ordered loads and unloads, dependency violations, reload
	// after unload, snapshot/restore around loads, and statics that
	// clash with the image, with each other, and with exports.
	f.Add([]byte{enc(0, 0, 0), enc(0, 1, 0), enc(0, 2, 0), enc(0, 3, 0)})
	f.Add([]byte{enc(0, 0, 0), enc(0, 1, 0), enc(3, 0, 0), enc(3, 1, 0), enc(3, 0, 0)})
	f.Add([]byte{enc(0, 1, 0), enc(0, 0, 0), enc(0, 1, 0), enc(3, 1, 0), enc(0, 1, 0)})
	f.Add([]byte{enc(0, 0, 0), enc(6, 0, 0), enc(0, 1, 0), enc(0, 2, 0), enc(7, 0, 0), enc(0, 1, 0)})
	f.Add([]byte{enc(0, 2, 0), enc(0, 0, 0), enc(0, 1, 0), enc(3, 2, 0), enc(6, 0, 0), enc(3, 1, 0), enc(7, 0, 0)})
	f.Add([]byte{enc(0, 0, 2), enc(0, 3, 2), enc(0, 3, 3), enc(0, 3, 4), enc(3, 0, 0), enc(0, 3, 2)})
	f.Add([]byte{enc(0, 3, 6), enc(0, 1, 0), enc(3, 3, 0), enc(0, 0, 1), enc(3, 1, 0), enc(3, 3, 0)})
	f.Add([]byte{enc(0, 0, 7), enc(0, 2, 7), enc(0, 1, 5), enc(0, 0, 5), enc(6, 0, 0), enc(3, 2, 0), enc(7, 0, 0)})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		base := fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		base.Datas["base_g"] = &obj.Data{Name: "base_g", Size: 1}
		base.AddSym(&obj.Symbol{Name: "base_g", Kind: obj.SymData, Defined: true})
		m := loadFile(t, base)
		memFresh, textFresh := len(m.Mem), m.textTop

		// The model: the file each template was loaded from, nil when
		// not live.
		var live, snapLive [4]*obj.File
		var snap *Snapshot
		defines := func(f *obj.File, sym string) bool {
			_, d := f.Datas[sym]
			_, fn := f.Funcs[sym]
			return d || fn
		}
		definedLive := func(sym string) bool {
			if defines(base, sym) {
				return true
			}
			for _, lf := range live {
				if lf != nil && defines(lf, sym) {
					return true
				}
			}
			return false
		}

		check := func(step int) {
			t.Helper()
			if err := m.CheckDynInvariants(); err != nil {
				t.Fatalf("step %d: invariants violated: %v", step, err)
			}
			// Unloads leave no residue: with no module live, memory and
			// text are a fresh machine's.
			if live == [4]*obj.File{} && (len(m.Mem) != memFresh || m.textTop != textFresh) {
				t.Fatalf("step %d: no module live, but mem %d words (fresh %d), text top %d (fresh %d)",
					step, len(m.Mem), memFresh, m.textTop, textFresh)
			}
			for tpl := 0; tpl < 4; tpl++ {
				fn := fmt.Sprintf("fn_%d", tpl)
				v, err := m.Run(fn)
				switch {
				case live[tpl] == nil:
					if err == nil {
						t.Fatalf("step %d: %s runnable but %s is not loaded", step, fn, fuzzModName(tpl))
					}
				case tpl == 2 && live[1] == nil:
					// fn_2 calls into the unloaded t1: must trap, not
					// crash or resolve stale state.
					if err == nil {
						t.Fatalf("step %d: fn_2 resolved a call into unloaded tmod1", step)
					}
				case err != nil:
					t.Fatalf("step %d: %s: %v", step, fn, err)
				case v != int64(tpl):
					t.Fatalf("step %d: %s = %d, want %d", step, fn, v, tpl)
				}
				// A live module's statics are its own, whatever they
				// are named.
				chk := fmt.Sprintf("chk_%d", tpl)
				v, err = m.Run(chk)
				if live[tpl] == nil || live[tpl].Funcs[chk] == nil {
					if err == nil {
						t.Fatalf("step %d: %s runnable but not loaded", step, chk)
					}
				} else if want := int64(100*(tpl+1) + 1); err != nil || v != want {
					t.Fatalf("step %d: %s = %d, %v; want %d", step, chk, v, err, want)
				}
			}
		}

		check(-1)
		for i, b := range data {
			op, tpl, variant := fuzzOp(b)
			switch {
			case op <= 2: // load
				f := fuzzTemplate(tpl)
				fuzzStatics(f, tpl, variant)
				wantOK := live[tpl] == nil && (tpl != 1 || definedLive("fn_0"))
				for name := range f.Datas {
					wantOK = wantOK && !definedLive(name) && f.Funcs[name] == nil
				}
				for name := range f.Funcs {
					wantOK = wantOK && !definedLive(name)
				}
				pre := m.Snapshot()
				err := m.LoadDynamicAs(fuzzModName(tpl), "fuzz/"+fuzzModName(tpl), f, nil)
				if wantOK != (err == nil) {
					t.Fatalf("step %d: load %s (statics %d): err=%v, model wanted ok=%v",
						i, fuzzModName(tpl), variant, err, wantOK)
				}
				if err == nil {
					live[tpl] = f
				} else if serr := m.StateEqual(pre); serr != nil {
					t.Fatalf("step %d: refused load of %s left residue: %v", i, fuzzModName(tpl), serr)
				}
			case op <= 5: // unload
				err := m.UnloadDynamic(fuzzModName(tpl))
				// A module is pinned while another live one references a
				// name it defines.
				wantOK := live[tpl] != nil
				for other, lf := range live {
					if wantOK && lf != nil && other != tpl {
						for _, ref := range fuzzRefs[other] {
							wantOK = wantOK && !defines(live[tpl], ref)
						}
					}
				}
				if wantOK != (err == nil) {
					t.Fatalf("step %d: unload %s: err=%v, model wanted ok=%v",
						i, fuzzModName(tpl), err, wantOK)
				}
				if err == nil {
					live[tpl] = nil
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
