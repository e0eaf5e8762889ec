package compile

import (
	"fmt"
	"maps"
	"slices"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// optimize runs the intra-file optimizer over every function: inlining
// (within this object file only), then local value numbering (constant
// folding + common subexpression elimination) and dead-code elimination.
func optimize(f *obj.File, opts Options) {
	inlineLimit := opts.InlineLimit
	if inlineLimit == 0 {
		inlineLimit = DefaultInlineLimit
	}
	growthLimit := opts.GrowthLimit
	if growthLimit == 0 {
		growthLimit = DefaultGrowthLimit
	}
	pass := func() {
		for _, fn := range f.Funcs {
			if !opts.DisableCSE {
				valueNumber(fn)
			}
			deadCode(fn)
		}
	}
	pass()
	if inlineLimit > 0 {
		inlineFile(f, inlineLimit, growthLimit)
	}
	pass()
}

// blockLeaders returns a sorted set of basic-block leader indexes.
func blockLeaders(fn *obj.Func) []bool {
	leader := make([]bool, len(fn.Code)+1)
	leader[0] = true
	for i, in := range fn.Code {
		switch in.Op {
		case obj.OpJump:
			leader[in.Targets[0]] = true
			leader[i+1] = true
		case obj.OpBranch:
			leader[in.Targets[0]] = true
			leader[in.Targets[1]] = true
			leader[i+1] = true
		case obj.OpRet:
			leader[i+1] = true
		}
	}
	return leader
}

// vnKey identifies a pure computation for value numbering.
type vnKey struct {
	op   obj.Op
	tok  int
	a, b int32 // value numbers of operands
	imm  int64
	sym  string
}

// vnFact is what is fixed about a value number when it is created: the
// register it was computed into (its home, while that register still
// holds it) and its constant value, if it has one.
type vnFact struct {
	def     obj.Reg
	isConst bool
	val     int64
}

// vnState is the value-numbering state at a program point. Value
// number 0 means "none": regVN[r] == 0 is a register not yet seen, and
// home[r] == 0 a register that is no value number's live home.
type vnState struct {
	regVN  []int32 // register -> value number it holds
	home   []int32 // register -> value number it is the live home of
	exprVN map[vnKey]int32
	loads  []vnKey // exprVN keys of loads, dropped by stores and calls
}

func newVNState(nregs int) *vnState {
	return &vnState{
		regVN:  make([]int32, nregs),
		home:   make([]int32, nregs),
		exprVN: map[vnKey]int32{},
	}
}

func (s *vnState) clone() *vnState {
	return &vnState{
		regVN:  slices.Clone(s.regVN),
		home:   slices.Clone(s.home),
		exprVN: maps.Clone(s.exprVN),
		loads:  slices.Clone(s.loads),
	}
}

// reset empties s for reuse as a fresh state.
func (s *vnState) reset() {
	clear(s.regVN)
	clear(s.home)
	clear(s.exprVN)
	s.loads = s.loads[:0]
}

// valueNumber performs extended-basic-block value numbering: it folds
// constant expressions (using the machine's exact ALU semantics) and
// replaces recomputed pure expressions — including redundant loads — with
// the register that already holds the value. State flows into a block
// that has exactly one (earlier) predecessor, so chains of conditionals
// (a flattened component pipeline) share subexpressions across blocks.
// This is the pass that, after flattening + inlining, "eliminates
// redundant reads via common subexpression elimination" (§6).
//
// Every step is constant time per instruction: a value number's home is
// the register it was computed into, live while home[def] still names
// it, so redefining a register clears one slot.
func valueNumber(fn *obj.Func) {
	leaders := blockLeaders(fn)
	// Identify blocks and predecessor counts.
	type block struct {
		start, end int // [start, end)
	}
	var blocks []block
	blockAt := make([]int, len(fn.Code)+1)
	for i := 0; i < len(fn.Code); {
		j := i + 1
		for j < len(fn.Code) && !leaders[j] {
			j++
		}
		for k := i; k < j; k++ {
			blockAt[k] = len(blocks)
		}
		blocks = append(blocks, block{start: i, end: j})
		i = j
	}
	// preds[b] = (count, soleEarlierPred or -1).
	predCount := make([]int, len(blocks))
	solePred := make([]int, len(blocks))
	for b := range solePred {
		solePred[b] = -1
	}
	addEdge := func(from, toInstr int) {
		if toInstr >= len(fn.Code) {
			return
		}
		tb := blockAt[toInstr]
		predCount[tb]++
		solePred[tb] = from
	}
	for b, blk := range blocks {
		last := &fn.Code[blk.end-1]
		switch last.Op {
		case obj.OpJump:
			addEdge(b, last.Targets[0])
		case obj.OpBranch:
			addEdge(b, last.Targets[0])
			addEdge(b, last.Targets[1])
		case obj.OpRet:
		default:
			addEdge(b, blk.end)
		}
	}
	// inherits[b] is the block whose end state b starts from, or -1;
	// heirs[p] counts the blocks still to start from p's end state, so
	// the last of them takes it over instead of copying it.
	inherits := make([]int, len(blocks))
	heirs := make([]int, len(blocks))
	for b := range blocks {
		inherits[b] = -1
		if p := solePred[b]; predCount[b] == 1 && p >= 0 && p < b {
			inherits[b] = p
			heirs[p]++
		}
	}
	endState := make([]*vnState, len(blocks))
	var spare *vnState

	facts := []vnFact{{}} // indexed by value number; 0 is unused
	newVN := func(def obj.Reg) int32 {
		facts = append(facts, vnFact{def: def})
		return int32(len(facts) - 1)
	}
	var st *vnState
	vnOf := func(r obj.Reg) int32 {
		if vn := st.regVN[r]; vn != 0 {
			return vn
		}
		vn := newVN(obj.NoReg)
		st.regVN[r] = vn
		return vn
	}
	// define records that dst now holds vn; dst stops being the home of
	// any other value number.
	define := func(dst obj.Reg, vn int32) {
		st.regVN[dst] = vn
		if st.home[dst] != vn {
			st.home[dst] = 0
		}
	}
	setDst := func(dst obj.Reg, key vnKey, isLoad bool) int32 {
		vn := newVN(dst)
		st.regVN[dst] = vn
		st.home[dst] = vn
		st.exprVN[key] = vn
		if isLoad {
			st.loads = append(st.loads, key)
		}
		return vn
	}
	setConst := func(dst obj.Reg, v int64) {
		vn := setDst(dst, vnKey{op: obj.OpConst, imm: v}, false)
		facts[vn].isConst, facts[vn].val = true, v
	}
	killLoads := func() {
		for _, k := range st.loads {
			delete(st.exprVN, k)
		}
		st.loads = st.loads[:0]
	}
	// reuse replaces the instruction with a Mov from the register that
	// already holds the value, if one is live; it reports success.
	reuse := func(in *obj.Instr, key vnKey) bool {
		vn, ok := st.exprVN[key]
		if !ok {
			return false
		}
		r := facts[vn].def
		if st.home[r] != vn || r == in.Dst {
			return false
		}
		*in = obj.Instr{Op: obj.OpMov, Dst: in.Dst, A: r, B: obj.NoReg}
		define(in.Dst, vn)
		return true
	}

	for b := range blocks {
		switch p := inherits[b]; {
		case p < 0 && spare != nil:
			st, spare = spare, nil
			st.reset()
		case p < 0:
			st = newVNState(fn.NRegs)
		case heirs[p] == 1:
			st, endState[p] = endState[p], nil
		default:
			heirs[p]--
			st = endState[p].clone()
		}
		for i := blocks[b].start; i < blocks[b].end; i++ {
			in := &fn.Code[i]
			switch in.Op {
			case obj.OpConst:
				if !reuse(in, vnKey{op: obj.OpConst, imm: in.Imm}) {
					setConst(in.Dst, in.Imm)
				}
			case obj.OpMov:
				define(in.Dst, vnOf(in.A))
			case obj.OpBin:
				va, vb := vnOf(in.A), vnOf(in.B)
				if fa, fb := facts[va], facts[vb]; fa.isConst && fb.isConst {
					if v, err := obj.EvalBin(cmini.Tok(in.Tok), fa.val, fb.val); err == nil {
						*in = obj.Instr{Op: obj.OpConst, Dst: in.Dst, Imm: v, A: obj.NoReg, B: obj.NoReg}
						setConst(in.Dst, v)
						continue
					}
				}
				key := vnKey{op: obj.OpBin, tok: in.Tok, a: va, b: vb}
				if !reuse(in, key) {
					setDst(in.Dst, key, false)
				}
			case obj.OpUn:
				va := vnOf(in.A)
				if fa := facts[va]; fa.isConst {
					if v, err := obj.EvalUn(cmini.Tok(in.Tok), fa.val); err == nil {
						*in = obj.Instr{Op: obj.OpConst, Dst: in.Dst, Imm: v, A: obj.NoReg, B: obj.NoReg}
						setConst(in.Dst, v)
						continue
					}
				}
				key := vnKey{op: obj.OpUn, tok: in.Tok, a: va}
				if !reuse(in, key) {
					setDst(in.Dst, key, false)
				}
			case obj.OpAddrGlobal:
				key := vnKey{op: obj.OpAddrGlobal, sym: in.Sym}
				if !reuse(in, key) {
					setDst(in.Dst, key, false)
				}
			case obj.OpAddrLocal, obj.OpAddrString:
				key := vnKey{op: in.Op, imm: in.Imm}
				if !reuse(in, key) {
					setDst(in.Dst, key, false)
				}
			case obj.OpLoad:
				key := vnKey{op: obj.OpLoad, a: vnOf(in.A)}
				if !reuse(in, key) {
					setDst(in.Dst, key, true)
				}
			case obj.OpStore:
				// Conservative: any store may alias any load.
				killLoads()
			case obj.OpCall, obj.OpCallInd:
				killLoads()
				define(in.Dst, newVN(obj.NoReg))
			}
		}
		if heirs[b] > 0 {
			endState[b] = st
		} else {
			spare = st
		}
	}
}

// defines reports whether op writes its Dst register.
func defines(op obj.Op) bool {
	switch op {
	case obj.OpConst, obj.OpMov, obj.OpBin, obj.OpUn, obj.OpLoad,
		obj.OpAddrGlobal, obj.OpAddrLocal, obj.OpAddrString,
		obj.OpCall, obj.OpCallInd:
		return true
	}
	return false
}

// uses returns the registers read by an instruction.
func uses(in *obj.Instr) []obj.Reg {
	var out []obj.Reg
	add := func(r obj.Reg) {
		if r != obj.NoReg {
			out = append(out, r)
		}
	}
	switch in.Op {
	case obj.OpMov, obj.OpUn, obj.OpLoad:
		add(in.A)
	case obj.OpBin:
		add(in.A)
		add(in.B)
	case obj.OpStore:
		add(in.A)
		add(in.B)
	case obj.OpBranch:
		add(in.A)
	case obj.OpRet:
		if in.HasVal {
			add(in.A)
		}
	case obj.OpCall:
	case obj.OpCallInd:
		add(in.A)
	}
	if in.Op == obj.OpCall || in.Op == obj.OpCallInd {
		out = append(out, in.Args...)
	}
	return out
}

// pure reports whether an instruction can be deleted if its result is
// unused.
func pure(op obj.Op) bool {
	switch op {
	case obj.OpConst, obj.OpMov, obj.OpBin, obj.OpUn, obj.OpLoad,
		obj.OpAddrGlobal, obj.OpAddrLocal, obj.OpAddrString:
		return true
	}
	return false
}

// deadCode removes pure instructions whose results are never read
// (flow-insensitively) and compacts the code, fixing jump targets.
func deadCode(fn *obj.Func) {
	for {
		reach := reachable(fn)
		read := make([]bool, fn.NRegs)
		for i := range fn.Code {
			if !reach[i] {
				continue
			}
			for _, r := range uses(&fn.Code[i]) {
				read[r] = true
			}
		}
		// Parameters are implicitly live on entry (their registers are
		// the calling convention), but an unread parameter costs nothing.
		keep := make([]bool, len(fn.Code))
		removed := false
		for i := range fn.Code {
			in := &fn.Code[i]
			if !reach[i] {
				removed = true
				continue
			}
			if pure(in.Op) && !read[in.Dst] {
				removed = true
				continue
			}
			if in.Op == obj.OpMov && in.A == in.Dst {
				removed = true
				continue
			}
			keep[i] = true
		}
		if !removed {
			return
		}
		compact(fn, keep)
	}
}

// reachable marks instructions reachable from entry by control flow.
func reachable(fn *obj.Func) []bool {
	seen := make([]bool, len(fn.Code))
	var stack []int
	if len(fn.Code) > 0 {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i < len(fn.Code) && !seen[i] {
			seen[i] = true
			in := &fn.Code[i]
			switch in.Op {
			case obj.OpJump:
				i = in.Targets[0]
			case obj.OpBranch:
				stack = append(stack, in.Targets[1])
				i = in.Targets[0]
			case obj.OpRet:
				i = len(fn.Code)
			default:
				i++
			}
		}
	}
	return seen
}

// compact rebuilds fn.Code keeping only instructions marked keep,
// remapping jump and branch targets. Targets that point at removed
// instructions move to the next kept instruction.
func compact(fn *obj.Func, keep []bool) {
	newIndex := make([]int, len(fn.Code)+1)
	n := 0
	for i := range fn.Code {
		newIndex[i] = n
		if keep[i] {
			n++
		}
	}
	newIndex[len(fn.Code)] = n
	out := make([]obj.Instr, 0, n)
	for i := range fn.Code {
		if !keep[i] {
			continue
		}
		in := fn.Code[i]
		switch in.Op {
		case obj.OpJump:
			in.Targets[0] = newIndex[in.Targets[0]]
		case obj.OpBranch:
			in.Targets[0] = newIndex[in.Targets[0]]
			in.Targets[1] = newIndex[in.Targets[1]]
		}
		out = append(out, in)
	}
	fn.Code = out
}

// Disasm renders a function's IR for debugging and tests.
func Disasm(fn *obj.Func) string {
	s := fmt.Sprintf("func %s (args=%d regs=%d frame=%d)\n",
		fn.Name, fn.NArgs, fn.NRegs, fn.Frame)
	for i, in := range fn.Code {
		s += fmt.Sprintf("%4d  %-8s", i, in.Op)
		switch in.Op {
		case obj.OpConst:
			s += fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
		case obj.OpMov:
			s += fmt.Sprintf("r%d = r%d", in.Dst, in.A)
		case obj.OpBin:
			s += fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, cmini.Tok(in.Tok), in.B)
		case obj.OpUn:
			s += fmt.Sprintf("r%d = %s r%d", in.Dst, cmini.Tok(in.Tok), in.A)
		case obj.OpLoad:
			s += fmt.Sprintf("r%d = [r%d]", in.Dst, in.A)
		case obj.OpStore:
			s += fmt.Sprintf("[r%d] = r%d", in.A, in.B)
		case obj.OpAddrGlobal:
			s += fmt.Sprintf("r%d = &%s", in.Dst, in.Sym)
		case obj.OpAddrLocal:
			s += fmt.Sprintf("r%d = fp+%d", in.Dst, in.Imm)
		case obj.OpAddrString:
			s += fmt.Sprintf("r%d = &str[%d]", in.Dst, in.Imm)
		case obj.OpCall:
			s += fmt.Sprintf("r%d = %s%v", in.Dst, in.Sym, in.Args)
		case obj.OpCallInd:
			s += fmt.Sprintf("r%d = (*r%d)%v", in.Dst, in.A, in.Args)
		case obj.OpJump:
			s += fmt.Sprintf("-> %d", in.Targets[0])
		case obj.OpBranch:
			s += fmt.Sprintf("r%d ? %d : %d", in.A, in.Targets[0], in.Targets[1])
		case obj.OpRet:
			if in.HasVal {
				s += fmt.Sprintf("r%d", in.A)
			}
		}
		s += "\n"
	}
	return s
}
