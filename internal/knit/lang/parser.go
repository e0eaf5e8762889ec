package lang

import (
	"fmt"
	"slices"
)

// Parse parses a unit-language file. A lexical error anywhere in the
// file is reported in preference to a syntax error.
func Parse(file, src string) (*File, error) {
	p := &parser{lx: lexer{file: file, src: src, line: 1, lastLine: 1, lastCol: 1}}
	p.advance()
	out, err := p.file()
	for !p.done {
		p.advance()
	}
	if p.err != nil {
		return nil, p.err
	}
	return out, err
}

func (p *parser) file() (*File, error) {
	out := &File{Name: p.lx.file}
	for !p.atEOF() {
		switch p.tok.Kind {
		case KwBundletype:
			bt, err := p.bundleType()
			if err != nil {
				return nil, err
			}
			out.BundleTypes = append(out.BundleTypes, bt)
		case KwFlags:
			fs, err := p.flagSet()
			if err != nil {
				return nil, err
			}
			out.FlagSets = append(out.FlagSets, fs)
		case KwProperty:
			pr, err := p.property()
			if err != nil {
				return nil, err
			}
			out.Properties = append(out.Properties, pr)
		case KwType:
			if len(out.Properties) == 0 {
				return nil, p.errf("'type' declaration before any 'property'")
			}
			pv, err := p.propValue()
			if err != nil {
				return nil, err
			}
			last := out.Properties[len(out.Properties)-1]
			last.Values = append(last.Values, pv)
		case KwUnit:
			u, err := p.unit()
			if err != nil {
				return nil, err
			}
			out.Units = append(out.Units, u)
		default:
			return nil, p.errf("expected declaration, found %s", p.describe())
		}
	}
	return out, nil
}

// parser pulls tokens from the lexer one at a time; the grammar needs
// no more lookahead than the current token.
type parser struct {
	lx   lexer
	tok  Token // the current token
	err  error // lexical error that ended the token stream
	done bool  // the lexer hit EOF or err
}

// advance moves to the next token, or to EOF at the last token's
// position once input or a lexical error has ended the stream.
func (p *parser) advance() {
	if !p.done {
		err := p.lx.scan(&p.tok)
		if err == nil && p.tok.Kind != EOF {
			return
		}
		p.err, p.done = err, true
	}
	p.tok = Token{Kind: EOF, Pos: p.lx.lastPos()}
}

func (p *parser) atEOF() bool { return p.tok.Kind == EOF }

func (p *parser) cur() Token { return p.tok }

func (p *parser) next() Token {
	t := p.tok
	p.advance()
	return t
}

func (p *parser) accept(k Tok) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k Tok) (Token, error) {
	t := p.tok
	if t.Kind != k {
		return t, p.errf("expected %q, found %s", k.String(), p.describe())
	}
	p.advance()
	return t, nil
}

func (p *parser) describe() string {
	t := p.cur()
	if t.Kind == IDENT || t.Kind == STRING {
		return fmt.Sprintf("%q", t.Lit)
	}
	return fmt.Sprintf("%q", t.Kind.String())
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// identLike accepts an identifier or a keyword used as a name (bundle
// symbols like "type" would be unusual but harmless).
func (p *parser) ident() (Token, error) {
	return p.expect(IDENT)
}

func (p *parser) bundleType() (*BundleType, error) {
	pos := p.next().Pos // bundletype
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	bt := &BundleType{Pos: pos, Name: name.Lit}
	for !p.accept(RBRACE) {
		sym, err := p.ident()
		if err != nil {
			return nil, err
		}
		if slices.Contains(bt.Syms, sym.Lit) {
			return nil, &Error{Pos: sym.Pos, Msg: fmt.Sprintf("duplicate symbol %q in bundletype %s", sym.Lit, name.Lit)}
		}
		bt.Syms = append(bt.Syms, sym.Lit)
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			break
		}
	}
	if len(bt.Syms) == 0 {
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("bundletype %s is empty", name.Lit)}
	}
	return bt, nil
}

func (p *parser) flagSet() (*FlagSet, error) {
	pos := p.next().Pos // flags
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	fs := &FlagSet{Pos: pos, Name: name.Lit}
	for !p.accept(RBRACE) {
		s, err := p.expect(STRING)
		if err != nil {
			return nil, err
		}
		fs.Values = append(fs.Values, s.Lit)
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			break
		}
	}
	return fs, nil
}

func (p *parser) property() (*Property, error) {
	pos := p.next().Pos // property
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	pr := &Property{Pos: pos, Name: name.Lit}
	if p.tok.Kind == IDENT && p.cur().Lit == "propagates" {
		p.advance()
		pr.Propagates = true
	}
	return pr, nil
}

func (p *parser) propValue() (PropValue, error) {
	pos := p.next().Pos // type
	name, err := p.ident()
	if err != nil {
		return PropValue{}, err
	}
	pv := PropValue{Pos: pos, Name: name.Lit}
	if p.accept(LT) {
		below, err := p.ident()
		if err != nil {
			return PropValue{}, err
		}
		pv.Below = below.Lit
	}
	return pv, nil
}

func (p *parser) unit() (*Unit, error) {
	pos := p.next().Pos // unit
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	u := &Unit{Pos: pos, Name: name.Lit}
	for !p.accept(RBRACE) {
		if p.atEOF() {
			return nil, &Error{Pos: pos, Msg: fmt.Sprintf("unterminated unit %s", name.Lit)}
		}
		if err := p.unitSection(u); err != nil {
			return nil, err
		}
	}
	if len(u.Files) > 0 && len(u.Links) > 0 {
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("unit %s has both files and link sections", name.Lit)}
	}
	return u, nil
}

func (p *parser) unitSection(u *Unit) error {
	switch p.tok.Kind {
	case KwImports:
		p.advance()
		return p.bindings(&u.Imports)
	case KwExports:
		p.advance()
		return p.bindings(&u.Exports)
	case KwDepends:
		p.advance()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			dc, err := p.depClause()
			if err != nil {
				return err
			}
			u.Depends = append(u.Depends, dc)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwFiles:
		p.advance()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			s, err := p.expect(STRING)
			if err != nil {
				return err
			}
			u.Files = append(u.Files, s.Lit)
			if !p.accept(COMMA) {
				if _, err := p.expect(RBRACE); err != nil {
					return err
				}
				break
			}
		}
		if p.accept(KwWith) {
			if _, err := p.expect(KwFlags); err != nil {
				return err
			}
			fr, err := p.ident()
			if err != nil {
				return err
			}
			u.FlagsRef = fr.Lit
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwRename:
		p.advance()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			r, err := p.renameClause()
			if err != nil {
				return err
			}
			u.Renames = append(u.Renames, r)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwInitializer, KwFinalizer:
		fin := p.next().Kind == KwFinalizer
		fn, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(KwFor); err != nil {
			return err
		}
		b, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
		u.Inits = append(u.Inits, InitDecl{Pos: fn.Pos, Func: fn.Lit, Bundle: b.Lit, Finalizer: fin})
	case KwFallback:
		p.advance()
		fb, err := p.ident()
		if err != nil {
			return err
		}
		if u.Fallback != "" {
			return p.errf("unit %s declares more than one fallback", u.Name)
		}
		if fb.Lit == u.Name {
			return p.errf("unit %s names itself as fallback", u.Name)
		}
		u.Fallback = fb.Lit
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwConstraints:
		p.advance()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			c, err := p.constraint()
			if err != nil {
				return err
			}
			u.Constraints = append(u.Constraints, c)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwLink:
		p.advance()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			ll, err := p.linkLine()
			if err != nil {
				return err
			}
			u.Links = append(u.Links, ll)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	default:
		return p.errf("expected unit section, found %s", p.describe())
	}
	return nil
}

// bindings parses a bracketed binding list and appends it to out.
func (p *parser) bindings(out *[]Binding) error {
	if _, err := p.expect(LBRACK); err != nil {
		return err
	}
	for !p.accept(RBRACK) {
		local, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(COLON); err != nil {
			return err
		}
		typ, err := p.ident()
		if err != nil {
			return err
		}
		*out = append(*out, Binding{Pos: local.Pos, Local: local.Lit, Type: typ.Lit})
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACK); err != nil {
				return err
			}
			break
		}
	}
	_, err := p.expect(SEMI)
	return err
}

// depTerm parses IDENT | exports | imports | ( term { + term } ) and
// appends the names it denotes to out.
func (p *parser) depTerm(out []string) ([]string, error) {
	switch p.tok.Kind {
	case IDENT:
		return append(out, p.next().Lit), nil
	case KwExports:
		p.advance()
		return append(out, ExportsKeyword), nil
	case KwImports:
		p.advance()
		return append(out, ImportsKeyword), nil
	case LPAREN:
		p.advance()
		for {
			var err error
			if out, err = p.depTerm(out); err != nil {
				return nil, err
			}
			if p.accept(PLUS) {
				continue
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	return nil, p.errf("expected dependency term, found %s", p.describe())
}

func (p *parser) depClause() (DepClause, error) {
	pos := p.cur().Pos
	lhs, err := p.depTerm(nil)
	if err != nil {
		return DepClause{}, err
	}
	// Allow "a + b needs ..." without parens.
	for p.accept(PLUS) {
		if lhs, err = p.depTerm(lhs); err != nil {
			return DepClause{}, err
		}
	}
	if _, err := p.expect(KwNeeds); err != nil {
		return DepClause{}, err
	}
	rhs, err := p.depTerm(nil)
	if err != nil {
		return DepClause{}, err
	}
	for p.accept(PLUS) || p.accept(COMMA) {
		if rhs, err = p.depTerm(rhs); err != nil {
			return DepClause{}, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return DepClause{}, err
	}
	return DepClause{Pos: pos, LHS: lhs, RHS: rhs}, nil
}

func (p *parser) renameClause() (Rename, error) {
	bundle, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(DOT); err != nil {
		return Rename{}, err
	}
	sym, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(KwTo); err != nil {
		return Rename{}, err
	}
	to, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return Rename{}, err
	}
	return Rename{Pos: bundle.Pos, Bundle: bundle.Lit, Sym: sym.Lit, To: to.Lit}, nil
}

// constraintRef parses prop(arg) or a bare value identifier.
func (p *parser) constraintRef() (Ref, error) {
	pos := p.cur().Pos
	var name string
	switch p.tok.Kind {
	case IDENT:
		name = p.next().Lit
	default:
		return Ref{}, p.errf("expected constraint operand, found %s", p.describe())
	}
	if p.accept(LPAREN) {
		var arg string
		switch p.tok.Kind {
		case IDENT:
			arg = p.next().Lit
		case KwImports:
			p.advance()
			arg = ImportsKeyword
		case KwExports:
			p.advance()
			arg = ExportsKeyword
		default:
			return Ref{}, p.errf("expected bundle name, found %s", p.describe())
		}
		if _, err := p.expect(RPAREN); err != nil {
			return Ref{}, err
		}
		return Ref{Pos: pos, Prop: name, Arg: arg}, nil
	}
	return Ref{Pos: pos, Value: name}, nil
}

func (p *parser) constraint() (Constraint, error) {
	lhs, err := p.constraintRef()
	if err != nil {
		return Constraint{}, err
	}
	var op ConstraintOp
	switch p.tok.Kind {
	case EQ:
		op = OpEq
	case LE:
		op = OpLe
	case GE:
		op = OpGe
	default:
		return Constraint{}, p.errf("expected =, <= or >=, found %s", p.describe())
	}
	p.advance()
	rhs, err := p.constraintRef()
	if err != nil {
		return Constraint{}, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return Constraint{}, err
	}
	if lhs.IsValue() && rhs.IsValue() {
		return Constraint{}, &Error{Pos: lhs.Pos, Msg: "constraint relates two literal values"}
	}
	return Constraint{Pos: lhs.Pos, LHS: lhs, Op: op, RHS: rhs}, nil
}

func (p *parser) linkLine() (LinkLine, error) {
	pos := p.cur().Pos
	outs, err := p.nameList()
	if err != nil {
		return LinkLine{}, err
	}
	if _, err := p.expect(LARROW); err != nil {
		return LinkLine{}, err
	}
	unit, err := p.ident()
	if err != nil {
		return LinkLine{}, err
	}
	if _, err := p.expect(LARROW); err != nil {
		return LinkLine{}, err
	}
	ins, err := p.nameList()
	if err != nil {
		return LinkLine{}, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return LinkLine{}, err
	}
	return LinkLine{Pos: pos, Outs: outs, Unit: unit.Lit, Ins: ins}, nil
}

func (p *parser) nameList() ([]string, error) {
	if _, err := p.expect(LBRACK); err != nil {
		return nil, err
	}
	var out []string
	for !p.accept(RBRACK) {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, n.Lit)
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			break
		}
	}
	return out, nil
}
