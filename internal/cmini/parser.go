package cmini

import (
	"fmt"
	"strconv"
)

// ParseError is a syntax error with a source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser is a recursive-descent parser for cmini. It pulls tokens from
// the lexer as it goes, holding at most three (the current token and two
// of lookahead) rather than the whole token stream.
type Parser struct {
	lx   *Lexer
	la   [3]Token // la[:n] are lexed but not yet consumed; n >= 1
	n    int
	err  error // lexical error that ended the token stream
	done bool  // the lexer hit EOF or err
}

// Parse parses a cmini source file. A lexical error anywhere in the
// file is reported in preference to a syntax error.
func Parse(file, src string) (*File, error) {
	p := &Parser{lx: NewLexer(file, src), n: 1}
	p.fill(&p.la[0])
	f := &File{Name: file}
	var err error
	for err == nil && !p.atEOF() {
		var d Decl
		if d, err = p.parseTopDecl(); err == nil {
			f.Decls = append(f.Decls, d)
		}
	}
	var rest Token
	for !p.done {
		p.fill(&rest)
	}
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// fill stores the next token in t, or EOF at the last token's position
// once input or a lexical error has ended the stream.
func (p *Parser) fill(t *Token) {
	if !p.done {
		err := p.lx.scan(t)
		if err == nil && t.Kind != EOF {
			return
		}
		p.err, p.done = err, true
	}
	*t = Token{Kind: EOF, Pos: p.lx.lastPos()}
}

func (p *Parser) atEOF() bool { return p.kind() == EOF }

func (p *Parser) cur() Token { return p.la[0] }

// kind is the current token's kind.
func (p *Parser) kind() Tok { return p.la[0].Kind }

func (p *Parser) peekKind(ahead int) Tok {
	for ; p.n <= ahead; p.n++ {
		p.fill(&p.la[p.n])
	}
	return p.la[ahead].Kind
}

func (p *Parser) next() Token {
	t := p.la[0]
	p.advance()
	return t
}

// advance drops the current token.
func (p *Parser) advance() {
	if p.n--; p.n == 0 {
		p.fill(&p.la[0])
		p.n = 1
	} else {
		copy(p.la[:], p.la[1:p.n+1])
	}
}

func (p *Parser) accept(k Tok) bool {
	if p.kind() == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Tok) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, p.errorf("expected %s, found %s", k, describe(t))
	}
	p.advance()
	return t, nil
}

func describe(t Token) string {
	switch t.Kind {
	case IDENT, INT:
		return fmt.Sprintf("%q", t.Lit)
	case STRING:
		return "string literal"
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

func (p *Parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	switch p.kind() {
	case KwInt, KwChar, KwVoid, KwFn, KwStruct:
		return true
	}
	return false
}

// parseType parses a base type plus pointer stars: "int", "char **",
// "struct pkt *", "fn", "void *".
func (p *Parser) parseType() (Type, error) {
	var t Type
	switch p.kind() {
	case KwInt:
		p.advance()
		t = TypeInt
	case KwChar:
		p.advance()
		t = TypeChar
	case KwVoid:
		p.advance()
		t = TypeVoid
	case KwFn:
		p.advance()
		t = TypeFn
	case KwStruct:
		p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		t = &StructType{Name: name.Lit}
	default:
		return nil, p.errorf("expected type, found %s", describe(p.cur()))
	}
	for p.accept(STAR) {
		t = &Pointer{Elem: t}
	}
	return t, nil
}

func (p *Parser) parseTopDecl() (Decl, error) {
	start := p.cur().Pos
	// struct definition: "struct Name { ... };"
	if p.kind() == KwStruct && p.peekKind(1) == IDENT && p.peekKind(2) == LBRACE {
		return p.parseStructDecl()
	}
	static := false
	extern := false
	for {
		if p.accept(KwStatic) {
			static = true
			continue
		}
		if p.accept(KwExtern) {
			extern = true
			continue
		}
		break
	}
	if static && extern {
		return nil, &ParseError{Pos: start, Msg: "declaration cannot be both static and extern"}
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.kind() == LPAREN {
		return p.parseFuncRest(start, typ, name.Lit, static, extern)
	}
	return p.parseVarRest(start, typ, name.Lit, static, extern)
}

func (p *Parser) parseStructDecl() (Decl, error) {
	start := p.cur().Pos
	p.advance() // struct
	name := p.next()
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	var fields []Field
	seen := map[string]bool{}
	for !p.accept(RBRACE) {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if seen[fn.Lit] {
			return nil, &ParseError{Pos: fn.Pos, Msg: fmt.Sprintf("duplicate field %q in struct %s", fn.Lit, name.Lit)}
		}
		seen[fn.Lit] = true
		if p.accept(LBRACK) {
			n, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			length, err := strconv.Atoi(n.Lit)
			if err != nil || length <= 0 {
				return nil, &ParseError{Pos: n.Pos, Msg: "invalid array length"}
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			ft = &Array{Elem: ft, Len: length}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: fn.Lit, Type: ft})
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &StructDecl{Pos: start, Name: name.Lit, Fields: fields}, nil
}

func (p *Parser) parseVarRest(start Pos, typ Type, name string, static, extern bool) (Decl, error) {
	if p.accept(LBRACK) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		length, err := strconv.Atoi(n.Lit)
		if err != nil || length <= 0 {
			return nil, &ParseError{Pos: n.Pos, Msg: "invalid array length"}
		}
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
		typ = &Array{Elem: typ, Len: length}
	}
	d := &VarDecl{Pos: start, Name: name, Type: typ, Static: static, Extern: extern}
	if p.accept(ASSIGN) {
		if extern {
			return nil, &ParseError{Pos: start, Msg: fmt.Sprintf("extern variable %q cannot have an initializer", name)}
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFuncRest(start Pos, result Type, name string, static, extern bool) (Decl, error) {
	p.advance() // (
	var params []Param
	if !p.accept(RPAREN) {
		if p.kind() == KwVoid && p.peekKind(1) == RPAREN {
			p.advance() // void
			p.advance() // )
		} else {
			for {
				pt, err := p.parseType()
				if err != nil {
					return nil, err
				}
				pn, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				params = append(params, Param{Name: pn.Lit, Type: pt})
				if p.accept(COMMA) {
					continue
				}
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	d := &FuncDecl{Pos: start, Name: name, Params: params, Result: result, Static: static, Extern: extern}
	if p.accept(SEMI) {
		// Prototype. Treat a bare prototype as extern (an import) unless
		// marked static, matching how component C code declares imports.
		if !static {
			d.Extern = true
		}
		return d, nil
	}
	if extern {
		return nil, &ParseError{Pos: start, Msg: fmt.Sprintf("extern function %q cannot have a body", name)}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	d.Body = body
	return d, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	start := p.cur().Pos
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	b := &Block{Pos: start}
	for !p.accept(RBRACE) {
		if p.atEOF() {
			return nil, &ParseError{Pos: start, Msg: "unterminated block"}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	start := p.cur().Pos
	switch p.kind() {
	case LBRACE:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwWhile:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: start, Cond: cond, Body: body}, nil
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.advance()
		s := &ReturnStmt{Pos: start}
		if p.kind() != SEMI {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.X = x
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	case KwBreak:
		p.advance()
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: start}, nil
	case KwContinue:
		p.advance()
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: start}, nil
	}
	if p.isTypeStart() {
		return p.parseDeclStmt()
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: start, X: x}, nil
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	start := p.cur().Pos
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.accept(LBRACK) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		length, err := strconv.Atoi(n.Lit)
		if err != nil || length <= 0 {
			return nil, &ParseError{Pos: n.Pos, Msg: "invalid array length"}
		}
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
		typ = &Array{Elem: typ, Len: length}
	}
	d := &DeclStmt{Pos: start, Name: name.Lit, Type: typ}
	if p.accept(ASSIGN) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	start := p.cur().Pos
	p.advance() // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: start, Cond: cond, Then: then}
	if p.accept(KwElse) {
		if p.kind() == KwIf {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = elseIf
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
	}
	return s, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	start := p.cur().Pos
	p.advance() // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	s := &ForStmt{Pos: start}
	if !p.accept(SEMI) {
		if p.isTypeStart() {
			init, err := p.parseDeclStmt() // consumes the ;
			if err != nil {
				return nil, err
			}
			s.Init = init
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Init = &ExprStmt{Pos: x.ExprPos(), X: x}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
		}
	}
	if !p.accept(SEMI) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
	}
	if !p.accept(RPAREN) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Post = post
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// Expression parsing: precedence climbing.

// binPrec is each binary operator's precedence, indexed by token; zero
// for tokens that are not binary operators.
var binPrec = [...]int{
	LOR:   1,
	LAND:  2,
	PIPE:  3,
	CARET: 4,
	AMP:   5,
	EQ:    6, NE: 6,
	LT: 7, GT: 7, LE: 7, GE: 7,
	SHL: 8, SHR: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *Parser) parseAssign() (Expr, error) {
	lhs, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	// ASSIGN and the compound assignments ADDEQ..SHREQ are contiguous.
	if k := p.kind(); k >= ASSIGN && k <= SHREQ {
		pos := p.next().Pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if !isLvalue(lhs) {
			return nil, &ParseError{Pos: pos, Msg: "left side of assignment is not assignable"}
		}
		return &Assign{Pos: pos, Op: k, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident, *Index, *Member:
		return true
	case *Unary:
		return x.Op == STAR
	}
	return false
}

func (p *Parser) parseCond() (Expr, error) {
	c, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.kind() == QUESTION {
		pos := p.next().Pos
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		els, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		return &Cond{Pos: pos, C: c, Then: then, Else: els}, nil
	}
	return c, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.kind()
		prec := 0
		if int(op) < len(binPrec) {
			prec = binPrec[op]
		}
		if prec < minPrec { // minPrec >= 1 also stops at non-operators
			return lhs, nil
		}
		pos := p.next().Pos
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: pos, Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case MINUS, NOT, TILDE, STAR, AMP:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Kind == AMP && !isAddressable(x) {
			return nil, &ParseError{Pos: t.Pos, Msg: "cannot take address of expression"}
		}
		return &Unary{Pos: t.Pos, Op: t.Kind, X: x}, nil
	case KwSizeof:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &SizeofExpr{Pos: t.Pos, Type: typ}, nil
	}
	return p.parsePostfix()
}

func isAddressable(e Expr) bool {
	switch x := e.(type) {
	case *Ident, *Index, *Member:
		return true
	case *Unary:
		return x.Op == STAR
	}
	return false
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Kind {
		case LPAREN:
			p.advance()
			var args []Expr
			if !p.accept(RPAREN) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.accept(COMMA) {
						continue
					}
					if _, err := p.expect(RPAREN); err != nil {
						return nil, err
					}
					break
				}
			}
			x = &Call{Pos: t.Pos, Fun: x, Args: args}
		case LBRACK:
			p.advance()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			x = &Index{Pos: t.Pos, X: x, I: i}
		case ARROW:
			p.advance()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: t.Pos, X: x, Name: name.Lit, Arrow: true}
		case DOT:
			p.advance()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: t.Pos, X: x, Name: name.Lit}
		case INC, DEC:
			p.advance()
			if !isLvalue(x) {
				return nil, &ParseError{Pos: t.Pos, Msg: "operand of ++/-- is not assignable"}
			}
			x = &IncDec{Pos: t.Pos, Op: t.Kind, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INT:
		p.advance()
		v, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			return nil, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("invalid integer literal %q", t.Lit)}
		}
		return &IntLit{Pos: t.Pos, Val: v}, nil
	case CHAR:
		p.advance()
		return &IntLit{Pos: t.Pos, Val: int64(t.Lit[0])}, nil
	case STRING:
		p.advance()
		return &StrLit{Pos: t.Pos, Val: t.Lit}, nil
	case KwNull:
		p.advance()
		return &IntLit{Pos: t.Pos, Val: 0}, nil
	case IDENT:
		p.advance()
		return &Ident{Pos: t.Pos, Name: t.Lit}, nil
	case LPAREN:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errorf("expected expression, found %s", describe(t))
}
