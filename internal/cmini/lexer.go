package cmini

import (
	"fmt"
	"strings"
)

// Lexer turns cmini source text into a stream of tokens.
type Lexer struct {
	file      string
	src       string
	off       int
	line      int
	lineStart int // offset of the current line's first byte
	// lastLine and lastCol locate the last token scanned.
	lastLine, lastCol int
}

// NewLexer returns a lexer over src. The file name is used in positions
// and diagnostics only.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, lastLine: 1, lastCol: 1}
}

// LexError is a lexical error with a source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) pos() Pos {
	return Pos{File: l.file, Line: l.line, Col: l.off - l.lineStart + 1}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.lineStart = l.off
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == '\n':
			l.off++
			l.line, l.lineStart = l.line+1, l.off
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '/' && l.peek2() == '/':
			if n := strings.IndexByte(l.src[l.off:], '\n'); n >= 0 {
				l.off += n
			} else {
				l.off = len(l.src)
			}
		case c == '/' && l.peek2() == '*':
			n := strings.Index(l.src[l.off+2:], "*/")
			if n < 0 {
				return &LexError{Pos: l.pos(), Msg: "unterminated block comment"}
			}
			end := l.off + n + 4
			if comment := l.src[l.off:end]; strings.Contains(comment, "\n") {
				l.line += strings.Count(comment, "\n")
				l.lineStart = l.off + strings.LastIndexByte(comment, '\n') + 1
			}
			l.off = end
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	var t Token
	err := l.scan(&t)
	return t, err
}

// lastPos is the position of the last token scanned, or 1:1 if none.
func (l *Lexer) lastPos() Pos { return Pos{File: l.file, Line: l.lastLine, Col: l.lastCol} }

// scan stores the next token in t, filling it in place: a Token is
// large enough that passing it back by value shows in parse time.
func (l *Lexer) scan(t *Token) error {
	if err := l.skipSpaceAndComments(); err != nil {
		return err
	}
	t.Pos = l.pos()
	if l.off >= len(l.src) {
		t.Kind, t.Lit = EOF, ""
		return nil
	}
	l.lastLine, l.lastCol = t.Pos.Line, t.Pos.Col
	c := l.src[l.off]
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
			l.off++
		}
		word := l.src[start:l.off]
		t.Kind, t.Lit = keyword(word), word
		return nil
	case isDigit(c):
		start := l.off
		hex := false
		if c == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			hex = true
			l.off += 2
		}
		for l.off < len(l.src) {
			c := l.src[l.off]
			if isDigit(c) || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))) {
				l.off++
			} else {
				break
			}
		}
		t.Kind, t.Lit = INT, l.src[start:l.off]
		return nil
	case c == '"':
		return l.lexString(t)
	case c == '\'':
		return l.lexChar(t)
	}
	k, n := operator(l.src[l.off:])
	if n == 0 {
		return &LexError{Pos: t.Pos, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
	l.off += n
	t.Kind, t.Lit = k, ""
	return nil
}

func (l *Lexer) lexString(t *Token) error {
	p := t.Pos
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return &LexError{Pos: p, Msg: "unterminated string literal"}
		}
		c := l.advance()
		if c == '"' {
			t.Kind, t.Lit = STRING, b.String()
			return nil
		}
		if c == '\\' {
			if l.off >= len(l.src) {
				return &LexError{Pos: p, Msg: "unterminated string escape"}
			}
			e, err := unescape(l.advance())
			if err != nil {
				return &LexError{Pos: p, Msg: err.Error()}
			}
			b.WriteByte(e)
			continue
		}
		if c == '\n' {
			return &LexError{Pos: p, Msg: "newline in string literal"}
		}
		b.WriteByte(c)
	}
}

func (l *Lexer) lexChar(t *Token) error {
	p := t.Pos
	l.advance() // opening quote
	if l.off >= len(l.src) {
		return &LexError{Pos: p, Msg: "unterminated char literal"}
	}
	c := l.advance()
	if c == '\\' {
		if l.off >= len(l.src) {
			return &LexError{Pos: p, Msg: "unterminated char escape"}
		}
		e, err := unescape(l.advance())
		if err != nil {
			return &LexError{Pos: p, Msg: err.Error()}
		}
		c = e
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return &LexError{Pos: p, Msg: "unterminated char literal"}
	}
	t.Kind, t.Lit = CHAR, string(c)
	return nil
}

func unescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unknown escape \\%c", c)
}

// operator returns the longest operator that s starts with and its
// length, or length 0 if s starts with none.
func operator(s string) (Tok, int) {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	// eq picks the "op=" form when s continues with '='.
	eq := func(long, short Tok) (Tok, int) {
		if c1 == '=' {
			return long, 2
		}
		return short, 1
	}
	switch s[0] {
	case '(':
		return LPAREN, 1
	case ')':
		return RPAREN, 1
	case '{':
		return LBRACE, 1
	case '}':
		return RBRACE, 1
	case '[':
		return LBRACK, 1
	case ']':
		return RBRACK, 1
	case ';':
		return SEMI, 1
	case ',':
		return COMMA, 1
	case '~':
		return TILDE, 1
	case '?':
		return QUESTION, 1
	case ':':
		return COLON, 1
	case '.':
		return DOT, 1
	case '=':
		return eq(EQ, ASSIGN)
	case '!':
		return eq(NE, NOT)
	case '*':
		return eq(MULEQ, STAR)
	case '/':
		return eq(DIVEQ, SLASH)
	case '%':
		return eq(MODEQ, PERCENT)
	case '^':
		return eq(XOREQ, CARET)
	case '+':
		if c1 == '+' {
			return INC, 2
		}
		return eq(ADDEQ, PLUS)
	case '-':
		switch c1 {
		case '-':
			return DEC, 2
		case '>':
			return ARROW, 2
		}
		return eq(SUBEQ, MINUS)
	case '&':
		if c1 == '&' {
			return LAND, 2
		}
		return eq(ANDEQ, AMP)
	case '|':
		if c1 == '|' {
			return LOR, 2
		}
		return eq(OREQ, PIPE)
	case '<':
		switch {
		case c1 == '<' && c2 == '=':
			return SHLEQ, 3
		case c1 == '<':
			return SHL, 2
		}
		return eq(LE, LT)
	case '>':
		switch {
		case c1 == '>' && c2 == '=':
			return SHREQ, 3
		case c1 == '>':
			return SHR, 2
		}
		return eq(GE, GT)
	}
	return EOF, 0
}

// LexAll tokenizes the whole input, returning every token up to and
// excluding EOF.
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	// C sources run a little over three bytes per token.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
