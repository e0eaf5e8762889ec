// Package lang implements the Knit unit-definition language: bundle
// types, atomic and compound units, dependency and rename declarations,
// initializers/finalizers, properties, and constraints — the concrete
// syntax of the paper's Section 3.3 and Section 4.
package lang

import (
	"fmt"
	"strings"
)

// Tok is a lexical token kind in the unit language.
type Tok int

// Token kinds.
const (
	EOF Tok = iota
	IDENT
	STRING

	LBRACE // {
	RBRACE // }
	LBRACK // [
	RBRACK // ]
	LPAREN // (
	RPAREN // )
	SEMI   // ;
	COMMA  // ,
	COLON  // :
	DOT    // .
	PLUS   // +
	EQ     // =
	LE     // <=
	GE     // >=
	LT     // <
	LARROW // <-

	// Keywords.
	KwBundletype
	KwFlags
	KwUnit
	KwImports
	KwExports
	KwDepends
	KwNeeds
	KwFiles
	KwWith
	KwRename
	KwTo
	KwInitializer
	KwFinalizer
	KwFor
	KwConstraints
	KwLink
	KwProperty
	KwType
	KwFallback
)

var tokNames = map[Tok]string{
	EOF: "EOF", IDENT: "identifier", STRING: "string",
	LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]", LPAREN: "(",
	RPAREN: ")", SEMI: ";", COMMA: ",", COLON: ":", DOT: ".", PLUS: "+",
	EQ: "=", LE: "<=", GE: ">=", LT: "<", LARROW: "<-",
	KwBundletype: "bundletype", KwFlags: "flags", KwUnit: "unit",
	KwImports: "imports", KwExports: "exports", KwDepends: "depends",
	KwNeeds: "needs", KwFiles: "files", KwWith: "with", KwRename: "rename",
	KwTo: "to", KwInitializer: "initializer", KwFinalizer: "finalizer",
	KwFor: "for", KwConstraints: "constraints", KwLink: "link",
	KwProperty: "property", KwType: "type", KwFallback: "fallback",
}

func (t Tok) String() string {
	if s, ok := tokNames[t]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(t))
}

// keyword returns the keyword token spelled word, or IDENT.
func keyword(word string) Tok {
	switch word {
	case "bundletype":
		return KwBundletype
	case "flags":
		return KwFlags
	case "unit":
		return KwUnit
	case "imports":
		return KwImports
	case "exports":
		return KwExports
	case "depends":
		return KwDepends
	case "needs":
		return KwNeeds
	case "files":
		return KwFiles
	case "with":
		return KwWith
	case "rename":
		return KwRename
	case "to":
		return KwTo
	case "initializer":
		return KwInitializer
	case "finalizer":
		return KwFinalizer
	case "for":
		return KwFor
	case "constraints":
		return KwConstraints
	case "link":
		return KwLink
	case "property":
		return KwProperty
	case "type":
		return KwType
	case "fallback":
		return KwFallback
	}
	return IDENT
}

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is one lexed token.
type Token struct {
	Kind Tok
	Lit  string
	Pos  Pos
}

// Error is a lexical or syntax error in a unit file.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// lexer tokenizes a unit file on demand.
type lexer struct {
	file      string
	src       string
	i         int // offset of the next unread byte
	line      int
	lineStart int // offset of the current line's first byte
	// lastLine and lastCol locate the last token scanned.
	lastLine, lastCol int
}

func (lx *lexer) pos() Pos {
	return Pos{File: lx.file, Line: lx.line, Col: lx.i - lx.lineStart + 1}
}

// lastPos is the position of the last token scanned, or 1:1 if none.
func (lx *lexer) lastPos() Pos { return Pos{File: lx.file, Line: lx.lastLine, Col: lx.lastCol} }

// scan stores the next token in t, with Kind EOF at the end of the
// input. It fills t in place: a Token is large enough that passing it
// back by value shows in parse time.
func (lx *lexer) scan(t *Token) error {
	src := lx.src
	for lx.i < len(src) {
		c := src[lx.i]
		switch {
		case c == '\n':
			lx.i++
			lx.line, lx.lineStart = lx.line+1, lx.i
			continue
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
			continue
		case c == '/' && lx.i+1 < len(src) && src[lx.i+1] == '/':
			if n := strings.IndexByte(src[lx.i:], '\n'); n >= 0 {
				lx.i += n
			} else {
				lx.i = len(src)
			}
			continue
		case c == '/' && lx.i+1 < len(src) && src[lx.i+1] == '*':
			n := strings.Index(src[lx.i+2:], "*/")
			if n < 0 {
				return &Error{Pos: lx.pos(), Msg: "unterminated comment"}
			}
			body := src[lx.i : lx.i+2+n]
			if nl := strings.LastIndexByte(body, '\n'); nl >= 0 {
				lx.line += strings.Count(body, "\n")
				lx.lineStart = lx.i + nl + 1
			}
			lx.i += n + 4
			continue
		}
		t.Pos = lx.pos()
		lx.lastLine, lx.lastCol = t.Pos.Line, t.Pos.Col
		switch {
		case c == '"':
			start := lx.i + 1
			n := strings.IndexAny(src[start:], "\"\n")
			if n < 0 {
				return &Error{Pos: t.Pos, Msg: "unterminated string"}
			}
			if src[start+n] == '\n' {
				return &Error{Pos: t.Pos, Msg: "newline in string"}
			}
			lx.i = start + n + 1
			t.Kind, t.Lit = STRING, src[start:start+n]
		case isIdentStart(c):
			start := lx.i
			for lx.i < len(src) && isIdentCont(src[lx.i]) {
				lx.i++
			}
			word := src[start:lx.i]
			t.Kind, t.Lit = keyword(word), word
		default:
			k, n := punct(src[lx.i:])
			if n == 0 {
				return &Error{Pos: t.Pos, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			lx.i += n
			t.Kind, t.Lit = k, ""
		}
		return nil
	}
	t.Kind, t.Lit, t.Pos = EOF, "", lx.pos()
	return nil
}

// punct returns the punctuation token that s starts with and its
// length, or length 0 if s starts with none.
func punct(s string) (Tok, int) {
	if len(s) >= 2 {
		switch s[:2] {
		case "<-":
			return LARROW, 2
		case "<=":
			return LE, 2
		case ">=":
			return GE, 2
		}
	}
	switch s[0] {
	case '{':
		return LBRACE, 1
	case '}':
		return RBRACE, 1
	case '[':
		return LBRACK, 1
	case ']':
		return RBRACK, 1
	case '(':
		return LPAREN, 1
	case ')':
		return RPAREN, 1
	case ';':
		return SEMI, 1
	case ',':
		return COMMA, 1
	case ':':
		return COLON, 1
	case '.':
		return DOT, 1
	case '+':
		return PLUS, 1
	case '=':
		return EQ, 1
	case '<':
		return LT, 1
	}
	return EOF, 0
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
