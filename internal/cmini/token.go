// Package cmini implements the C subset in which Knit components are
// written: a lexer, parser, AST, and source printer.
//
// The language covers the features Knit manipulates when it links and
// flattens components — global functions and variables, static (file-local)
// definitions, extern declarations (imports), structs, arrays, pointers,
// strings, and the usual expression and statement forms. It deliberately
// omits the parts of C that do not matter for component composition
// (typedefs, unions, bitfields, varargs beyond printf-style builtins,
// preprocessor).
//
// The memory model is word-oriented: every scalar (int, char, pointer,
// function pointer) occupies one word, struct fields and array elements are
// laid out in consecutive words, and sizeof counts words. This keeps the
// compiler and simulated machine simple without changing anything Knit
// cares about.
package cmini

import "fmt"

// Tok identifies a lexical token kind.
type Tok int

// Token kinds.
const (
	EOF Tok = iota
	IDENT
	INT    // integer literal
	CHAR   // character literal
	STRING // string literal

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	ASSIGN   // =
	ADDEQ    // +=
	SUBEQ    // -=
	MULEQ    // *=
	DIVEQ    // /=
	MODEQ    // %=
	ANDEQ    // &=
	OREQ     // |=
	XOREQ    // ^=
	SHLEQ    // <<=
	SHREQ    // >>=
	INC      // ++
	DEC      // --
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	AMP      // &
	PIPE     // |
	CARET    // ^
	TILDE    // ~
	NOT      // !
	SHL      // <<
	SHR      // >>
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQ       // ==
	NE       // !=
	LAND     // &&
	LOR      // ||
	QUESTION // ?
	COLON    // :
	ARROW    // ->
	DOT      // .

	// Keywords.
	KwInt
	KwChar
	KwVoid
	KwFn // function-pointer type (cmini extension replacing C's fn-ptr syntax)
	KwStruct
	KwStatic
	KwExtern
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSizeof
	KwNull
)

var tokNames = map[Tok]string{
	EOF: "EOF", IDENT: "identifier", INT: "int literal", CHAR: "char literal",
	STRING: "string literal",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[",
	RBRACK: "]", SEMI: ";", COMMA: ",", ASSIGN: "=", ADDEQ: "+=",
	SUBEQ: "-=", MULEQ: "*=", DIVEQ: "/=", MODEQ: "%=", ANDEQ: "&=",
	OREQ: "|=", XOREQ: "^=", SHLEQ: "<<=", SHREQ: ">>=", INC: "++",
	DEC: "--", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	AMP: "&", PIPE: "|", CARET: "^", TILDE: "~", NOT: "!", SHL: "<<",
	SHR: ">>", LT: "<", GT: ">", LE: "<=", GE: ">=", EQ: "==", NE: "!=",
	LAND: "&&", LOR: "||", QUESTION: "?", COLON: ":", ARROW: "->", DOT: ".",
	KwInt: "int", KwChar: "char", KwVoid: "void", KwFn: "fn",
	KwStruct: "struct", KwStatic: "static", KwExtern: "extern", KwIf: "if",
	KwElse: "else", KwWhile: "while", KwFor: "for", KwReturn: "return",
	KwBreak: "break", KwContinue: "continue", KwSizeof: "sizeof",
	KwNull: "NULL",
}

// String returns a human-readable name for the token kind.
func (t Tok) String() string {
	if s, ok := tokNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Tok(%d)", int(t))
}

// keyword returns the keyword token spelled word, or IDENT.
func keyword(word string) Tok {
	switch word {
	case "int":
		return KwInt
	case "char":
		return KwChar
	case "void":
		return KwVoid
	case "fn":
		return KwFn
	case "struct":
		return KwStruct
	case "static":
		return KwStatic
	case "extern":
		return KwExtern
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "for":
		return KwFor
	case "return":
		return KwReturn
	case "break":
		return KwBreak
	case "continue":
		return KwContinue
	case "sizeof":
		return KwSizeof
	case "NULL":
		return KwNull
	}
	return IDENT
}

// Pos is a source position within a named file.
type Pos struct {
	File string
	Line int
	Col  int
}

// String formats the position as file:line:col.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexed token with its position and literal text.
type Token struct {
	Kind Tok
	Lit  string // literal text for IDENT, INT, CHAR, STRING
	Pos  Pos
}
