package tcl

import "fmt"

// The parser converts script text into commands made of words, where each
// word is either literal text or a sequence of parts: literal text,
// variable references, or nested scripts (bracket command substitution).
// Substitution itself happens at evaluation time, so the same parsed
// structure yields different words as variables change. Literal text that
// contains no backslash escape is a substring of the script, never a copy.

type partKind int

const (
	partLiteral partKind = iota
	partVar              // $name or ${name}
	partScript           // [script]
)

type wordPart struct {
	kind partKind
	text string
}

// word is one parsed command word. A word without substitutions is just
// its text; parts is nil then, which keeps compiled scripts small.
type word struct {
	text  string
	parts []wordPart
}

// makeWord builds a word from its parts, folding a lone literal part (or
// no part at all) into a literal word.
func makeWord(parts []wordPart) word {
	switch {
	case len(parts) == 0:
		return word{}
	case len(parts) == 1 && parts[0].kind == partLiteral:
		return word{text: parts[0].text}
	}
	return word{parts: parts}
}

// literal accumulates a run of literal text while a word is parsed. As
// long as the run holds no backslash escape it is the source span
// [start, end); the first escape copies it into buf.
type literal struct {
	start, end int
	buf        []byte
	copied     bool
}

// plain adds the source byte at pos, consumed verbatim.
func (l *literal) plain(src string, pos int) {
	switch {
	case l.copied:
		l.buf = append(l.buf, src[pos])
	case l.start == l.end:
		l.start, l.end = pos, pos+1
	default:
		l.end = pos + 1
	}
}

// escaped adds the replacement text of a backslash sequence.
func (l *literal) escaped(src, s string) {
	if !l.copied {
		l.buf = append(l.buf[:0], src[l.start:l.end]...)
		l.copied = true
	}
	l.buf = append(l.buf, s...)
}

// flush appends the pending run to parts as a literal part and resets it.
func (l *literal) flush(src string, parts []wordPart) []wordPart {
	if !l.copied && l.start == l.end {
		return parts
	}
	text := src[l.start:l.end]
	if l.copied {
		text = string(l.buf)
	}
	l.start, l.end, l.buf, l.copied = 0, 0, l.buf[:0], false
	return append(parts, wordPart{kind: partLiteral, text: text})
}

type parser struct {
	text string
	pos  int
}

func newParser(text string) *parser { return &parser{text: text} }

func (p *parser) eof() bool { return p.pos >= len(p.text) }

func (p *parser) peek() byte { return p.text[p.pos] }

// skipSeparators consumes spaces, tabs and backslash-newline continuations.
func (p *parser) skipSeparators() {
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' {
			p.pos++
			continue
		}
		if c == '\\' && p.pos+1 < len(p.text) && p.text[p.pos+1] == '\n' {
			p.pos += 2
			continue
		}
		return
	}
}

// atTerminator reports whether the parser sits at a command terminator.
func (p *parser) atTerminator() bool {
	if p.eof() {
		return true
	}
	c := p.peek()
	return c == '\n' || c == ';' || c == '\r'
}

// parseCommand parses the next command. ok is false at EOF. Empty
// commands (blank lines, comments) are skipped, so a returned command
// always has at least one word.
func (p *parser) parseCommand() (cmd command, ok bool, err error) {
	for {
		p.skipSeparators()
		if p.eof() {
			return command{}, false, nil
		}
		c := p.peek()
		if c == '\n' || c == '\r' || c == ';' {
			p.pos++
			continue
		}
		if c == '#' {
			p.skipComment()
			continue
		}
		break
	}

	start := p.pos
	for {
		p.skipSeparators()
		if p.atTerminator() {
			cmd.src = p.text[start:p.pos]
			if !p.eof() {
				p.pos++ // consume terminator
			}
			return cmd, true, nil
		}
		w, err := p.parseWord()
		if err != nil {
			return command{}, false, err
		}
		cmd.words = append(cmd.words, w)
	}
}

func (p *parser) skipComment() {
	for !p.eof() {
		c := p.peek()
		if c == '\\' && p.pos+1 < len(p.text) && p.text[p.pos+1] == '\n' {
			p.pos += 2
			continue
		}
		p.pos++
		if c == '\n' {
			return
		}
	}
}

func (p *parser) parseWord() (word, error) {
	switch p.peek() {
	case '{':
		return p.parseBracedWord()
	case '"':
		return p.parseQuotedWord()
	default:
		return p.parseBareWord()
	}
}

// parseBracedWord parses {...}: the content is literal, with no
// substitution. Braces nest; backslash-newline inside is preserved.
func (p *parser) parseBracedWord() (word, error) {
	start := p.pos
	p.pos++ // consume {
	depth := 1
	contentStart := p.pos
	for !p.eof() {
		c := p.peek()
		switch c {
		case '\\':
			// A backslash quotes the next character (notably \{ and \}).
			if p.pos+1 < len(p.text) {
				p.pos += 2
				continue
			}
			p.pos++
		case '{':
			depth++
			p.pos++
		case '}':
			depth--
			p.pos++
			if depth == 0 {
				content := p.text[contentStart : p.pos-1]
				if !p.eof() && !p.atWordBoundary() {
					return word{}, fmt.Errorf("extra characters after close-brace at offset %d", p.pos)
				}
				return word{text: content}, nil
			}
		default:
			p.pos++
		}
	}
	return word{}, fmt.Errorf("missing close-brace for brace at offset %d", start)
}

// atWordBoundary reports whether the current position may legally follow a
// closing brace or quote: whitespace, terminator, or EOF.
func (p *parser) atWordBoundary() bool {
	if p.eof() {
		return true
	}
	c := p.peek()
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' ||
		(c == '\\' && p.pos+1 < len(p.text) && p.text[p.pos+1] == '\n')
}

// parseQuotedWord parses "...": substitutions apply, spaces are literal.
func (p *parser) parseQuotedWord() (word, error) {
	start := p.pos
	p.pos++ // consume "
	parts, err := p.parseParts(func(p *parser) bool { return p.peek() == '"' })
	if err != nil {
		return word{}, err
	}
	if p.eof() {
		return word{}, fmt.Errorf("missing close-quote for quote at offset %d", start)
	}
	p.pos++ // consume "
	if !p.atWordBoundary() {
		return word{}, fmt.Errorf("extra characters after close-quote at offset %d", p.pos)
	}
	return makeWord(parts), nil
}

// parseBareWord parses an unquoted word, ending at whitespace, a command
// terminator, or a backslash-newline continuation (which ends the word
// like whitespace).
func (p *parser) parseBareWord() (word, error) {
	parts, err := p.parseParts((*parser).atWordBoundary)
	if err != nil {
		return word{}, err
	}
	return makeWord(parts), nil
}

// parseParts scans substitutable text — literal runs, $variables,
// [scripts] and backslash escapes — until atEnd reports true or the text
// runs out.
func (p *parser) parseParts(atEnd func(*parser) bool) ([]wordPart, error) {
	var parts []wordPart
	var lit literal
	for !p.eof() && !atEnd(p) {
		switch p.peek() {
		case '$':
			parts = lit.flush(p.text, parts)
			part, err := p.parseVariable()
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		case '[':
			parts = lit.flush(p.text, parts)
			part, err := p.parseBracket()
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		case '\\':
			lit.escaped(p.text, p.parseEscape())
		default:
			lit.plain(p.text, p.pos)
			p.pos++
		}
	}
	return lit.flush(p.text, parts), nil
}

// parseVariable parses $name or ${name}. A bare $ with no name is literal.
func (p *parser) parseVariable() (wordPart, error) {
	p.pos++ // consume $
	if p.eof() {
		return wordPart{kind: partLiteral, text: "$"}, nil
	}
	if p.peek() == '{' {
		p.pos++
		start := p.pos
		for !p.eof() && p.peek() != '}' {
			p.pos++
		}
		if p.eof() {
			return wordPart{}, fmt.Errorf("missing close-brace for variable name at offset %d", start)
		}
		name := p.text[start:p.pos]
		p.pos++ // consume }
		return wordPart{kind: partVar, text: name}, nil
	}
	start := p.pos
	for !p.eof() && isVarChar(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		return wordPart{kind: partLiteral, text: "$"}, nil
	}
	return wordPart{kind: partVar, text: p.text[start:p.pos]}, nil
}

func isVarChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// parseBracket parses [script] into a script part. Nested brackets balance;
// braces inside are respected so that `[lindex {a ]} 0]` parses correctly.
func (p *parser) parseBracket() (wordPart, error) {
	start := p.pos
	p.pos++ // consume [
	depth := 1
	contentStart := p.pos
	braceDepth := 0
	for !p.eof() {
		c := p.peek()
		switch c {
		case '\\':
			if p.pos+1 < len(p.text) {
				p.pos += 2
				continue
			}
			p.pos++
		case '{':
			braceDepth++
			p.pos++
		case '}':
			if braceDepth > 0 {
				braceDepth--
			}
			p.pos++
		case '[':
			if braceDepth == 0 {
				depth++
			}
			p.pos++
		case ']':
			if braceDepth == 0 {
				depth--
				if depth == 0 {
					content := p.text[contentStart:p.pos]
					p.pos++
					return wordPart{kind: partScript, text: content}, nil
				}
			}
			p.pos++
		default:
			p.pos++
		}
	}
	return wordPart{}, fmt.Errorf("missing close-bracket for bracket at offset %d", start)
}

// parseEscape consumes a backslash sequence and returns its replacement text.
func (p *parser) parseEscape() string {
	p.pos++ // consume backslash
	if p.eof() {
		return "\\"
	}
	c := p.peek()
	p.pos++
	switch c {
	case 'n':
		return "\n"
	case 't':
		return "\t"
	case 'r':
		return "\r"
	case '\n':
		// Backslash-newline plus following whitespace collapses to a space.
		for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
			p.pos++
		}
		return " "
	default:
		return string(c)
	}
}

// Script is a compiled script: the words of each command, parsed but not
// yet substituted, so evaluating it again skips the parse. Words point
// into the source text. A Script is immutable once compiled, so any number
// of interpreters may evaluate it, concurrently too.
type Script struct {
	cmds []command
	// err is the parse error that ended compilation after cmds. Like a
	// script interpreted command by command, EvalScript reports it only
	// once the commands before it have run.
	err error
}

// command is one compiled command.
type command struct {
	src   string // source text, terminator excluded
	words []word
}

// Compile parses a script for evaluation with Interp.EvalScript. It never
// fails: a parse error is kept in the Script, in its place after the
// commands that parsed.
func Compile(text string) *Script {
	p := newParser(text)
	s := &Script{}
	for {
		cmd, ok, err := p.parseCommand()
		if err != nil {
			s.err = err
			return s
		}
		if !ok {
			return s
		}
		s.cmds = append(s.cmds, cmd)
	}
}

// Err returns the script's parse error, if any.
func (s *Script) Err() error { return s.err }

// Len returns the number of commands that parsed.
func (s *Script) Len() int { return len(s.cmds) }

// Command returns a script holding only command i. It shares s's parsed
// words.
func (s *Script) Command(i int) *Script { return &Script{cmds: s.cmds[i : i+1 : i+1]} }

// Source returns command i's source text, without its terminator.
func (s *Script) Source(i int) string { return s.cmds[i].src }

// LiteralWords returns the words of a one-command script whose words are
// all literal: no $ or [] substitution is left for evaluation, so they are
// the words EvalScript would pass to the command. ok is false for any
// other script.
func (s *Script) LiteralWords() (words []string, ok bool) {
	if len(s.cmds) != 1 || s.err != nil {
		return nil, false
	}
	raw := s.cmds[0].words
	words = make([]string, len(raw))
	for i, w := range raw {
		if w.parts != nil {
			return nil, false
		}
		words[i] = w.text
	}
	return words, true
}

// SplitCommands splits a script into its top-level commands' raw texts
// without evaluating them: the Source of each command Compile parses.
func SplitCommands(script string) ([]string, error) {
	s := Compile(script)
	if s.err != nil {
		return nil, s.err
	}
	out := make([]string, len(s.cmds))
	for i := range s.cmds {
		out[i] = s.cmds[i].src
	}
	return out, nil
}

// parseSubstWord parses free text (not a command word) into a word, used
// by Subst and expr: $, [] and backslash substitutions apply, everything
// else is literal.
func parseSubstWord(text string) (word, error) {
	parts, err := newParser(text).parseParts(func(*parser) bool { return false })
	if err != nil {
		return word{}, err
	}
	return makeWord(parts), nil
}
