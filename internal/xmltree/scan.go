package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// ParseError describes a syntax error in an XML input, with 1-based line and
// column of the offending position. Columns count bytes.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ParseOptions controls parsing behavior.
type ParseOptions struct {
	// TrimWhitespace drops text nodes that consist entirely of XML
	// whitespace. Document-generation templates are authored indented;
	// trimming matches how AWB read them.
	TrimWhitespace bool
	// KeepComments retains comment nodes; by default they are preserved.
	// Set DropComments to discard them instead.
	DropComments bool
	// MaxDepth bounds element nesting; 0 means DefaultMaxDepth, so
	// pathological input ("<a><a><a>…") fails with a ParseError instead of
	// building a tree too deep for the recursive walkers (Walk, the
	// serializer) to traverse.
	MaxDepth int
}

// DefaultMaxDepth is the element-nesting bound applied when
// ParseOptions.MaxDepth is zero. Far deeper than any real document.
const DefaultMaxDepth = 4000

// TokenKind classifies one event from the Scanner.
type TokenKind int

// The event kinds a Scanner emits. Self-closing elements emit a
// TokStartElement with SelfClose set followed by a synthetic TokEndElement,
// so consumers always see balanced start/end pairs.
const (
	TokStartElement TokenKind = iota
	TokEndElement
	TokText
	TokComment
	TokPI
	TokEOF
)

// ScanAttr is one attribute of a TokStartElement, in document order. Value
// is the decoded value, a view valid until the next call to Next or
// SkipElement.
type ScanAttr struct {
	Name  string
	Value []byte
}

// Token is one parse event. Name holds the element name (start/end) or PI
// target; it is interned per scan and stays valid. Data holds text,
// comment or PI data, and like every attribute value it is a read-only
// view into the scanner's window, valid only until the next call to Next
// or SkipElement: copy what you keep.
type Token struct {
	Kind      TokenKind
	Name      string
	Data      []byte
	Attrs     []ScanAttr
	SelfClose bool
}

// windowChunk is the reader window's refill size.
const windowChunk = 64 << 10

// Scanner is the one XML front end: an event tokenizer over a []byte
// window. An in-memory document is a single window; a reader refills it in
// windowChunk steps, keeping only the bytes of the token being scanned.
// Every tree builder (Parse, ParseFragment, ParseReader, ParseProjected)
// and the SAX evaluator sit on it, so they accept one language and report
// one set of *ParseError texts and positions.
//
// Markup is found with bytes.IndexByte/bytes.Index over the window, and
// line and column are derived from byte offsets only when an error needs
// them.
//
// A Scanner parses one complete document: optional XML declaration, misc
// items, one root element, trailing misc, then TokEOF forever. SkipElement
// consumes a just-opened element's subtree with full validation but hands
// out nothing — the pruning path of projection and of the SAX evaluator.
type Scanner struct {
	opts     ParseOptions
	maxDepth int

	// buf[pos:] is unread input. buf[mark:] survives a refill: mark is the
	// start of the token being scanned, and positions held across a refill
	// are kept relative to it.
	buf  []byte
	pos  int
	mark int
	// base is the input offset of buf[0].
	base int64
	// r is nil when buf holds the whole input.
	r    io.Reader
	rerr error

	// Line bookkeeping, synced lazily: offset lineAt lies on line number
	// line, which starts at offset lineStart.
	line      int
	lineStart int64
	lineAt    int64

	names map[string]string
	// stack holds the open element names.
	stack []string

	tok   Token
	attrs []ScanAttr
	spans []attrSpan
	// text collects a text run that crossed an entity or CDATA section;
	// vals holds decoded attribute values.
	text []byte
	vals []byte

	fragment  bool // ParseFragment: content at top level, no root rules
	begun     bool // XML-declaration window passed
	seenRoot  bool
	queuedEnd bool
	err       error

	elemsSkipped int64
}

// attrSpan locates one attribute value during a start tag: relative to
// mark in the window, or in vals when decoding rewrote it.
type attrSpan struct {
	name       string
	start, end int
	decoded    bool
}

// NewScanner returns a Scanner over r with the given options.
func NewScanner(r io.Reader, opts ParseOptions) *Scanner {
	s := newScanner(opts)
	s.r = r
	s.buf = make([]byte, 0, windowChunk)
	return s
}

// newStringScanner returns a Scanner whose single window is input itself.
// The window is never written, so aliasing the string's bytes is safe.
func newStringScanner(input string, opts ParseOptions) *Scanner {
	s := newScanner(opts)
	s.buf = unsafe.Slice(unsafe.StringData(input), len(input))
	return s
}

func newScanner(opts ParseOptions) *Scanner {
	s := &Scanner{opts: opts, maxDepth: opts.MaxDepth, line: 1, names: map[string]string{}}
	if s.maxDepth <= 0 {
		s.maxDepth = DefaultMaxDepth
	}
	return s
}

// BytesRead reports how many input bytes the scanner has consumed.
func (s *Scanner) BytesRead() int64 { return s.base + int64(s.pos) }

// ElementsSkipped reports how many elements SkipElement has consumed
// without handing them out (the projection layer's pruning counter).
func (s *Scanner) ElementsSkipped() int64 { return s.elemsSkipped }

// ---- window ----

// more reads input into the window, dropping the bytes before mark first.
// It reports whether any byte arrived.
func (s *Scanner) more() bool {
	if s.r == nil || s.rerr != nil {
		return false
	}
	if s.mark > 0 {
		s.syncLines(s.base + int64(s.mark))
		n := copy(s.buf, s.buf[s.mark:])
		s.buf = s.buf[:n]
		s.pos -= s.mark
		s.base += int64(s.mark)
		s.mark = 0
	}
	if cap(s.buf)-len(s.buf) < windowChunk/2 {
		// One token outgrew the window: widen it.
		grown := make([]byte, len(s.buf), 2*cap(s.buf)+windowChunk)
		copy(grown, s.buf)
		s.buf = grown
	}
	for {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
}

// avail reports whether n unread bytes are in the window, reading more as
// needed.
func (s *Scanner) avail(n int) bool {
	for len(s.buf)-s.pos < n {
		if !s.more() {
			return false
		}
	}
	return true
}

func (s *Scanner) peek() (byte, bool) {
	if s.pos < len(s.buf) || s.more() {
		return s.buf[s.pos], true
	}
	return 0, false
}

func (s *Scanner) hasPrefix(lit string) bool {
	return s.avail(len(lit)) && string(s.buf[s.pos:s.pos+len(lit)]) == lit
}

// find returns the window index of the first delim at or after window
// index from, reading more input as needed.
func (s *Scanner) find(delim []byte, from int) (int, bool) {
	rel := from - s.mark
	for {
		from = s.mark + rel
		if i := bytes.Index(s.buf[from:], delim); i >= 0 {
			return from + i, true
		}
		// A match may straddle the refill: resume len(delim)-1 back.
		rel = max(rel, len(s.buf)-s.mark-len(delim)+1)
		if !s.more() {
			return 0, false
		}
	}
}

func (s *Scanner) skipSpace() {
	for {
		for s.pos < len(s.buf) {
			switch s.buf[s.pos] {
			case ' ', '\t', '\r', '\n':
				s.pos++
			default:
				return
			}
		}
		if !s.more() {
			return
		}
	}
}

// ---- positions and errors ----

// syncLines advances the line bookkeeping to input offset at, which must
// still be in the window.
func (s *Scanner) syncLines(at int64) {
	if at < s.lineAt {
		// Only an in-memory window can look back; recount from the start.
		s.line, s.lineStart, s.lineAt = 1, 0, 0
	}
	seg := s.buf[s.lineAt-s.base : at-s.base]
	if n := bytes.Count(seg, newline); n > 0 {
		s.line += n
		s.lineStart = s.lineAt + int64(bytes.LastIndexByte(seg, '\n')) + 1
	}
	s.lineAt = at
}

// errAt records and returns a *ParseError at window index p. A failed read
// that cut the input short takes precedence: the parse error would only
// describe the truncation.
func (s *Scanner) errAt(p int, format string, args ...any) error {
	if s.readFailed() {
		s.err = s.rerr
		return s.err
	}
	at := s.base + int64(p)
	s.syncLines(at)
	s.err = &ParseError{Line: s.line, Col: int(at-s.lineStart) + 1, Msg: fmt.Sprintf(format, args...)}
	return s.err
}

func (s *Scanner) errHere(format string, args ...any) error {
	return s.errAt(s.pos, format, args...)
}

func (s *Scanner) readFailed() bool { return s.rerr != nil && s.rerr != io.EOF }

// atEOF ends a well-formed input with TokEOF, unless a failed read cut it
// short.
func (s *Scanner) atEOF() error {
	if s.readFailed() {
		s.err = s.rerr
		return s.err
	}
	s.tok = Token{Kind: TokEOF}
	return nil
}

var (
	newline       = []byte{'\n'}
	commentClose  = []byte("-->")
	cdataClose    = []byte("]]>")
	piClose       = []byte("?>")
	errSkipNoOpen = errors.New("xmltree: SkipElement with no open element")
)

// ---- names ----

// nameStart and nameChar classify bytes. Every byte >= 0x80 is both: any
// multi-byte rune and any invalid byte (decoded as U+FFFD) is above 127,
// so names never need rune decoding.
var nameStart, nameChar [256]bool

func init() {
	for c := 0; c < 256; c++ {
		start := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
		nameStart[c] = start
		nameChar[c] = start || c == '-' || c == '.' || (c >= '0' && c <= '9')
	}
}

// scanName consumes a name at pos and returns its window span (relative
// to mark, so it survives refills).
func (s *Scanner) scanName() (lo, hi int, err error) {
	b, ok := s.peek()
	if !ok || !nameStart[b] {
		return 0, 0, s.errHere("expected name")
	}
	lo = s.pos - s.mark
	s.pos++
	for {
		for s.pos < len(s.buf) && nameChar[s.buf[s.pos]] {
			s.pos++
		}
		if s.pos < len(s.buf) || !s.more() {
			return lo, s.pos - s.mark, nil
		}
	}
}

// intern returns the per-scan canonical string for a name.
func (s *Scanner) intern(b []byte) string {
	if n, ok := s.names[string(b)]; ok {
		return n
	}
	n := string(b)
	s.names[n] = n
	return n
}

func (s *Scanner) internName() (string, error) {
	lo, hi, err := s.scanName()
	if err != nil {
		return "", err
	}
	return s.intern(s.buf[s.mark+lo : s.mark+hi]), nil
}

// ---- events ----

// Next returns the next token. After an error or TokEOF every further call
// returns the same outcome.
func (s *Scanner) Next() (Token, error) {
	if err := s.next(); err != nil {
		return Token{}, err
	}
	return s.tok, nil
}

// next scans one event into s.tok.
func (s *Scanner) next() error {
	if s.err != nil {
		return s.err
	}
	if s.queuedEnd {
		s.queuedEnd = false
		s.tok = Token{Kind: TokEndElement, Name: s.tok.Name}
		return nil
	}
	if len(s.stack) == 0 && !s.fragment {
		return s.nextDocLevel()
	}
	return s.nextContent()
}

// nextDocLevel produces the document-level sequence: XML declaration, misc
// items, one root element, trailing misc.
func (s *Scanner) nextDocLevel() error {
	if !s.begun {
		s.begun = true
		if s.hasPrefix("<?xml") {
			// The declaration is skipped whole; an unterminated one reports
			// where it starts.
			s.mark = s.pos
			end, ok := s.find(piClose, s.pos)
			if !ok {
				return s.errAt(s.mark, "unterminated XML declaration")
			}
			s.pos = end + len(piClose)
		}
	}
	for {
		s.mark = s.pos // whitespace need not survive a refill
		s.skipSpace()
		s.mark = s.pos
		b, ok := s.peek()
		if !ok {
			if !s.seenRoot {
				return s.errHere("document has no root element")
			}
			return s.atEOF()
		}
		switch {
		case s.hasPrefix("<!--"):
			if keep, err := s.scanComment(); err != nil || keep {
				return err
			}
		case s.hasPrefix("<!DOCTYPE"):
			if err := s.skipDoctype(); err != nil {
				return err
			}
		case s.hasPrefix("<?"):
			return s.scanPI()
		case b == '<':
			if s.seenRoot {
				return s.errHere("multiple root elements")
			}
			s.seenRoot = true
			return s.scanStartTag()
		default:
			return s.errHere("unexpected content %q at document level", string(rune(b)))
		}
	}
}

// nextContent produces events inside an open element (or at fragment top
// level). A text run is one window slice unless it crosses an entity or a
// CDATA section; then the pieces coalesce in s.text, and the run ends at
// the next structural token.
func (s *Scanner) nextContent() error {
	s.mark = s.pos
	coalesced := false
	s.text = s.text[:0]
	for {
		rest := s.buf[s.pos:]
		stop := bytes.IndexByte(rest, '<')
		if stop < 0 {
			stop = len(rest)
		}
		if amp := bytes.IndexByte(rest[:stop], '&'); amp >= 0 {
			stop = amp
		}
		if coalesced {
			s.text = append(s.text, rest[:stop]...)
		}
		s.pos += stop
		if coalesced {
			s.mark = s.pos // the run so far lives in s.text
		}
		if s.pos == len(s.buf) {
			if s.more() {
				continue
			}
			if len(s.stack) > 0 {
				return s.errHere("unterminated element <%s>", s.stack[len(s.stack)-1])
			}
			if s.emitText(coalesced) {
				return nil
			}
			return s.atEOF()
		}
		if s.buf[s.pos] == '&' {
			if !coalesced {
				s.text = append(s.text, s.buf[s.mark:s.pos]...)
				coalesced = true
			}
			if err := s.scanEntity(); err != nil {
				return err
			}
			s.mark = s.pos
			continue
		}
		// At '<': CDATA extends the run; any other markup ends it. The byte
		// after '<' picks the construct.
		var kind byte
		if s.avail(2) {
			kind = s.buf[s.pos+1]
		}
		if kind == '!' && s.hasPrefix("<![CDATA[") {
			if !coalesced {
				s.text = append(s.text, s.buf[s.mark:s.pos]...)
				coalesced = true
			}
			s.mark = s.pos
			s.pos += len("<![CDATA[")
			end, ok := s.find(cdataClose, s.pos)
			if !ok {
				return s.errAt(s.mark+len("<![CDATA["), "unterminated CDATA section")
			}
			s.text = append(s.text, s.buf[s.pos:end]...)
			s.pos = end + len(cdataClose)
			s.mark = s.pos
			continue
		}
		if s.emitText(coalesced) {
			return nil
		}
		s.mark = s.pos
		switch {
		case kind == '/':
			if len(s.stack) == 0 {
				return s.errHere("unexpected end tag at fragment level")
			}
			return s.scanEndTag()
		case kind == '!' && s.hasPrefix("<!--"):
			if keep, err := s.scanComment(); err != nil || keep {
				return err
			}
			// Dropped: a new text run starts after it.
			s.mark = s.pos
			s.text = s.text[:0]
			coalesced = false
		case kind == '?':
			return s.scanPI()
		default:
			return s.scanStartTag()
		}
	}
}

// emitText turns the text run ending at pos into a TokText, unless it is
// empty or a whitespace-only run under TrimWhitespace.
func (s *Scanner) emitText(coalesced bool) bool {
	data := s.buf[s.mark:s.pos]
	if coalesced {
		data = s.text
	}
	if len(data) == 0 || (s.opts.TrimWhitespace && len(bytes.TrimSpace(data)) == 0) {
		return false
	}
	s.tok = Token{Kind: TokText, Data: data}
	return true
}

// scanEntity consumes "&name;" or a character reference in text and
// appends its replacement to s.text. The ';' must come within 12 bytes of
// the '&'.
func (s *Scanner) scanEntity() error {
	s.mark = s.pos
	s.avail(13) // fewer at the end of the input
	win := s.buf[s.pos:min(s.pos+13, len(s.buf))]
	end := bytes.IndexByte(win, ';')
	if end < 0 {
		return s.errHere("unterminated entity reference")
	}
	rep, err := resolveEntityBytes(win[1:end])
	if err != nil {
		return s.errHere("%v", err)
	}
	s.text = append(s.text, rep...)
	s.pos += end + 1
	return nil
}

// scanComment consumes a comment at pos; keep is false when DropComments
// discards it.
func (s *Scanner) scanComment() (keep bool, err error) {
	s.pos += len("<!--")
	end, ok := s.find(commentClose, s.pos)
	if !ok {
		return false, s.errAt(s.mark+len("<!--"), "unterminated comment")
	}
	data := s.buf[s.pos:end]
	s.pos = end + len(commentClose)
	if s.opts.DropComments {
		return false, nil
	}
	s.tok = Token{Kind: TokComment, Data: data}
	return true, nil
}

// scanPI consumes a processing instruction at pos.
func (s *Scanner) scanPI() error {
	s.pos += len("<?")
	target, err := s.internName()
	if err != nil {
		return err
	}
	end, ok := s.find(piClose, s.pos)
	if !ok {
		return s.errAt(s.pos, "unterminated processing instruction")
	}
	data := s.buf[s.pos:end]
	s.pos = end + len(piClose)
	s.tok = Token{Kind: TokPI, Name: target, Data: bytes.TrimLeft(data, " \t\r\n")}
	return nil
}

// skipDoctype skips <!DOCTYPE ...> at pos, tolerating an internal subset
// in brackets.
func (s *Scanner) skipDoctype() error {
	depth := 0
	for {
		b, ok := s.peek()
		if !ok {
			return s.errHere("unterminated DOCTYPE")
		}
		s.pos++
		s.mark = s.pos
		switch b {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}

// scanStartTag consumes "<name attrs…>" or "<name attrs…/>" at pos. A
// self-closing element queues its synthetic end token.
func (s *Scanner) scanStartTag() error {
	if len(s.stack)+1 > s.maxDepth {
		return s.errHere("element nesting exceeds %d levels", s.maxDepth)
	}
	s.pos++ // '<'
	name, err := s.internName()
	if err != nil {
		return err
	}
	s.spans = s.spans[:0]
	s.vals = s.vals[:0]
	for {
		s.skipSpace()
		b, ok := s.peek()
		if !ok {
			return s.errHere("unterminated start tag <%s", name)
		}
		if b == '>' || b == '/' {
			break
		}
		aname, err := s.internName()
		if err != nil {
			return err
		}
		s.skipSpace()
		if !s.hasPrefix("=") {
			return s.errHere("expected %q", "=")
		}
		s.pos++
		s.skipSpace()
		sp, err := s.scanAttrValue()
		if err != nil {
			return err
		}
		for _, o := range s.spans {
			if o.name == aname {
				return s.errHere("duplicate attribute %q on <%s>", aname, name)
			}
		}
		sp.name = aname
		s.spans = append(s.spans, sp)
	}
	selfClose := s.buf[s.pos] == '/'
	if selfClose {
		s.pos++
		if !s.hasPrefix(">") {
			return s.errHere("expected %q", ">")
		}
	}
	s.pos++ // '>'
	s.attrs = s.attrs[:0]
	for _, sp := range s.spans {
		var v []byte
		if sp.decoded {
			v = s.vals[sp.start:sp.end]
		} else {
			v = s.buf[s.mark+sp.start : s.mark+sp.end]
		}
		s.attrs = append(s.attrs, ScanAttr{Name: sp.name, Value: v})
	}
	s.tok = Token{Kind: TokStartElement, Name: name, Attrs: s.attrs, SelfClose: selfClose}
	if selfClose {
		s.queuedEnd = true
	} else {
		s.stack = append(s.stack, name)
	}
	return nil
}

// scanAttrValue consumes a quoted attribute value at pos. Entity decoding
// runs after the closing quote, so its errors report there.
func (s *Scanner) scanAttrValue() (attrSpan, error) {
	quote, ok := s.peek()
	if !ok || (quote != '"' && quote != '\'') {
		return attrSpan{}, s.errHere("expected quoted attribute value")
	}
	s.pos++
	lo := s.pos - s.mark
	for {
		rest := s.buf[s.pos:]
		q := bytes.IndexByte(rest, quote)
		if q < 0 {
			q = len(rest)
		}
		if lt := bytes.IndexByte(rest[:q], '<'); lt >= 0 {
			return attrSpan{}, s.errAt(s.pos+lt, "'<' in attribute value")
		}
		s.pos += q
		if s.pos < len(s.buf) {
			break
		}
		if !s.more() {
			return attrSpan{}, s.errHere("unterminated attribute value")
		}
	}
	hi := s.pos - s.mark
	s.pos++ // closing quote
	raw := s.buf[s.mark+lo : s.mark+hi]
	if bytes.IndexByte(raw, '&') < 0 {
		return attrSpan{start: lo, end: hi}, nil
	}
	start := len(s.vals)
	for len(raw) > 0 {
		amp := bytes.IndexByte(raw, '&')
		if amp < 0 {
			s.vals = append(s.vals, raw...)
			break
		}
		s.vals = append(s.vals, raw[:amp]...)
		raw = raw[amp:]
		end := bytes.IndexByte(raw, ';')
		if end < 0 {
			return attrSpan{}, s.errHere("unterminated entity in attribute value")
		}
		rep, err := resolveEntityBytes(raw[1:end])
		if err != nil {
			return attrSpan{}, s.errHere("%v", err)
		}
		s.vals = append(s.vals, rep...)
		raw = raw[end+1:]
	}
	return attrSpan{start: start, end: len(s.vals), decoded: true}, nil
}

// scanEndTag consumes "</name>" at pos and validates the match.
func (s *Scanner) scanEndTag() error {
	s.pos += len("</")
	lo, hi, err := s.scanName()
	if err != nil {
		return err
	}
	want := s.stack[len(s.stack)-1]
	if got := s.buf[s.mark+lo : s.mark+hi]; string(got) != want {
		return s.errHere("end tag </%s> does not match <%s>", got, want)
	}
	s.skipSpace()
	if !s.hasPrefix(">") {
		return s.errHere("expected %q", ">")
	}
	s.pos++
	s.stack = s.stack[:len(s.stack)-1]
	s.tok = Token{Kind: TokEndElement, Name: want}
	return nil
}

// SkipElement consumes the content and end tag of the element most recently
// opened by a non-self-closing TokStartElement, validating everything a
// full parse would (nesting bound, tag matching, attribute rules, entity
// references, comment/CDATA/PI termination) while handing out nothing.
// Its events are window views, so skipping a pruned subtree allocates
// nothing in steady state.
func (s *Scanner) SkipElement() error {
	if s.err != nil {
		return s.err
	}
	base := len(s.stack)
	if base == 0 {
		return errSkipNoOpen
	}
	for {
		if err := s.next(); err != nil {
			return err
		}
		switch s.tok.Kind {
		case TokStartElement:
			s.elemsSkipped++
		case TokEndElement:
			if len(s.stack) < base {
				return nil
			}
		}
	}
}

// ---- entities ----

// resolveEntityBytes resolves a named or character entity reference (the
// bytes between '&' and ';'). The predeclared names resolve without
// allocating.
func resolveEntityBytes(ent []byte) (string, error) {
	switch string(ent) { // compiled without allocation
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "quot":
		return `"`, nil
	case "apos":
		return "'", nil
	}
	if len(ent) >= 2 && ent[0] == '#' && (ent[1] == 'x' || ent[1] == 'X') {
		v, ok := parseUintBytes(ent[2:], 16)
		if !ok {
			return "", fmt.Errorf("bad character reference &%s;", ent)
		}
		return string(rune(v)), nil
	}
	if len(ent) >= 1 && ent[0] == '#' {
		v, ok := parseUintBytes(ent[1:], 10)
		if !ok {
			return "", fmt.Errorf("bad character reference &%s;", ent)
		}
		return string(rune(v)), nil
	}
	return "", fmt.Errorf("unknown entity &%s;", ent)
}

// parseUintBytes parses digits in the given base with strconv.ParseUint's
// 32-bit bounds, without allocating.
func parseUintBytes(b []byte, base uint32) (uint32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		v = v*uint64(base) + uint64(d)
		if v > 1<<32-1 {
			return 0, false
		}
	}
	return uint32(v), true
}

// ResolveEntity resolves a named or character entity reference (the text
// between '&' and ';') to its replacement string. Exposed for the XQuery
// lexer, which must decode the same references inside string literals and
// direct element constructors.
func ResolveEntity(ent string) (string, error) { return resolveEntityBytes([]byte(ent)) }
