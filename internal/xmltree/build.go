package xmltree

import (
	"io"
	"unsafe"
)

// Parse parses a complete XML document and returns its document node.
func Parse(input string) (*Node, error) {
	return ParseWith(input, ParseOptions{})
}

// ParseTrimmed parses a document, dropping whitespace-only text nodes.
func ParseTrimmed(input string) (*Node, error) {
	return ParseWith(input, ParseOptions{TrimWhitespace: true})
}

// MustParse is Parse that panics on error. It is intended ONLY for tests
// and embedded literals known at compile time to be well-formed; a panic
// here is programmer misuse, per the package's panic contract. Never feed
// it user or network input — use Parse, which returns a *ParseError.
func MustParse(input string) *Node {
	d, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseWith parses a complete XML document with the given options.
func ParseWith(input string, opts ParseOptions) (*Node, error) {
	return build(newStringScanner(input, opts))
}

// ParseFragment parses a sequence of top-level XML items (elements, text,
// comments, PIs) without requiring a single root element, returning them in
// order, parentless. Used for parsing template snippets and constructor
// content.
func ParseFragment(input string) ([]*Node, error) {
	s := newStringScanner(input, ParseOptions{})
	s.fragment = true
	doc, err := build(s)
	if err != nil {
		return nil, err
	}
	kids := doc.children
	for _, k := range kids {
		k.Parent = nil
	}
	return kids, nil
}

// ParseReader parses a complete XML document from r and returns its
// document node. It is Parse over a refilling window instead of one
// string: the same scanner, language and *ParseError values, without a
// second in-memory copy of a file or network stream. A failed read is
// returned as is.
func ParseReader(r io.Reader) (*Node, error) {
	return ParseReaderWith(r, ParseOptions{})
}

// ParseReaderWith is ParseReader with parse options.
func ParseReaderWith(r io.Reader, opts ParseOptions) (*Node, error) {
	s := NewScanner(r, opts)
	doc, err := build(s)
	if err != nil {
		return nil, err
	}
	recordReaderParse(s.BytesRead())
	return doc, nil
}

// build assembles the whole document the scanner reads.
func build(s *Scanner) (*Node, error) {
	var b builder
	doc := b.begin()
	for {
		if err := s.next(); err != nil {
			return nil, err
		}
		t := &s.tok
		switch t.Kind {
		case TokStartElement:
			b.start(t.Name, t.Attrs, starAttr)
		case TokEndElement:
			b.keep(b.end())
		case TokText:
			b.leaf(TextNode, "", t.Data)
		case TokComment:
			b.leaf(CommentNode, "", t.Data)
		case TokPI:
			b.leaf(PINode, t.Name, t.Data)
		case TokEOF:
			b.end()
			return doc, nil
		}
	}
}

// builder assembles a tree from scanner events. Nodes, child and attribute
// slices and string bytes are carved from per-document slabs, and every
// slice is sized exactly once its element closes, so a tree costs a few
// allocations per slab chunk instead of several per element.
//
// Carved slices have cap == len, so a later append (tree mutation)
// reallocates instead of writing into a neighbour; slab strings are never
// rewritten once handed out.
type builder struct {
	nodes []Node // the node slab; nodes[:used] are handed out
	used  int
	ptrs  []*Node  // unused tail of the pointer slab
	strs  []byte   // string slab; strs[len:cap] is free
	grow  int      // slab chunks allocated so far (chunks double up to a cap)
	kids  []*Node  // pending children of every open element, innermost last
	open  []opened // open elements, the document (or fragment holder) first
}

type opened struct {
	n     *Node
	first int // kids[first:] are n's children so far
}

// Slab chunk bounds: the first chunks are small so a tiny fragment stays
// cheap, and they double up to these sizes.
const (
	maxNodeChunk = 256      // 32 KiB of 128-byte nodes
	maxPtrChunk  = 4096     // 32 KiB of pointers
	maxStrChunk  = 32 << 10 // bytes
	bigString    = 1 << 10  // strings at least this long get their own allocation
)

// chunk returns the next slab chunk size for a slab bounded by max.
func (b *builder) chunk(max int) int {
	n := 16 << b.grow
	if n >= max {
		return max
	}
	b.grow++
	return n
}

// begin opens the document node that holds the top level.
func (b *builder) begin() *Node {
	doc := b.node(DocumentNode, nil)
	b.open = append(b.open, opened{n: doc})
	return doc
}

func (b *builder) node(kind NodeKind, parent *Node) *Node {
	if b.used == len(b.nodes) {
		b.nodes, b.used = make([]Node, b.chunk(maxNodeChunk)), 0
	}
	n := &b.nodes[b.used]
	b.used++
	n.Kind, n.Parent = kind, parent
	return n
}

// drop gives back an element a projected parse decided not to keep, with
// its attribute nodes, when they are the slab's most recent nodes — which
// they are once its dropped descendants were given back in turn — so a
// pruned shell does not pin slab space for the tree's lifetime.
func (b *builder) drop(el *Node) {
	for i := len(el.attrs) - 1; i >= 0; i-- {
		if !b.unnode(el.attrs[i]) {
			return
		}
	}
	b.unnode(el)
}

func (b *builder) unnode(n *Node) bool {
	if b.used == 0 || &b.nodes[b.used-1] != n {
		return false
	}
	b.used--
	*n = Node{}
	return true
}

// str copies p into the string slab and returns it as a string.
func (b *builder) str(p []byte) string {
	switch {
	case len(p) == 0:
		return ""
	case len(p) >= bigString:
		return string(p)
	case len(b.strs)+len(p) > cap(b.strs):
		b.strs = make([]byte, 0, b.chunk(maxStrChunk))
	}
	at := len(b.strs)
	b.strs = append(b.strs, p...)
	return unsafe.String(&b.strs[at], len(p))
}

// slice carves an exact-size copy of ps from the pointer slab.
func (b *builder) slice(ps []*Node) []*Node {
	n := len(ps)
	if n == 0 {
		return nil
	}
	if n > len(b.ptrs) {
		if n > maxPtrChunk/4 {
			return append([]*Node(nil), ps...)
		}
		b.ptrs = make([]*Node, b.chunk(maxPtrChunk))
	}
	out := b.ptrs[:n:n]
	b.ptrs = b.ptrs[n:]
	copy(out, ps)
	return out
}

func (b *builder) top() *Node { return b.open[len(b.open)-1].n }

// start opens an element under the innermost open element, keeping the
// attributes filter admits (nil keeps none, starAttr all).
func (b *builder) start(name string, attrs []ScanAttr, filter []string) *Node {
	el := b.node(ElementNode, b.top())
	el.Name = name
	first := len(b.kids)
	for _, a := range attrs {
		if filter != nil && attrWanted(filter, a.Name) {
			at := b.node(AttributeNode, el)
			at.Name, at.Data = a.Name, b.str(a.Value)
			b.kids = append(b.kids, at)
		}
	}
	el.attrs = b.slice(b.kids[first:])
	b.kids = b.kids[:first]
	b.open = append(b.open, opened{n: el, first: first})
	return el
}

// end closes the innermost open element, fixing its child slice, and
// returns it; keep attaches it to its parent.
func (b *builder) end() *Node {
	o := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	o.n.children = b.slice(b.kids[o.first:])
	b.kids = b.kids[:o.first]
	return o.n
}

func (b *builder) keep(n *Node) { b.kids = append(b.kids, n) }

// leaf appends a text, comment or PI node to the innermost open element.
func (b *builder) leaf(kind NodeKind, name string, data []byte) {
	n := b.node(kind, b.top())
	n.Name, n.Data = name, b.str(data)
	b.kids = append(b.kids, n)
}
