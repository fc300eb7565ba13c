package xmltree

// Path projection: a parse that builds only the parts of a document a
// query can touch, on the same scanner and tree builder as every other
// parse.

import (
	"io"
	"strings"
)

// ProjStep is one step of a root-anchored projection path: a name test,
// optionally reachable at any depth (Desc) instead of as a direct child.
// Name tests use the engine's textual matching: "x", "*", "pre:*", "*:local".
type ProjStep struct {
	Name string
	Desc bool
}

// ProjPath is one root-anchored path the query can touch. Elements matching
// the full step sequence are retained; Subtree retains their entire
// subtrees (value uses: atomization, serialization, kind tests below),
// while without it only the element shell (name + ancestry) survives
// (existence/count/name uses). Attrs lists attribute names required on
// matching elements; "*" keeps all of them.
type ProjPath struct {
	Steps   []ProjStep
	Subtree bool
	Attrs   []string
}

// Projection is the static path analysis' verdict: the set of paths a
// query can navigate into its context document. ParseProjected builds only
// matching subtrees (plus the ancestor shells needed to reach them) and
// skips everything else.
type Projection struct {
	Paths []ProjPath
}

// EverythingNeeded reports whether the projection retains the whole
// document anyway (a Subtree mark on the root path), in which case
// projected parsing degenerates to a full parse.
func (p *Projection) EverythingNeeded() bool {
	for _, pp := range p.Paths {
		if len(pp.Steps) == 0 && pp.Subtree {
			return true
		}
	}
	return false
}

// String renders the path set the way EXPLAIN prints it.
func (p *Projection) String() string {
	if len(p.Paths) == 0 {
		return "(empty)"
	}
	var b strings.Builder
	for i, pp := range p.Paths {
		if i > 0 {
			b.WriteString(" ")
		}
		if len(pp.Steps) == 0 {
			b.WriteString("/")
		}
		for _, st := range pp.Steps {
			if st.Desc {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
			b.WriteString(st.Name)
		}
		for _, a := range pp.Attrs {
			b.WriteString("/@")
			b.WriteString(a)
		}
		if pp.Subtree {
			b.WriteString("#subtree")
		}
	}
	return b.String()
}

// NameTestMatches applies a projection name test to an element name with
// the engine's textual matching rules (paths.go makeTest).
func NameTestMatches(test, name string) bool {
	switch {
	case test == "*":
		return true
	case strings.HasSuffix(test, ":*"):
		prefix := strings.TrimSuffix(test, ":*")
		if i := strings.IndexByte(name, ':'); i >= 0 {
			return name[:i] == prefix
		}
		return prefix == ""
	case strings.HasPrefix(test, "*:"):
		local := strings.TrimPrefix(test, "*:")
		if i := strings.IndexByte(name, ':'); i >= 0 {
			return name[i+1:] == local
		}
		return name == local
	}
	return test == name
}

// ProjStats reports what one projected parse did.
type ProjStats struct {
	// BytesRead is the input size consumed.
	BytesRead int64
	// ElementsRetained counts elements present in the projected tree.
	ElementsRetained int64
	// ElementsPruned counts elements seen in the input but not retained —
	// dropped candidate shells plus whole subtrees skipped without
	// building.
	ElementsPruned int64
}

// projState is one NFA state: the next step of Paths[path] to match.
type projState struct {
	path, step int
}

// projFrame is the per-open-element matching state.
type projFrame struct {
	// subtree marks the keep-everything region below a Subtree match.
	subtree bool
	// keep marks a terminal path match (the shell survives regardless of
	// descendants).
	keep bool
	// childKept records that some descendant was retained, so this shell
	// is a required ancestor.
	childKept bool
	// states[lo:hi] of the parse's shared state stack are the NFA states
	// applied to this frame's children.
	lo, hi int
}

// ParseProjected parses a document from r, building only the parts the
// projection says the query can touch. The result is a normal frozen tree:
// indexes, serialization, and the whole engine work on it unchanged.
func ParseProjected(r io.Reader, proj *Projection) (*Node, error) {
	doc, _, err := ParseProjectedStats(r, proj, ParseOptions{})
	return doc, err
}

// ParseProjectedStats is ParseProjected with parse options and per-parse
// statistics.
func ParseProjectedStats(r io.Reader, proj *Projection, opts ParseOptions) (*Node, ProjStats, error) {
	doc, st, err := ParseProjectedUnfrozen(r, proj, opts)
	if err != nil {
		return nil, ProjStats{}, err
	}
	return Freeze(doc), st, nil
}

// ParseProjectedUnfrozen is ParseProjectedStats for a tree that is
// evaluated once and dropped: it is not frozen, so nothing ever builds a
// subtree index over it, and a lookup falls back to walking the (already
// pruned) tree instead.
func ParseProjectedUnfrozen(r io.Reader, proj *Projection, opts ParseOptions) (*Node, ProjStats, error) {
	if proj == nil || proj.EverythingNeeded() {
		// Nothing to prune; the plain reader parse is the same tree.
		doc, err := ParseReaderWith(r, opts)
		if err != nil {
			return nil, ProjStats{}, err
		}
		return doc, ProjStats{ElementsRetained: countElements(doc)}, nil
	}
	s := NewScanner(r, opts)
	var b builder
	doc := b.begin()
	// The document frame: every path starts here. A path with no steps
	// marks the document itself (count(/), attrs are meaningless on it).
	var states []projState
	for i, pp := range proj.Paths {
		if len(pp.Steps) > 0 {
			states = append(states, projState{path: i, step: 0})
		}
	}
	frames := []projFrame{{keep: true, hi: len(states)}}
	var filter []string // reused attribute filter
	var st ProjStats
	var elementsSeen int64
	for {
		if err := s.next(); err != nil {
			return nil, ProjStats{}, err
		}
		t := &s.tok
		f := &frames[len(frames)-1]
		switch t.Kind {
		case TokStartElement:
			elementsSeen++
			nf := projFrame{subtree: f.subtree, lo: len(states)}
			var attrFilter []string // nil = none, ["*"] = all
			if f.subtree {
				attrFilter = starAttr
			}
			for _, stt := range states[f.lo:f.hi] {
				step := proj.Paths[stt.path].Steps[stt.step]
				if step.Desc {
					states = append(states, stt)
				}
				if !NameTestMatches(step.Name, t.Name) {
					continue
				}
				if stt.step+1 == len(proj.Paths[stt.path].Steps) {
					pp := &proj.Paths[stt.path]
					nf.keep = true
					if pp.Subtree {
						nf.subtree = true
						attrFilter = starAttr
					}
					if attrFilter == nil {
						attrFilter = filter[:0]
					}
					if len(attrFilter) == 0 || attrFilter[0] != "*" {
						attrFilter = append(attrFilter, pp.Attrs...)
						filter = attrFilter[:0] // keep the grown buffer
					}
				} else {
					states = append(states, projState{path: stt.path, step: stt.step + 1})
				}
			}
			nf.hi = len(states)
			if !nf.keep && !nf.subtree && nf.lo == nf.hi {
				// Dead branch: nothing below can match. Validate and skip
				// the whole subtree without building anything.
				if !t.SelfClose {
					if err := s.SkipElement(); err != nil {
						return nil, ProjStats{}, err
					}
				} else if err := s.next(); err != nil { // synthetic end
					return nil, ProjStats{}, err
				}
				continue
			}
			b.start(t.Name, t.Attrs, attrFilter)
			frames = append(frames, nf)
		case TokEndElement:
			done := *f
			states = states[:done.lo]
			frames = frames[:len(frames)-1]
			el := b.end()
			if done.keep || done.subtree || done.childKept {
				b.keep(el)
				frames[len(frames)-1].childKept = true
				st.ElementsRetained++
			} else {
				b.drop(el)
			}
		case TokText:
			if f.subtree {
				b.leaf(TextNode, "", t.Data)
			}
		case TokComment:
			// Comments survive inside subtree regions and at document
			// level (where only kind tests — which force a subtree mark —
			// or whole-document serialization can observe them).
			if f.subtree || len(frames) == 1 {
				b.leaf(CommentNode, "", t.Data)
			}
		case TokPI:
			if f.subtree || len(frames) == 1 {
				b.leaf(PINode, t.Name, t.Data)
			}
		case TokEOF:
			b.end()
			st.BytesRead = s.BytesRead()
			st.ElementsPruned = elementsSeen + s.ElementsSkipped() - st.ElementsRetained
			recordProjectedParse(st)
			return doc, st, nil
		}
	}
}

// starAttr is the shared "keep all attributes" filter.
var starAttr = []string{"*"}

func attrWanted(filter []string, name string) bool {
	for _, f := range filter {
		if f == "*" || f == name {
			return true
		}
	}
	return false
}

func countElements(n *Node) int64 {
	var c int64
	Walk(n, func(m *Node) bool {
		if m.Kind == ElementNode {
			c++
		}
		return true
	})
	return c
}
