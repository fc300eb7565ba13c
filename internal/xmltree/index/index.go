// Package index builds structural and value indexes over frozen
// (copy-on-write-shared) XML subtrees, the access-path substrate behind the
// engine's IndexScan and SynopsisPrune plan nodes.
//
// A DocIndex holds three sections over one tree:
//
//   - element-name index: name → every element of that name, in document
//     order, each tagged with its pre-order number so a scan can be scoped
//     to any subtree by binary search (pre/post interval containment);
//   - path synopsis: the distinct root-to-element label paths, each with an
//     integer id keyed by (parent path id, element name), which answers "can
//     child::name under this context be non-empty?" with two map lookups
//     and no allocation, without touching the child list;
//   - attribute/value index: (attribute name, exact string value) → the
//     owning elements in document order, for `[@attr = 'v']` probes.
//
// # Lifecycle and the COW contract
//
// Indexes are memoized on the tree root through Node.SetIndexCache the same
// way string values are memoized on frozen nodes: one build is shared by
// every evaluation, every lazy clone taken FROM the tree, and every tenant
// holding the same snapshot. The anchor rule is stricter than the string
// value memo, though — For only serves a root that is itself solid and
// shared (Node.IndexCacheable). A lazy clone shares its source's *content*
// but not its *identities*: the clone's materialized descendants are fresh
// nodes, and the clone is still mutable. Serving the source's index to a
// clone would hand out wrong nodes before any mutation and stale answers
// after one, so a clone simply never sees it — mutation safety falls out of
// the anchor rule instead of requiring invalidation hooks.
//
// Sections build lazily (first probe pays) and concurrently safely: each
// section is behind a sync.Once, and the build's tree walk materializes lazy
// interior clones through the tree layer's striped-lock protocol. After a
// build the maps are read-only.
//
// Process-wide counters (builds, build time, probe hits, synopsis prunes,
// tree-walk fallbacks) feed the obs layer via the probe registered by the
// public xq package.
package index

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lopsided/internal/xmltree"
)

// Process-wide access-path counters, exported through Stats/obs.
var (
	builds     atomic.Int64 // index section builds (struct + attr count separately)
	buildNanos atomic.Int64 // wall time spent building sections
	hits       atomic.Int64 // probes answered from an index structure
	prunes     atomic.Int64 // synopsis checks that proved a child step empty
	fallbacks  atomic.Int64 // probes that had to fall back to a tree walk
)

// Counters is a snapshot of the process-wide access-path counters.
type Counters struct {
	// Builds counts index section constructions (the structural and value
	// sections count separately); BuildNanos is the wall time they took.
	Builds, BuildNanos int64
	// Hits counts probes answered from an index structure; Prunes counts
	// synopsis checks that proved a child step empty without walking;
	// Fallbacks counts probes that fell back to a tree walk (unfrozen root,
	// foreign context node, or a synopsis answer of "may exist").
	Hits, Prunes, Fallbacks int64
}

// Stats returns the process-wide counters.
func Stats() Counters {
	return Counters{
		Builds:     builds.Load(),
		BuildNanos: buildNanos.Load(),
		Hits:       hits.Load(),
		Prunes:     prunes.Load(),
		Fallbacks:  fallbacks.Load(),
	}
}

// NoteFallback counts one probe that could not use an index at all (the
// caller discovered the root is not index-cacheable before a DocIndex
// existed to count it).
func NoteFallback() { fallbacks.Add(1) }

// span is a node's pre-order interval: the node's own pre number and the
// largest pre number in its subtree. Element d is a strict descendant of
// element a iff a.pre < d.pre <= a.end. path is the id of the node's label
// path in the synopsis.
type span struct {
	pre, end int32
	path     int32
}

// pathStep keys the synopsis: the label path reached by stepping from the
// path with id parent into a child element named name. The empty path above
// the indexed root has id 0; a document node takes its parent's id, since
// it adds no label.
type pathStep struct {
	parent int32
	name   string
}

// nodeList is a document-ordered element list with parallel pre numbers, so
// subtree scoping is two binary searches over the pres slice.
type nodeList struct {
	nodes []*xmltree.Node
	pres  []int32
}

func (nl *nodeList) add(n *xmltree.Node, pre int32) {
	nl.nodes = append(nl.nodes, n)
	nl.pres = append(nl.pres, pre)
}

// rng returns the sub-list of entries with pre in (sp.pre, sp.end].
func (nl *nodeList) rng(sp span) ([]*xmltree.Node, []int32) {
	lo := sort.Search(len(nl.pres), func(i int) bool { return nl.pres[i] > sp.pre })
	hi := sort.Search(len(nl.pres), func(i int) bool { return nl.pres[i] > sp.end })
	return nl.nodes[lo:hi], nl.pres[lo:hi]
}

// DocIndex is the lazily-built structural and value index of one frozen
// tree. Safe for concurrent use; obtain one through For.
type DocIndex struct {
	root *xmltree.Node

	structOnce sync.Once
	structDone atomic.Bool
	// ord spans every container (document and element) of the tree.
	ord map[*xmltree.Node]span
	// names lists elements by name in document order.
	names map[string]*nodeList
	// elems lists every element in document order (feeds the value index).
	elems nodeList
	// kids is the synopsis: every distinct root-to-element label path
	// (relative to the indexed root), as the id reached by one step from
	// its parent path.
	kids map[pathStep]int32

	attrOnce sync.Once
	attrDone atomic.Bool
	// attrs maps attrName + "\x00" + value to the owning elements in
	// document order. Duplicate attributes (the Galax bug trees) index the
	// owner under every present (name, value) pair.
	attrs map[string]*nodeList
}

// For returns the tree's index, creating the (empty, unbuilt) DocIndex on
// first use and memoizing it on the root. ok is false when the root is not
// index-cacheable — not frozen, or a still-mutable lazy clone — in which
// case the caller must fall back to a tree walk (counted here).
func For(root *xmltree.Node) (*DocIndex, bool) {
	if !root.IndexCacheable() {
		fallbacks.Add(1)
		return nil, false
	}
	if v := root.IndexCache(); v != nil {
		return v.(*DocIndex), true
	}
	// First-store-wins: concurrent creators converge on one DocIndex, and
	// its sync.Onces make each section build exactly once.
	got := root.SetIndexCache(&DocIndex{root: root})
	return got.(*DocIndex), true
}

// Peek returns the tree's index only if one is already memoized on the
// root; it never creates or builds anything.
func Peek(root *xmltree.Node) (*DocIndex, bool) {
	if v := root.IndexCache(); v != nil {
		return v.(*DocIndex), true
	}
	return nil, false
}

// Info describes an index's state for observability surfaces.
type Info struct {
	// Built reports whether the structural section exists; AttrsBuilt the
	// value section.
	Built, AttrsBuilt bool
	// Elements is the indexed element count, Names the distinct element
	// names, Paths the synopsis size, AttrKeys the distinct (attribute,
	// value) pairs. All zero until the owning section builds.
	Elements, Names, Paths, AttrKeys int
}

// Info reports the index's current state without forcing any builds.
func (ix *DocIndex) Info() Info {
	info := Info{Built: ix.structDone.Load(), AttrsBuilt: ix.attrDone.Load()}
	if info.Built {
		info.Elements = len(ix.elems.nodes)
		info.Names = len(ix.names)
		info.Paths = len(ix.kids)
	}
	if info.AttrsBuilt {
		info.AttrKeys = len(ix.attrs)
	}
	return info
}

// ensureStruct builds the structural section (spans, name lists, synopsis)
// on first use. The walk materializes lazy interior clones; that is safe,
// synchronized, and paid once per tree.
func (ix *DocIndex) ensureStruct() {
	ix.structOnce.Do(func() {
		start := time.Now()
		ix.ord = make(map[*xmltree.Node]span)
		ix.names = make(map[string]*nodeList)
		ix.kids = make(map[pathStep]int32)
		var pre int32
		var walk func(n *xmltree.Node, path int32)
		walk = func(n *xmltree.Node, path int32) {
			pre++
			p := pre
			if n.Kind == xmltree.ElementNode {
				k := pathStep{parent: path, name: n.Name}
				id, seen := ix.kids[k]
				if !seen {
					id = int32(len(ix.kids)) + 1
					ix.kids[k] = id
				}
				path = id
				nl := ix.names[n.Name]
				if nl == nil {
					nl = &nodeList{}
					ix.names[n.Name] = nl
				}
				nl.add(n, p)
				ix.elems.add(n, p)
			}
			for _, c := range n.Children() {
				if c.Kind == xmltree.ElementNode || c.Kind == xmltree.DocumentNode {
					walk(c, path)
				}
			}
			ix.ord[n] = span{pre: p, end: pre, path: path}
		}
		walk(ix.root, 0)
		builds.Add(1)
		buildNanos.Add(time.Since(start).Nanoseconds())
		ix.structDone.Store(true)
	})
}

// ensureAttrs builds the value section from the structural section's
// document-ordered element list.
func (ix *DocIndex) ensureAttrs() {
	ix.ensureStruct()
	ix.attrOnce.Do(func() {
		start := time.Now()
		ix.attrs = make(map[string]*nodeList)
		for i, e := range ix.elems.nodes {
			p := ix.elems.pres[i]
			for _, a := range e.Attrs() {
				key := a.Name + "\x00" + a.Data
				nl := ix.attrs[key]
				if nl == nil {
					nl = &nodeList{}
					ix.attrs[key] = nl
				}
				// Duplicate attributes with an identical (name, value) pair
				// must not list the owner twice.
				if n := len(nl.nodes); n > 0 && nl.nodes[n-1] == e {
					continue
				}
				nl.add(e, p)
			}
		}
		builds.Add(1)
		buildNanos.Add(time.Since(start).Nanoseconds())
		ix.attrDone.Store(true)
	})
}

// scope resolves a context node to its pre-order interval. ok is false when
// the node is not a container of this tree (foreign nodes fall back; text
// and attribute contexts have no element descendants and return empty=true).
func (ix *DocIndex) scope(ctx *xmltree.Node) (sp span, empty, ok bool) {
	if ctx.Kind != xmltree.ElementNode && ctx.Kind != xmltree.DocumentNode {
		return span{}, true, true
	}
	ix.ensureStruct()
	sp, found := ix.ord[ctx]
	if !found {
		return span{}, false, false
	}
	return sp, false, true
}

// Descendants returns the elements named name in ctx's subtree (ctx
// excluded), in document order. The returned slice aliases index storage:
// callers must treat it as read-only. served is false when the context is
// unknown to this index and the caller must tree-walk.
func (ix *DocIndex) Descendants(ctx *xmltree.Node, name string) (nodes []*xmltree.Node, served bool) {
	sp, empty, ok := ix.scope(ctx)
	if !ok {
		fallbacks.Add(1)
		return nil, false
	}
	if empty {
		hits.Add(1)
		return nil, true
	}
	hits.Add(1)
	if nl := ix.names[name]; nl != nil {
		nodes, _ = nl.rng(sp)
	}
	return nodes, true
}

// DescendantsAttrEq returns the elements named name in ctx's subtree that
// carry an attribute attr with exact string value val, in document order.
// The probe scans whichever of the name list and the (attr, val) list is
// shorter within the scope, filtering by the other condition.
func (ix *DocIndex) DescendantsAttrEq(ctx *xmltree.Node, name, attr, val string) (nodes []*xmltree.Node, served bool) {
	sp, empty, ok := ix.scope(ctx)
	if !ok {
		fallbacks.Add(1)
		return nil, false
	}
	if empty {
		hits.Add(1)
		return nil, true
	}
	ix.ensureAttrs()
	hits.Add(1)
	var byName, byAttr []*xmltree.Node
	if nl := ix.names[name]; nl != nil {
		byName, _ = nl.rng(sp)
	}
	if nl := ix.attrs[attr+"\x00"+val]; nl != nil {
		byAttr, _ = nl.rng(sp)
	}
	if len(byName) == 0 || len(byAttr) == 0 {
		return nil, true
	}
	if len(byAttr) <= len(byName) {
		for _, n := range byAttr {
			if n.Name == name {
				nodes = append(nodes, n)
			}
		}
		return nodes, true
	}
	for _, n := range byName {
		if AttrAnyEq(n, attr, val) {
			nodes = append(nodes, n)
		}
	}
	return nodes, true
}

// ChildrenAttrEq returns ctx's direct children named name carrying
// attribute attr with exact string value val, in document (= child) order,
// via the scoped value index filtered to Parent == ctx.
func (ix *DocIndex) ChildrenAttrEq(ctx *xmltree.Node, name, attr, val string) (nodes []*xmltree.Node, served bool) {
	sp, empty, ok := ix.scope(ctx)
	if !ok {
		fallbacks.Add(1)
		return nil, false
	}
	if empty {
		hits.Add(1)
		return nil, true
	}
	ix.ensureAttrs()
	hits.Add(1)
	if nl := ix.attrs[attr+"\x00"+val]; nl != nil {
		cands, _ := nl.rng(sp)
		for _, n := range cands {
			if n.Parent == ctx && n.Name == name {
				nodes = append(nodes, n)
			}
		}
	}
	return nodes, true
}

// ChildMayExist answers the synopsis question for child::name under ctx:
// exists=false proves the step empty without touching the child list.
// answered is false when ctx is unknown to this index; an answer of
// exists=true means the caller walks (and is counted as a fallback — the
// index narrowed nothing).
func (ix *DocIndex) ChildMayExist(ctx *xmltree.Node, name string) (exists, answered bool) {
	if ctx.Kind != xmltree.ElementNode && ctx.Kind != xmltree.DocumentNode {
		prunes.Add(1)
		return false, true
	}
	ix.ensureStruct()
	sp, found := ix.ord[ctx]
	if !found {
		fallbacks.Add(1)
		return true, false
	}
	if _, ok := ix.kids[pathStep{parent: sp.path, name: name}]; !ok {
		prunes.Add(1)
		return false, true
	}
	fallbacks.Add(1)
	return true, true
}

// AttrAnyEq reports whether n carries any attribute named attr whose string
// value is exactly val. Unlike Node.Attr it checks every attribute of the
// name, matching the existential semantics of an [@attr = 'v'] predicate
// over trees holding duplicate attributes (the Galax-bug policy).
func AttrAnyEq(n *xmltree.Node, attr, val string) bool {
	for _, a := range n.Attrs() {
		if a.Name == attr && a.Data == val {
			return true
		}
	}
	return false
}
