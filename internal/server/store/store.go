// Package store is the daemon's persistent named-collection layer: XML
// collections loaded from a data directory, served as immutable
// copy-on-write-frozen snapshots so a reload can never race an in-flight
// evaluation — queries keep the snapshot they started with, and the swap to
// a new one is a single atomic pointer store.
//
// Layout: every subdirectory of the data directory is one collection, and
// every *.xml file inside it is one document. *.xml files at the top level
// form the default collection "db" (the eXist-style collection('/db')
// idiom the paper's deployments lean on). A collection's query-facing root
// is a synthetic
//
//	<collection name="NAME"><doc name="FILE">…</doc>…</collection>
//
// element wrapping a lazy COW clone of each document element, in file-name
// order, so `/collection/doc/…` paths and `//…` descendant scans both work
// and documents stay individually addressable via fn:doc("FILE") through
// the snapshot's Resolver.
//
// Loads go through a fault-injection hook and a jittered retry policy
// (internal/faultinject): transient storage faults are retried with
// bounded, deterministic backoff; a reload that still fails leaves the
// previous snapshot serving — stale data beats no data, the degradation
// the daemon's /readyz reports rather than hides.
//
// Every file is hashed (its size plus a maphash under a per-Store seed)
// while it parses, so a reload re-parses only what changed: it reads and
// hashes each file, reuses the frozen Doc of an unchanged one, and reuses
// a whole Collection — its root and any index built on it — when the file
// list and every hash match. A changed collection gets a fresh root, so
// its index rebuilds on the first probe.
package store

import (
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lopsided/internal/faultinject"
	"lopsided/internal/xmltree"
	"lopsided/internal/xmltree/index"
)

// DefaultCollection is the name given to *.xml files at the top level of
// the data directory.
const DefaultCollection = "db"

// Doc is one loaded document inside a collection.
type Doc struct {
	// Name is the file base name without the .xml extension.
	Name string
	// Root is the document node, frozen under the COW contract: no caller
	// may mutate it or anything below it.
	Root *xmltree.Node
	// Bytes is the on-disk size of the source file.
	Bytes int64
	// sum hashes the source file's bytes under the store's seed; with
	// Bytes it identifies an unchanged file on reload.
	sum uint64
}

// Collection is one named set of documents plus its synthetic query root.
type Collection struct {
	Name string
	Docs []Doc
	// Root is the frozen <collection name=…> element wrapping every
	// document element; it is the context item for queries against the
	// collection.
	Root *xmltree.Node
	// Bytes totals the on-disk size of the collection's files.
	Bytes int64
}

// Snapshot is one immutable generation of the store. All fields are
// read-only after construction; evaluations hold a *Snapshot for their
// whole lifetime and never observe a reload.
type Snapshot struct {
	// Version increments on every successful (re)load.
	Version int64
	// LoadedAt is when this snapshot finished loading.
	LoadedAt time.Time
	cols     map[string]*Collection
}

// Collection looks up a collection by name; a leading "/" is ignored so
// both "db" and "/db" resolve.
func (s *Snapshot) Collection(name string) (*Collection, bool) {
	c, ok := s.cols[strings.TrimPrefix(name, "/")]
	return c, ok
}

// Names lists the snapshot's collection names, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.cols))
	for name := range s.cols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Docs reports the total number of documents across all collections.
func (s *Snapshot) Docs() int {
	n := 0
	for _, c := range s.cols {
		n += len(c.Docs)
	}
	return n
}

// Resolver returns a fn:doc resolver over this snapshot. URIs resolve as
// "name" (within the given collection, which may be "") or
// "collection/name"; the ".xml" suffix is optional. The resolver is safe
// for concurrent use and pinned to this snapshot — a reload never changes
// what an in-flight evaluation's fn:doc sees.
func (s *Snapshot) Resolver(collection string) func(uri string) (*xmltree.Node, error) {
	return func(uri string) (*xmltree.Node, error) {
		col, name := collection, strings.TrimSuffix(uri, ".xml")
		if i := strings.LastIndex(name, "/"); i >= 0 {
			col, name = strings.Trim(name[:i], "/"), name[i+1:]
		}
		c, ok := s.Collection(col)
		if !ok {
			return nil, fmt.Errorf("doc(%q): unknown collection %q", uri, col)
		}
		for i := range c.Docs {
			if c.Docs[i].Name == name {
				return c.Docs[i].Root, nil
			}
		}
		return nil, fmt.Errorf("doc(%q): no document %q in collection %q", uri, name, c.Name)
	}
}

// Options configure a Store.
type Options struct {
	// Hook, when non-nil, runs before every file read with an operation
	// tag like `load("db/books.xml")`; returning an error fails (or, for
	// transient errors, retries) that load. This is the chaos harness's
	// injection point — wire an *faultinject.Injector's Hit here.
	Hook func(op string) error
	// Retry is the backoff policy for transient load faults. The zero
	// value means 3 attempts from a 1ms base (see faultinject.Backoff);
	// set Jitter/Seed for a bounded deterministic schedule.
	Retry faultinject.Backoff
}

// Store serves immutable snapshots of a data directory.
type Store struct {
	dir  string
	opts Options
	seed maphash.Seed
	snap atomic.Pointer[Snapshot]
	vers atomic.Int64
}

// Open loads the data directory and returns a serving store. It fails when
// the directory is missing, holds no collections, or a document does not
// parse — a daemon should refuse to start on a bad corpus rather than
// serve an empty one.
func Open(dir string, opts Options) (*Store, error) {
	st := &Store{dir: dir, opts: opts, seed: maphash.MakeSeed()}
	if err := st.Reload(); err != nil {
		return nil, err
	}
	return st, nil
}

// Snapshot returns the current immutable snapshot.
func (st *Store) Snapshot() *Snapshot { return st.snap.Load() }

// Dir reports the data directory the store serves.
func (st *Store) Dir() string { return st.dir }

// Reload rebuilds a snapshot from the data directory and atomically swaps
// it in. Unchanged files keep their frozen documents, and unchanged
// collections keep their roots and indexes (see the package comment). On
// failure the previous snapshot (if any) keeps serving and the error is
// returned. Transient faults from the load hook are retried under the
// configured backoff; permanent ones fail the reload at once.
func (st *Store) Reload() error {
	snap, err := st.load()
	if err != nil {
		return err
	}
	snap.Version = st.vers.Add(1)
	st.snap.Store(snap)
	return nil
}

func (st *Store) load() (*Snapshot, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// The serving snapshot's collections, by name (none on the first load).
	var prev map[string]*Collection
	if old := st.snap.Load(); old != nil {
		prev = old.cols
	}
	snap := &Snapshot{cols: make(map[string]*Collection)}
	var topLevel []string
	for _, e := range entries {
		if e.IsDir() {
			col, err := st.loadCollection(e.Name(), filepath.Join(st.dir, e.Name()), prev[e.Name()])
			if err != nil {
				return nil, err
			}
			if col != nil {
				snap.cols[col.Name] = col
			}
			continue
		}
		if strings.HasSuffix(e.Name(), ".xml") {
			topLevel = append(topLevel, e.Name())
		}
	}
	if len(topLevel) > 0 {
		col, err := st.buildCollection(DefaultCollection, st.dir, topLevel, prev[DefaultCollection])
		if err != nil {
			return nil, err
		}
		snap.cols[col.Name] = col
	}
	if len(snap.cols) == 0 {
		return nil, fmt.Errorf("store: no collections under %q (want subdirectories or top-level *.xml files)", st.dir)
	}
	snap.LoadedAt = time.Now()
	return snap, nil
}

func (st *Store) loadCollection(name, dir string, prev *Collection) (*Collection, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: collection %q: %w", name, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, nil // an empty subdirectory is not a collection
	}
	return st.buildCollection(name, dir, files, prev)
}

// buildCollection loads files (already filtered to *.xml, made
// deterministic by sorting) into a frozen Collection. Documents unchanged
// since prev (the serving snapshot's collection of this name, or nil) are
// reused, and so is prev itself when nothing changed.
func (st *Store) buildCollection(name, dir string, files []string, prev *Collection) (*Collection, error) {
	sort.Strings(files)
	old := make(map[string]*Doc)
	if prev != nil {
		for i := range prev.Docs {
			old[prev.Docs[i].Name] = &prev.Docs[i]
		}
	}
	docs := make([]Doc, 0, len(files))
	reused := 0
	for _, f := range files {
		docName := strings.TrimSuffix(f, ".xml")
		op := fmt.Sprintf("load(%q)", name+"/"+f)
		d, err := st.loadDoc(op, filepath.Join(dir, f), docName, old[docName])
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", op, err)
		}
		if o := old[docName]; o != nil && d.Root == o.Root {
			reused++
		}
		docs = append(docs, d)
	}
	if prev != nil && reused == len(prev.Docs) && reused == len(files) {
		// Same file list, same bytes: keep the root and its built index.
		return prev, nil
	}
	col := &Collection{Name: name, Docs: docs}
	root := xmltree.NewElement("collection")
	root.SetAttr("name", name)
	for _, d := range docs {
		col.Bytes += d.Bytes
		// Wrap a lazy COW clone of the document element: the clone
		// freezes the parsed tree (so fn:doc serves frozen documents) and
		// shares its storage with the collection root instead of copying.
		wrap := xmltree.NewElement("doc")
		wrap.SetAttr("name", d.Name)
		if de := d.Root.DocumentElement(); de != nil {
			wrap.AppendChild(de.Clone())
		}
		root.AppendChild(wrap)
	}
	// Freeze the collection root itself: concurrent evaluations get
	// memoized string/typed values, any constructor that copies from it
	// clones lazily, and the root becomes a valid index anchor — the first
	// `//name` or `[@attr = 'v']` probe against the collection builds its
	// structural/value index once, and every later request (any tenant)
	// shares it. A reload that changes any file of the collection builds a
	// fresh root, so the old index is dropped atomically with the tree it
	// describes; an unchanged collection keeps both.
	xmltree.Freeze(root)
	col.Root = root
	return col, nil
}

// loadDoc reads one file under the load hook (once per attempt) and the
// retry policy, hashing it on the way. A file whose size and hash match
// prev keeps prev's frozen tree and is not parsed; any other file is
// parsed straight off the reader, so the raw bytes never exist as one
// in-memory string next to the tree. A retried attempt re-opens the file,
// so a transient fault mid-parse starts over from a clean scanner.
func (st *Store) loadDoc(op, path, name string, prev *Doc) (Doc, error) {
	d := Doc{Name: name}
	err := faultinject.Retry(st.opts.Retry, func() error {
		if st.opts.Hook != nil {
			if err := st.opts.Hook(op); err != nil {
				return err
			}
		}
		fh, e := os.Open(path)
		if e != nil {
			return e
		}
		defer fh.Close()
		d.Bytes = 0
		if fi, e := fh.Stat(); e == nil {
			d.Bytes = fi.Size()
		}
		var h maphash.Hash
		h.SetSeed(st.seed)
		if prev != nil && prev.Bytes == d.Bytes {
			if _, e := io.Copy(&h, fh); e != nil {
				return e
			}
			if h.Sum64() == prev.sum {
				d.Root, d.sum = prev.Root, prev.sum
				return nil
			}
			if _, e := fh.Seek(0, io.SeekStart); e != nil {
				return e
			}
			h.Reset()
		}
		// A successful parse reads to EOF, so the hash covers the file.
		doc, e := xmltree.ParseReader(io.TeeReader(fh, &h))
		if e != nil {
			return fmt.Errorf("parse: %w", e)
		}
		// Freeze the parsed document so it can anchor a structural/value
		// index: fn:doc evaluations share one lazily-built index per
		// document, across requests, tenants and the reloads that keep it.
		d.Root, d.sum = xmltree.Freeze(doc), h.Sum64()
		return nil
	})
	return d, err
}

// Index returns the collection's structural/value index, building the
// DocIndex shell on first use (sections build lazily on first probe).
func (c *Collection) Index() (*index.DocIndex, bool) {
	return index.For(c.Root)
}

// IndexInfo describes one collection's index state for /stats.
type IndexInfo struct {
	Collection string `json:"collection"`
	// Built/AttrsBuilt report whether the structural and attribute-value
	// sections have been constructed (they build lazily on first probe).
	Built      bool `json:"built"`
	AttrsBuilt bool `json:"attrs_built"`
	Elements   int  `json:"elements,omitempty"`
	Names      int  `json:"names,omitempty"`
	Paths      int  `json:"paths,omitempty"`
	AttrKeys   int  `json:"attr_keys,omitempty"`
}

// IndexState reports, per collection, whether (and how much of) the
// snapshot's index state has been built, without forcing any builds. Sorted
// by collection name.
func (s *Snapshot) IndexState() []IndexInfo {
	out := make([]IndexInfo, 0, len(s.cols))
	for _, name := range s.Names() {
		c := s.cols[name]
		info := IndexInfo{Collection: name}
		if ix, ok := index.Peek(c.Root); ok {
			st := ix.Info()
			info.Built, info.AttrsBuilt = st.Built, st.AttrsBuilt
			info.Elements, info.Names = st.Elements, st.Names
			info.Paths, info.AttrKeys = st.Paths, st.AttrKeys
		}
		out = append(out, info)
	}
	return out
}
