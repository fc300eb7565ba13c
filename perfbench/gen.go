package main

// gen.go makes every input the benchmark feeds the program, from the seed
// alone: the serve-mix corpus and request sequence, the docgen-batch job
// list, and the stream-scan documents. The seed varies content (years,
// prices, titles, parameters, order) but never sizes or class proportions,
// so two seeds cost the program the same amount of work.
//
// The generators also keep the facts the reference checks need (counts,
// sums, sorted titles, document text), computed here from the generated
// data and never by the engine under test.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"lopsided/internal/workload"
)

// Corpus sizing for serve-mix: collections × docs × books.
const (
	corpusCollections = 4
	corpusDocs        = 4
	corpusBooks       = 500
	yearBase          = 1990
	yearSpan          = 30
)

var titleWords = []string{
	"Amber", "Basalt", "Cedar", "Delta", "Ember", "Fjord", "Garnet", "Harbor",
	"Indigo", "Juniper", "Kestrel", "Lantern", "Meadow", "Nimbus", "Onyx", "Prairie",
}

var authorNames = []string{
	"Ada", "Boris", "Chen", "Dana", "Emil", "Fatima", "Goran", "Hana", "Ines", "Jonas",
}

// book is one generated record, in document order within its collection.
type book struct {
	ID, Title, Author string
	Year, Price       int
}

// collectionData is one generated collection and its reference facts.
type collectionData struct {
	Name  string
	Docs  []string // document text, one per doc, in name order d0, d1, …
	Books []book   // every book of the collection, in document order
	Text  string   // serialization of the store's collection root
}

// corpus is the serve-mix data set.
type corpus struct {
	Cols []collectionData
}

func genCorpus(seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_c0de))
	c := &corpus{}
	for ci := 0; ci < corpusCollections; ci++ {
		col := collectionData{Name: fmt.Sprintf("lib%d", ci)}
		for di := 0; di < corpusDocs; di++ {
			var b strings.Builder
			fmt.Fprintf(&b, `<lib name="%s/d%d">`, col.Name, di)
			for bi := 0; bi < corpusBooks; bi++ {
				bk := book{
					ID:     fmt.Sprintf("c%dd%db%d", ci, di, bi),
					Year:   yearBase + rng.Intn(yearSpan),
					Price:  5 + rng.Intn(195),
					Author: authorNames[rng.Intn(len(authorNames))],
				}
				bk.Title = titleWords[rng.Intn(len(titleWords))] + " " + titleWords[rng.Intn(len(titleWords))] + " " + bk.ID
				fmt.Fprintf(&b, `<book id="%s" year="%d"><title>%s</title><author>%s</author><price>%d</price></book>`,
					bk.ID, bk.Year, bk.Title, bk.Author, bk.Price)
				col.Books = append(col.Books, bk)
			}
			b.WriteString(`</lib>`)
			col.Docs = append(col.Docs, b.String())
		}
		col.Text = col.collectionText()
		c.Cols = append(c.Cols, col)
	}
	return c
}

// write lays the corpus out as an xqd data directory: one subdirectory per
// collection, one file per document.
func (c *corpus) write(dir string) error {
	for _, col := range c.Cols {
		cd := filepath.Join(dir, col.Name)
		if err := os.MkdirAll(cd, 0o755); err != nil {
			return err
		}
		for i, d := range col.Docs {
			if err := os.WriteFile(filepath.Join(cd, fmt.Sprintf("d%d.xml", i)), []byte(d), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// docCount is the number of documents the store should report.
func (c *corpus) docCount() int { return len(c.Cols) * corpusDocs }

// collectionText is the serialization of the store's synthetic collection
// root: <collection name=…> wrapping each document element in <doc name=…>.
func (col *collectionData) collectionText() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<collection name="%s">`, col.Name)
	for i, d := range col.Docs {
		fmt.Fprintf(&b, `<doc name="d%d">%s</doc>`, i, d)
	}
	b.WriteString(`</collection>`)
	return b.String()
}

// ---- serve-mix request sequence ----

// Request classes of serve-mix.
const (
	clsCount     = "q.count"
	clsProbe     = "q.probe"
	clsReport    = "q.report"
	clsAgg       = "q.agg"
	clsDump      = "q.dump"
	clsAdhoc     = "q.adhoc"
	clsTransform = "transform"
	clsVerify    = "transform.verify"
	clsReload    = "reload"
)

// blockMix is one block of the request sequence before shuffling: the
// class proportions are exact per block, only the order depends on the seed.
// An attribute-axis class, count(/collection//@year), is left out: at the
// server's default O2 it returns 0 (the optimizer fuses //@year into
// descendant::year), and a benchmark runs only operations that succeed.
// It belongs back in the mix once that defect is fixed.
var blockMix = []struct {
	class string
	n     int
}{
	{clsCount, 3}, {clsProbe, 3}, {clsReport, 2}, {clsAgg, 2},
	{clsDump, 2}, {clsAdhoc, 3}, {clsTransform, 2},
}

const (
	blockSize   = 17  // sum of blockMix counts
	reloadEvery = 200 // every reloadEvery-th request is a /reload
	tenants     = 4
)

// request is one serve-mix operation. A transform carries its follow-up
// read, which the same client sends right after it.
type request struct {
	Index  int
	Class  string
	Path   string // /query, /transform or /reload
	Body   string // JSON body ("" for reload)
	Col    int    // collection index
	Expect string // expected result text (query classes)
	// For transform: the year whose books get the attribute.
	Year int
}

// mix64 is splitmix64, used to derive per-request randomness from
// (seed, index) so the sequence does not depend on client interleaving.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rngFor(seed int64, salt, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*0x100000001b3 ^ uint64(salt)<<40 ^ uint64(i)))))
}

// classAt returns the class of request i: every reloadEvery-th request is
// a reload; the others walk seeded shuffles of blockMix.
func classAt(seed int64, i int) string {
	if i%reloadEvery == reloadEvery-1 {
		return clsReload
	}
	j := i - i/reloadEvery // index among non-reload requests
	block, pos := j/blockSize, j%blockSize
	classes := make([]string, 0, blockSize)
	for _, m := range blockMix {
		for k := 0; k < m.n; k++ {
			classes = append(classes, m.class)
		}
	}
	r := rngFor(seed, 1, block)
	r.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
	return classes[pos]
}

// requestAt builds request i of the sequence with its expected answer.
func (c *corpus) requestAt(seed int64, i int) request {
	cls := classAt(seed, i)
	r := rngFor(seed, 2, i)
	req := request{Index: i, Class: cls, Col: r.Intn(len(c.Cols))}
	col := &c.Cols[req.Col]
	tenant := fmt.Sprintf("t%d", r.Intn(tenants))
	query := func(q string) {
		req.Path = "/query"
		req.Body = mustJSON(map[string]string{"query": q, "collection": col.Name, "tenant": tenant})
	}
	switch cls {
	case clsCount:
		query(`count(/collection//book)`)
		req.Expect = strconv.Itoa(len(col.Books))
	case clsProbe:
		y := yearBase + r.Intn(yearSpan)
		query(fmt.Sprintf(`//book[@year='%d']/title`, y))
		var parts []string
		for _, b := range col.Books {
			if b.Year == y {
				parts = append(parts, "<title>"+b.Title+"</title>")
			}
		}
		req.Expect = strings.Join(parts, " ")
	case clsReport:
		p := 95 + r.Intn(11)
		query(fmt.Sprintf(`for $b in /collection//book where number($b/price) >= %d order by string($b/title) return <r id="{$b/@id}">{string($b/title)}</r>`, p))
		var sel []book
		for _, b := range col.Books {
			if b.Price >= p {
				sel = append(sel, b)
			}
		}
		sort.SliceStable(sel, func(a, b int) bool { return sel[a].Title < sel[b].Title })
		parts := make([]string, len(sel))
		for k, b := range sel {
			parts[k] = `<r id="` + b.ID + `">` + b.Title + `</r>`
		}
		req.Expect = strings.Join(parts, " ")
	case clsAgg:
		query(`sum(/collection/doc/lib/book/price)`)
		sum := 0
		for _, b := range col.Books {
			sum += b.Price
		}
		req.Expect = strconv.Itoa(sum)
	case clsDump:
		d := r.Intn(len(col.Docs))
		query(fmt.Sprintf(`/collection/doc[@name='d%d']/lib`, d))
		req.Expect = col.Docs[d]
	case clsAdhoc:
		base := 20 + r.Intn(160)
		// The fractional part is unique per request, so every ad hoc
		// source text is new to the tenant's plan cache.
		query(fmt.Sprintf(`count(/collection//book[price >= %d.%06d])`, base, i%999999+1))
		n := 0
		for _, b := range col.Books {
			if b.Price > base {
				n++
			}
		}
		req.Expect = strconv.Itoa(n)
	case clsTransform:
		req.Year = yearBase + r.Intn(yearSpan)
		req.Path = "/transform"
		req.Body = mustJSON(map[string]string{
			"update":     fmt.Sprintf(`for $b in /collection//book[@year='%d'] return insert attribute audited { "1" } into $b`, req.Year),
			"collection": col.Name, "tenant": tenant,
		})
	case clsReload:
		req.Path = "/reload"
	}
	return req
}

// verifyRequest is the read a client sends right after a transform: the
// stored collection must still have no audited book.
func (c *corpus) verifyRequest(tr request) request {
	col := &c.Cols[tr.Col]
	req := request{Index: tr.Index, Class: clsVerify, Path: "/query", Col: tr.Col, Expect: "0"}
	req.Body = mustJSON(map[string]string{"query": `count(/collection//book[@audited])`, "collection": col.Name, "tenant": "t0"})
	return req
}

// ---- docgen-batch jobs ----

// docJob is one document to generate: model and template as XML text.
type docJob struct {
	Name     string
	Model    string
	Template string
}

// itSizes are the IT model sizes (users) from small to medium.
var itSizes = []int{6, 10, 14, 18, 24}

const glassModels = 3

// genJobs builds one rotation of the docgen job list: every IT size with
// the quick and system-context templates, plus the glass models with the
// catalog template.
func genJobs(seed int64) []docJob {
	var jobs []docJob
	for k, u := range itSizes {
		m := workload.BuildITModel(workload.Config{
			Seed: seed*131 + int64(k), Users: u, Systems: u/4 + 1, Servers: u/4 + 2, Programs: u/3 + 2, Docs: u/4 + 2,
		}).ExportXMLString()
		jobs = append(jobs,
			docJob{Name: fmt.Sprintf("it%d.quick", u), Model: m, Template: workload.QuickTemplate},
			docJob{Name: fmt.Sprintf("it%d.sysctx", u), Model: m, Template: workload.SystemContextTemplate})
	}
	for g := 0; g < glassModels; g++ {
		jobs = append(jobs, docJob{
			Name:     fmt.Sprintf("glass%d", g),
			Model:    workload.BuildGlassModel(seed*977 + int64(g)).ExportXMLString(),
			Template: workload.GlassCatalogTemplate,
		})
	}
	return jobs
}

// ---- stream-scan documents ----

const streamItems = 25000

// streamDoc is one generated stream-scan input and its reference answers.
type streamDoc struct {
	Shape string // "flat" or "grouped"
	Text  string
	// Reference answers of the three scan queries.
	CountK7, SumN, Parents int
}

// genStreamDocs renders F6's catalog (section/item/title/blurb records) in
// two shapes: flat puts every section under the root, grouped puts 100
// sections under each <group>. The records, their order and the item
// attributes come from the seed.
func genStreamDocs(seed int64) []streamDoc {
	rng := rand.New(rand.NewSource(seed ^ 0x57_4ea3))
	type rec struct{ n, k int }
	recs := make([]rec, streamItems)
	for i := range recs {
		recs[i] = rec{n: rng.Intn(10_000), k: rng.Intn(16)}
	}
	var out []streamDoc
	for _, group := range []int{0, 100} {
		var b strings.Builder
		b.Grow(streamItems * 170)
		d := streamDoc{Shape: "flat"}
		if group > 0 {
			d.Shape = "grouped"
		}
		b.WriteString(`<catalog>`)
		for i, r := range recs {
			if group > 0 && i%group == 0 {
				b.WriteString(`<group>`)
			}
			fmt.Fprintf(&b, `<section n="%d">`, i)
			fmt.Fprintf(&b, `<item n="%d" k="k%d"><title>Item number %d</title></item>`, r.n, r.k, i)
			fmt.Fprintf(&b, `<blurb>Filler prose the query never inspects, item %d edition.</blurb>`, i)
			b.WriteString(`</section>`)
			if group > 0 && (i%group == group-1 || i == len(recs)-1) {
				b.WriteString(`</group>`)
			}
			if r.k == 7 {
				d.CountK7++
			}
			d.SumN += r.n
		}
		b.WriteString(`</catalog>`)
		d.Text = b.String()
		d.Parents = len(recs) // every item sits in its own section
		out = append(out, d)
	}
	return out
}
