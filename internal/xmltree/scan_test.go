package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// parityInputs are documents — valid and malformed — that the in-memory
// window and every reader split must judge identically: same tree or same
// *ParseError text and position.
var parityInputs = []string{
	`<a/>`,
	`<a></a>`,
	`<a>text</a>`,
	`<a b="1" c="2">x<d/>y</a>`,
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.0"?>
<!DOCTYPE a [<!ELEMENT a EMPTY>]>
<!-- before --><a><!-- in --><?pi  data?></a><!-- after -->`,
	`<a>x &lt;&gt;&amp;&quot;&apos; &#65;&#x42; y</a>`,
	`<a><![CDATA[<raw&stuff>]]></a>`,
	`<a>pre<![CDATA[mid]]>post</a>`,
	`<a>x]]<![CDATA[>y]]>z</a>`, // "]]" before CDATA must not complete "]]>"
	`<a b="&amp;&#x3C;"/>`,
	`<a b='sq'/>`,
	"<a>\n  <b>1</b>\n  <b>2</b>\n</a>",
	`<ns:a ns:b="1"><ns:c/></ns:a>`,
	`<a><b><c><d>deep</d></c></b></a>`,
	`<a - comment with --- dashes -->x</a>`, // malformed: '-' not a name start? actually '-' fails name
	`<a><!-- - -- ---></a>`,                 // tricky comment terminator
	`<a><?t?></a>`,
	`<a><?t   leading ws?></a>`,

	// Malformed inputs: the error text and position must match exactly.
	``,
	`   `,
	`<a>`,
	`<a><b></a></b>`,
	`<a></b>`,
	`<a`,
	`<a b></a>`,
	`<a b=></a>`,
	`<a b="x></a>`,
	`<a b="x" b="y"/>`,
	`<a>&unknown;</a>`,
	`<a>&#xZZ;</a>`,
	`<a>&#99999999999;</a>`,
	`<a>&noend</a>`,
	`<a b="&bad;"/>`,
	`<a b="&noend"/>`,
	`<a b="<"/>`,
	`<a/><b/>`,
	`text at top`,
	`<a><!-- unterminated</a>`,
	`<a><![CDATA[unterminated</a>`,
	`<a><?pi unterminated</a>`,
	`<?xml unterminated`,
	`<!DOCTYPE unterminated`,
	`<1bad/>`,
	`<a><1bad/></a>`,
	`<a>x<!DOCTYPE b></a>`, // DOCTYPE in content is "expected name"
}

// chunkReader returns at most n bytes per Read, so every window refill
// lands at a different offset of the input.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// splitReaders are the readers every parity input is fed through: refills
// after every byte, at half of every request, and at small odd strides, so
// splits land inside tags, names, entities, attribute values and the
// "-->", "]]>" and "?>" terminators.
var splitReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"chunk3", func(r io.Reader) io.Reader { return &chunkReader{r, 3} }},
	{"chunk7", func(r io.Reader) io.Reader { return &chunkReader{r, 7} }},
	{"chunk13", func(r io.Reader) io.Reader { return &chunkReader{r, 13} }},
}

// checkParity asserts that the single-window parse of input and a reader
// parse through every split reader agree: same tree or same *ParseError
// text and position.
func checkParity(t *testing.T, input string, opts ParseOptions) {
	t.Helper()
	if msg := parityDiff(input, opts); msg != "" {
		t.Fatal(msg)
	}
}

func parityDiff(input string, opts ParseOptions) string {
	want, wantErr := ParseWith(input, opts)
	for _, sr := range splitReaders {
		got, gotErr := ParseReaderWith(sr.wrap(strings.NewReader(input)), opts)
		if (wantErr == nil) != (gotErr == nil) {
			return fmt.Sprintf("input %q (%s): Parse err=%v, ParseReader err=%v", input, sr.name, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				return fmt.Sprintf("input %q (%s):\n  Parse err:       %v\n  ParseReader err: %v", input, sr.name, wantErr, gotErr)
			}
			continue
		}
		if ws, gs := want.String(), got.String(); ws != gs {
			return fmt.Sprintf("input %q (%s):\n  Parse:       %s\n  ParseReader: %s", input, sr.name, ws, gs)
		}
		if wc, gc := CountNodes(want), CountNodes(got); wc != gc {
			return fmt.Sprintf("input %q (%s): node counts differ: %d vs %d", input, sr.name, wc, gc)
		}
	}
	return ""
}

func TestParseReaderParity(t *testing.T) {
	for _, in := range parityInputs {
		checkParity(t, in, ParseOptions{})
	}
}

func TestParseReaderParityOptions(t *testing.T) {
	for _, in := range parityInputs {
		checkParity(t, in, ParseOptions{TrimWhitespace: true})
		checkParity(t, in, ParseOptions{DropComments: true})
		checkParity(t, in, ParseOptions{TrimWhitespace: true, DropComments: true})
		checkParity(t, in, ParseOptions{MaxDepth: 3})
	}
}

func TestParseReaderDepthLimit(t *testing.T) {
	deep := strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50)
	checkParity(t, deep, ParseOptions{MaxDepth: 10})
	checkParity(t, deep, ParseOptions{MaxDepth: 50})
	checkParity(t, deep, ParseOptions{})
}

func TestScannerBytesRead(t *testing.T) {
	in := `<a><b>x</b></a>`
	s := NewScanner(strings.NewReader(in), ParseOptions{})
	for {
		tok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
	}
	if got := s.BytesRead(); got != int64(len(in)) {
		t.Fatalf("BytesRead = %d, want %d", got, len(in))
	}
}

const projDoc = `<r>
  <item n="1" k="ka"><title>first</title><body>b1</body></item>
  <skipme><deep><deeper>nothing here</deeper></deep></skipme>
  <item n="2" k="kb"><title>second</title><body>b2</body></item>
  <other><item n="3" k="kc"><title>nested</title></item></other>
</r>`

func mustProject(t *testing.T, doc string, proj *Projection) (*Node, ProjStats) {
	t.Helper()
	n, st, err := ParseProjectedStats(strings.NewReader(doc), proj, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return n, st
}

func TestProjectedShellPath(t *testing.T) {
	// count(/r/item): shells only, no attrs, no text, no nested items.
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "r"}, {Name: "item"}}}}}
	n, st := mustProject(t, projDoc, proj)
	if got := n.String(); got != `<r><item/><item/></r>` {
		t.Fatalf("shell projection = %s", got)
	}
	if st.ElementsPruned == 0 || st.ElementsRetained != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProjectedSubtreeDescendant(t *testing.T) {
	// //item with subtree: all three items in full, ancestors as shells.
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}, Subtree: true}}}
	n, _ := mustProject(t, projDoc, proj)
	out := n.String()
	for _, want := range []string{`<title>first</title>`, `<title>second</title>`, `<title>nested</title>`, `n="3"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("projection %s missing %q", out, want)
		}
	}
	if strings.Contains(out, "skipme") || strings.Contains(out, "deeper") {
		t.Fatalf("projection retained a dead branch: %s", out)
	}
	// Ancestor retention: the nested item's <other> parent must be a shell.
	if !strings.Contains(out, "<other>") {
		t.Fatalf("projection dropped a required ancestor: %s", out)
	}
}

func TestProjectedAttributeOnly(t *testing.T) {
	// //item/@n: shells carrying only the n attribute.
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}, Attrs: []string{"n"}}}}
	n, _ := mustProject(t, projDoc, proj)
	out := n.String()
	if !strings.Contains(out, `n="1"`) || !strings.Contains(out, `n="3"`) {
		t.Fatalf("attribute-only projection lost @n: %s", out)
	}
	if strings.Contains(out, `k="`) || strings.Contains(out, "title") {
		t.Fatalf("attribute-only projection kept too much: %s", out)
	}
}

func TestProjectedDescUnderDesc(t *testing.T) {
	// //other//title: `//` under `//`, including repeated names on the spine.
	doc := `<r><other><x><other><title>inner</title></other></x><title>outer-other</title></other><title>top</title></r>`
	proj := &Projection{Paths: []ProjPath{{
		Steps:   []ProjStep{{Name: "other", Desc: true}, {Name: "title", Desc: true}},
		Subtree: true,
	}}}
	n, _ := mustProject(t, doc, proj)
	out := n.String()
	if !strings.Contains(out, "inner") || !strings.Contains(out, "outer-other") {
		t.Fatalf("desc-under-desc lost a match: %s", out)
	}
	if strings.Contains(out, ">top<") {
		t.Fatalf("desc-under-desc kept a non-match: %s", out)
	}
}

func TestProjectedWildcardAndPrefix(t *testing.T) {
	doc := `<r><ns:a><keep>x</keep></ns:a><b><keep>y</keep></b></r>`
	proj := &Projection{Paths: []ProjPath{{
		Steps:   []ProjStep{{Name: "r"}, {Name: "ns:*"}, {Name: "keep"}},
		Subtree: true,
	}}}
	n, _ := mustProject(t, doc, proj)
	out := n.String()
	if !strings.Contains(out, ">x<") || strings.Contains(out, ">y<") {
		t.Fatalf("prefix wildcard projection wrong: %s", out)
	}
}

func TestProjectedMalformedSkippedRegion(t *testing.T) {
	// Errors inside skipped subtrees must still surface, with the same
	// text the full parse reports.
	cases := []string{
		`<r><skip><bad b="1" b="2"/></skip><item/></r>`,
		`<r><skip>&nope;</skip><item/></r>`,
		`<r><skip><x></y></skip><item/></r>`,
		`<r><skip><!-- nope </skip><item/></r>`,
		`<r><skip attr="<"/><item/></r>`,
	}
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}}}}
	for _, doc := range cases {
		_, wantErr := Parse(doc)
		if wantErr == nil {
			t.Fatalf("case %q unexpectedly well-formed", doc)
		}
		_, _, gotErr := ParseProjectedStats(strings.NewReader(doc), proj, ParseOptions{})
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("case %q: projected err %v, want %v", doc, gotErr, wantErr)
		}
	}
}

func TestProjectedEverything(t *testing.T) {
	// A root-subtree projection must reproduce the full parse exactly.
	proj := &Projection{Paths: []ProjPath{{Subtree: true}}}
	n, _ := mustProject(t, projDoc, proj)
	want := MustParse(projDoc)
	if n.String() != want.String() {
		t.Fatalf("everything projection differs:\n%s\nvs\n%s", n.String(), want.String())
	}
}

func TestProjectedFrozen(t *testing.T) {
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}}}}
	n, _ := mustProject(t, projDoc, proj)
	if !n.IndexCacheable() {
		t.Fatal("projected tree is not frozen")
	}
}

// FuzzReaderParity compares the single-window parse of every input with
// reader parses split at every byte, at half reads and at small strides.
func FuzzReaderParity(f *testing.F) {
	for _, in := range parityInputs {
		f.Add(in)
	}
	for _, in := range goldenExtraInputs {
		f.Add(in)
	}
	f.Add(projDoc)
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		if msg := parityDiff(input, ParseOptions{}); msg != "" {
			t.Fatal(msg)
		}
		if msg := parityDiff(input, ParseOptions{TrimWhitespace: true, DropComments: true, MaxDepth: 5}); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestReaderWindowGrowth: tokens longer than the refill chunk (a text run,
// an attribute value, a comment, a CDATA section) make the window grow,
// and a long document makes it slide; both parse exactly like the
// in-memory window, error positions included.
func TestReaderWindowGrowth(t *testing.T) {
	big := strings.Repeat("x\ny", windowChunk)
	var many strings.Builder
	many.WriteString("<r>\n")
	for i := 0; many.Len() < 3*windowChunk; i++ {
		fmt.Fprintf(&many, "<i n=\"%d\">t &amp; %d<![CDATA[c]]></i><!--k-->\n", i, i)
	}
	long := many.String()
	for _, in := range []string{
		"<a>" + big + "</a>",
		`<a b="` + big + `"/>`,
		"<a><!--" + big + "--></a>",
		"<a><![CDATA[" + big + "]]></a>",
		"<a>" + big + "&amp;" + big + "</a>",
		"<a>" + big + "&bad;</a>",
		"<a><!--" + big + "</a>",
		long + "</r>",
		long + "<bad",
		long,
	} {
		if msg := parityDiff(in, ParseOptions{}); msg != "" {
			t.Fatal(msg[:min(len(msg), 400)])
		}
	}
}

// failingReader returns its data, then a non-EOF error.
type failingReader struct {
	data string
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data == "" {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReaderErrorSurfaces: a read that fails mid-document is reported as
// the read error, not as the parse error the truncation would look like.
func TestReaderErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{"<a><b>text", "<a/>", "<a b=\"1"} {
		_, err := ParseReader(&failingReader{data: in, err: boom})
		if !errors.Is(err, boom) {
			t.Fatalf("input %q: err = %v, want the read error", in, err)
		}
	}
}
