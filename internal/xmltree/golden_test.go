package xmltree

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseGoldenPath pins the parser's exact verdict — serialized tree or
// *ParseError text with line:col — on every parity input, fuzz seed and
// corpus document under every option set. The file was captured from the
// recursive-descent string parser the byte-window scanner replaced, so
// error text and positions carry over byte for byte. Regenerate with
// UPDATE_GOLDEN=1 only for a deliberate change of the parser's language.
//
// One line per case: options, input, document verdict and (default options
// only) fragment verdict, tab-separated and each Go-quoted, so invalid
// UTF-8 in the inputs survives the round trip.
const parseGoldenPath = "testdata/parse_golden.txt"

// goldenExtraInputs widen the snapshot past parityInputs: one malformed
// document per error site and position rule (errors after a closing quote,
// at '&', at EOF, past a newline, inside a multi-byte name, …).
var goldenExtraInputs = []string{
	`<a b="1"c="2"/>`, `<a/ >`, `<a></a >`, `<a></a`, `</a>`, `<a/`, `<a b`,
	`<a b=`, `<a b="`, `<a b="1"`, `<a b="1"/`, `<a>&lt`, `<a>&`, `<a>&;</a>`,
	`<a>&#;</a>`, `<a>&#x;</a>`, `<a b="&#xD800;"/>`, `<a>&#x110000;</a>`,
	`<a>&abcdefghijklmnop;</a>`, `<a>&abcdefghijk;</a>`, `<a>&abcdefghijkl;</a>`,
	`<a b="&abcdefghijklmnop;"/>`, `<a b="x&amp"/>`, `<a b="&amp;&amp"/>`,
	"<a>\n<b\n c=\"1\"\n c=\"2\"/></a>", "<a>\n\n  <b>\n</a>", "<a\n", "\n\n<a>\r\n&bad;</a>",
	`<?xml?><a/>`, `<?pi?><a/>`, `<? ?><a/>`, `<a><? ?></a>`, `<?xml-stylesheet x?><a/>`,
	`<a/><?xml version="1.0"?>`, `<!-- x --><!DOCTYPE [ > ] ><a/>`, `<!DOCTYPE a [ [ ] ]><a/>`,
	"<\xff/>", "<\xc3\xa9>x</\xc3\xa9>", "<a\xc3\xa9 b\xff=\"1\"/>", "<a>x</a\xc3>",
	`<a>x</a>trailing`, `<a>x</a><!--c-->`, " <a/>", "\t<a/>\n", `<![CDATA[x]]><a/>`,
	`<a><![CDATA[]]]]><![CDATA[>]]></a>`, `<a>]]]></a>`, `<a><!DOCTYPE`, `<!--->`,
	`<!----><a/>`, `<a><!----></a>`, `<a><!--->--></a>`, `<a>  </a>`, `<a> <!--c--> </a>`,
	`<a> <![CDATA[ ]]> </a>`, "<a> </a>", `<a> <?p?> </a>`, `<a> <b/> </a>`,
	`<a>x<!--c-->y</a>`, `<a>x<![CDATA[y]]>&amp;z</a>`, `<a b="'" c='"'/>`,
	`<a b = "1" />`, "<a\tb\n=\r'1'/>", `<a:b:c/>`, `<_.-9/>`, `<.a/>`, `<-a/>`, `<9/>`,
	`<a>&#65;&#x10FFFF;&#X41;</a>`, `<a>&#+65;</a>`, `<a>&#x-1;</a>`, `<a>&#4294967296;</a>`,
	`<a><b><c></b></c></a>`, `<a><b/></a><a/>`, `<a></a></a>`, `<a>x</a> `, `<a/>&amp;`,
	strings.Repeat("<d>", 5) + strings.Repeat("</d>", 5),
}

// goldenOptions are the option sets every input is parsed under.
var goldenOptions = []struct {
	name string
	opts ParseOptions
}{
	{"default", ParseOptions{}},
	{"trim", ParseOptions{TrimWhitespace: true}},
	{"drop", ParseOptions{DropComments: true}},
	{"trim+drop", ParseOptions{TrimWhitespace: true, DropComments: true}},
	{"depth3", ParseOptions{MaxDepth: 3}},
}

type goldenCase struct {
	Opts, In, Doc, Frag string
}

func (c goldenCase) line() string {
	return strings.Join([]string{strconv.Quote(c.Opts), strconv.Quote(c.In),
		strconv.Quote(c.Doc), strconv.Quote(c.Frag)}, "\t")
}

func parseGoldenLine(line string) (goldenCase, error) {
	f := strings.Split(line, "\t")
	if len(f) != 4 {
		return goldenCase{}, fmt.Errorf("want 4 fields, got %d", len(f))
	}
	var vals [4]string
	for i := range f {
		v, err := strconv.Unquote(f[i])
		if err != nil {
			return goldenCase{}, err
		}
		vals[i] = v
	}
	return goldenCase{Opts: vals[0], In: vals[1], Doc: vals[2], Frag: vals[3]}, nil
}

// goldenInputs gathers every input the snapshot covers, in a stable order.
func goldenInputs(t *testing.T) []string {
	t.Helper()
	var ins []string
	ins = append(ins, parityInputs...)
	ins = append(ins, projDoc)
	ins = append(ins, fuzzParseSeeds...)
	ins = append(ins, goldenExtraInputs...)
	ins = append(ins, strings.Repeat("<a>", 50)+strings.Repeat("</a>", 50))
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, string(data))
	}
	return ins
}

// verdict renders one parse outcome: the error text, or the tree plus its
// node count.
func verdict(n *Node, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("ok %d: %s", CountNodes(n), n.String())
}

func fragVerdict(nodes []*Node, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ok %d:", len(nodes))
	for _, n := range nodes {
		if n.Parent != nil {
			return "fragment node has a parent"
		}
		b.WriteString(" ")
		b.WriteString(n.String())
	}
	return b.String()
}

func computeGolden(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, in := range goldenInputs(t) {
		for _, o := range goldenOptions {
			c := goldenCase{In: in, Opts: o.name}
			c.Doc = verdict(ParseWith(in, o.opts))
			if o.name == "default" {
				c.Frag = fragVerdict(ParseFragment(in))
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestParseGolden compares the in-memory parse of every input against the
// snapshot, then checks that a reader parse of the same bytes — whole and
// split at every chunk size — agrees.
func TestParseGolden(t *testing.T) {
	got := computeGolden(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, c := range got {
			b.WriteString(c.line())
			b.WriteByte('\n')
		}
		if err := os.WriteFile(parseGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(parseGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		c, err := parseGoldenLine(line)
		if err != nil {
			t.Fatalf("%s:%d: %v", parseGoldenPath, i+1, err)
		}
		want = append(want, c)
	}
	if len(want) != len(got) {
		t.Fatalf("snapshot holds %d cases, computed %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("input %q (%s):\n  got:  %+v\n  want: %+v", want[i].In, want[i].Opts, got[i], want[i])
		}
	}
	for _, c := range want {
		var opts ParseOptions
		for _, o := range goldenOptions {
			if o.name == c.Opts {
				opts = o.opts
			}
		}
		checkParity(t, c.In, opts)
	}
}
