package xmltree

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzParseSeeds are FuzzParse's hand-written seeds (the parse snapshot
// covers them too).
var fuzzParseSeeds = []string{
	`<a/>`,
	`<a b="c">text</a>`,
	`<?xml version="1.0"?><root><child attr='v'>&amp;&#65;</child></root>`,
	`<a><!-- comment --><?pi data?><![CDATA[<raw>]]></a>`,
	`<a><b><c/></b></a>`,
	`<!DOCTYPE html [ <!ENTITY x "y"> ]><html/>`,
	`<a`, `</a>`, `<a>&bad;</a>`, `<a b=c/>`, `<a><b></a></b>`,
	"<a>\xff\xfe</a>",
}

// FuzzParse asserts the panic contract: no input, however malformed, may
// panic the parser — every failure must be a returned *ParseError.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	// Real documents from the repo's test corpus, when run from the source
	// tree (the corpus dir is absent in some fuzz-worker contexts).
	if files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.xml")); err == nil {
		for _, path := range files {
			if data, err := os.ReadFile(path); err == nil {
				f.Add(string(data))
			}
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := Parse(input)
		if err == nil && doc == nil {
			t.Fatal("Parse returned nil document without error")
		}
		frag, err := ParseFragment(input)
		_ = frag
		_ = err
	})
}
