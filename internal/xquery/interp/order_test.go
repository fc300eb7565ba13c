package interp

import (
	"slices"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
)

// TestPathOrderProof checks the document-order proof of evalSteps: a step
// whose output order is proven skips the sort, and every path, skipped or
// sorted, returns what a sort after every step returns. Sorts are observed
// through the scratch-pool counter the sort path bumps.
func TestPathOrderProof(t *testing.T) {
	const nested = `<r><a x="1"><b>1</b><a x="2"><b>2</b></a><b>3</b></a><a x="3"><b>4</b></a></r>`
	const items = `<r><item n="1"><price>3</price><price>4</price></item><item n="2"><price>5</price></item></r>`
	const sibs = `<r><x/><y>1</y><y>2</y><x/></r>`
	// sorts reports, per plan (unoptimized, then O2 with index probes over
	// a frozen tree), whether the path sorts at all.
	cases := []struct {
		name, src, doc, want string
		sorts                [2]bool
	}{
		// Still sorted: the input is not an antichain, the axis runs in
		// reverse, or a filter step builds the input.
		{"desc-child-nested", `//a/b`, nested, `<b>1</b> <b>2</b> <b>3</b> <b>4</b>`, [2]bool{true, true}},
		{"desc-attr-nested", `//a/@x`, nested, `x="1" x="2" x="3"`, [2]bool{true, false}},
		{"parent", `//b/..`, nested, `<a x="1"><b>1</b><a x="2"><b>2</b></a><b>3</b></a> <a x="2"><b>2</b></a> <a x="3"><b>4</b></a>`, [2]bool{true, true}},
		{"ancestor", `/r/a/a/b/ancestor::*`, nested, `<r><a x="1"><b>1</b><a x="2"><b>2</b></a><b>3</b></a><a x="3"><b>4</b></a></r> <a x="1"><b>1</b><a x="2"><b>2</b></a><b>3</b></a> <a x="2"><b>2</b></a>`, [2]bool{true, true}},
		{"preceding-sibling", `/r/y/preceding-sibling::*[1]`, sibs, `<x/> <y>1</y>`, [2]bool{true, true}},
		{"preceding-sibling-single", `/r/x[2]/preceding-sibling::*`, sibs, `<x/> <y>1</y> <y>2</y>`, [2]bool{true, true}},
		{"ancestor-or-self-single", `/r/a[1]/a/ancestor-or-self::a`, nested, `<a x="1"><b>1</b><a x="2"><b>2</b></a><b>3</b></a> <a x="2"><b>2</b></a>`, [2]bool{true, true}},
		{"union-primary", `(/r/a[2] | /r/a[1])/b`, nested, `<b>1</b> <b>3</b> <b>4</b>`, [2]bool{true, true}},
		// Proven, so never sorted (the unfused // of the unoptimized plan
		// still sorts its child step).
		{"child-chain", `/r/a/b`, nested, `<b>1</b> <b>3</b> <b>4</b>`, [2]bool{false, false}},
		{"desc-attr", `//item/@n`, items, `n="1" n="2"`, [2]bool{true, false}},
		{"variable-child", `$b/price`, items, `<price>3</price> <price>4</price>`, [2]bool{false, false}},
		{"descendant", `/r/descendant::b`, nested, `<b>1</b> <b>2</b> <b>3</b> <b>4</b>`, [2]bool{false, false}},
		{"following-sibling", `/r/x[1]/following-sibling::y`, sibs, `<y>1</y> <y>2</y>`, [2]bool{false, false}},
		{"predicate-keeps", `/r/a/b[. != '3']`, nested, `<b>1</b> <b>4</b>`, [2]bool{false, false}},
		{"self", `/r/a/self::a/b`, nested, `<b>1</b> <b>3</b> <b>4</b>`, [2]bool{false, false}},
	}
	for _, tc := range cases {
		for level, optimize := range []bool{false, true} {
			doc := xmltree.Freeze(xmltree.MustParse(tc.doc))
			vars := map[string]xdm.Sequence{
				"b": xdm.Singleton(xdm.NewNode(doc.DocumentElement().Children()[0])),
			}
			got, sorted := evalCountingSorts(t, tc.src, optimize, xdm.NewNode(doc), vars)
			if out := SerializeSeq(got); out != tc.want {
				t.Errorf("%s (optimized=%v) = %q, want %q", tc.src, optimize, out, tc.want)
			}
			assertDocOrder(t, got)
			if sorted != tc.sorts[level] {
				t.Errorf("%s (optimized=%v): sorted=%v, want %v", tc.src, optimize, sorted, tc.sorts[level])
			}
		}
	}

	// Across trees, the attribute step keeps the sorted input's per-tree
	// grouping, which is SortDoc's order whatever the trees' addresses.
	d1 := xmltree.MustParse(`<e a="1"/>`).DocumentElement()
	d2 := xmltree.MustParse(`<e a="2"/>`).DocumentElement()
	vars := map[string]xdm.Sequence{
		"d1": xdm.Singleton(xdm.NewNode(d1)),
		"d2": xdm.Singleton(xdm.NewNode(d2)),
	}
	got, _ := evalCountingSorts(t, `($d2, $d1)/@a`, true, nil, vars)
	if len(got) != 2 {
		t.Fatalf("cross-tree: got %d attributes, want 2", len(got))
	}
	assertDocOrder(t, got)
}

// evalCountingSorts evaluates src, optimized at O2 or not, and reports whether any document-order
// sort ran.
func evalCountingSorts(t *testing.T, src string, optimize bool, ctx xdm.Item, vars map[string]xdm.Sequence) (xdm.Sequence, bool) {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if optimize {
		optimizer.Optimize(mod, optimizer.Options{Level: optimizer.O2})
	}
	ip, err := New(mod, Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	before, _ := xmltree.PoolCounters()
	got, err := ip.Eval(nil, ctx, vars, nil)
	after, _ := xmltree.PoolCounters()
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return got, after != before
}

// assertDocOrder checks that seq is a fixed point of the document-order
// sort: in order and free of duplicates.
func assertDocOrder(t *testing.T, seq xdm.Sequence) {
	t.Helper()
	resorted, err := xdm.SortDoc(slices.Clone(seq))
	if err != nil {
		t.Fatal(err)
	}
	if len(resorted) != len(seq) {
		t.Fatalf("result holds duplicates: %d items, %d distinct", len(seq), len(resorted))
	}
	for i := range seq {
		a, _ := xdm.IsNode(seq[i])
		b, _ := xdm.IsNode(resorted[i])
		if a != b {
			t.Fatalf("result not in document order at %d", i)
		}
	}
}
