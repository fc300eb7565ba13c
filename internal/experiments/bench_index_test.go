package experiments

import (
	"testing"

	"lopsided/xq"
)

// The index benchmarks pin the F4 corpus shapes as allocation-gated
// regression tests (BENCH_index.json, cmd/benchcheck): one descendant name
// scan and one folded attribute-equality probe, each indexed and as the
// forced tree walk, plus a child-existence predicate that asks the path
// synopsis once per candidate. The indexed variants' allocs/op is the gate — an index
// probe that starts copying node lists or rebuilding sections per
// evaluation shows up there deterministically, whatever the runner's clock
// does.

func benchCorpus(b *testing.B) *xq.Node {
	b.Helper()
	doc, err := f4Doc(40, 100)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

func benchEval(b *testing.B, query string, indexed bool, want string) {
	doc := benchCorpus(b)
	opts := []xq.Option{xq.WithOptLevel(xq.O2)}
	if !indexed {
		opts = append(opts, xq.WithAccessPaths(false))
	}
	q, err := xq.Compile(query, opts...)
	if err != nil {
		b.Fatal(err)
	}
	// Warm outside the timed loop: builds the lazy index sections (indexed
	// runs) and checks the result once.
	got, err := q.EvalString(nil, doc)
	if err != nil {
		b.Fatal(err)
	}
	if got != want {
		b.Fatalf("eval %q = %q, want %q", query, got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EvalString(nil, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedDescScan(b *testing.B) {
	benchEval(b, `count(//item)`, true, "4000")
}

func BenchmarkTreeWalkDescScan(b *testing.B) {
	benchEval(b, `count(//item)`, false, "4000")
}

func BenchmarkIndexedAttrProbe(b *testing.B) {
	benchEval(b, `count(//item[@k = 'k7'])`, true, "250")
}

func BenchmarkTreeWalkAttrProbe(b *testing.B) {
	benchEval(b, `count(//item[@k = 'k7'])`, false, "250")
}

// BenchmarkIndexedChildPredicate probes the synopsis (ChildMayExist) once
// per item, so any per-probe allocation multiplies by 4000 here.
func BenchmarkIndexedChildPredicate(b *testing.B) {
	benchEval(b, `count(//item[title])`, true, "4000")
}
