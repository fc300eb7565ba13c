package xq_test

import (
	"context"
	"testing"

	"lopsided/xq"
)

// TestNoOptionCallAllocs pins the allocation count of the no-option Eval
// and Transform paths, which reuse the query's own config instead of
// copying it to the heap per call (one allocation more each).
func TestNoOptionCallAllocs(t *testing.T) {
	ctx := context.Background()
	doc := mustDoc(t, `<a><b>1</b><b>2</b></a>`)
	q, err := xq.Compile(`count(/a/b)`)
	if err != nil {
		t.Fatal(err)
	}
	u, err := xq.CompileUpdate(`insert <c/> into /a`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Eval", 9, func() { _, _ = q.Eval(ctx, doc) }},
		{"Transform", 25, func() { _, _ = u.Transform(ctx, doc) }},
	} {
		if got := testing.AllocsPerRun(200, c.run); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}
