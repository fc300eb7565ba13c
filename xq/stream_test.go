package xq

import (
	"context"
	"strings"
	"testing"
)

const streamTestDoc = `<site>
  <people>
    <person id="p1" featured="yes"><name>Ann</name></person>
    <person id="p2"><name>Bo</name></person>
  </people>
  <items>
    <item id="i1"><name>lamp</name><price>10</price></item>
    <item id="i2"><name>rug</name><price>3</price></item>
  </items>
</site>`

// evalMaterialized is the reference: parse the whole document, evaluate.
func evalMaterialized(t *testing.T, src string) string {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	doc, err := ParseXML(streamTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.EvalString(context.Background(), doc)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func compileStream(t *testing.T, src string, opts ...Option) *StreamQuery {
	t.Helper()
	q, err := CompileStream(src, opts...)
	if err != nil {
		t.Fatalf("CompileStream %q: %v", src, err)
	}
	return q
}

func TestStreamModeVerdicts(t *testing.T) {
	cases := []struct {
		src  string
		mode StreamMode
	}{
		{`count(//item)`, StreamFull},
		{`//person/name`, StreamFull},
		{`exists(//person[@featured = "yes"])`, StreamFull},
		{`sum(//item/price)`, StreamProjected},
		{`for $p in /site/people/person return $p/name`, StreamProjected},
		{`.`, StreamMaterialize},
		{`//item/..`, StreamMaterialize},
	}
	for _, c := range cases {
		q := compileStream(t, c.src)
		if got := q.Mode(); got != c.mode {
			t.Errorf("%q: mode %v, want %v\nexplain:\n%s", c.src, got, c.mode, q.Explain())
		}
	}
}

func TestStreamEvalReaderParity(t *testing.T) {
	queries := []string{
		`count(//item)`,
		`//person/name`,
		`sum(//item/price)`,
		`for $p in /site/people/person order by $p/name return string($p/name)`,
		`count(//person[@featured = "yes"])`,
		`.`,
	}
	for _, src := range queries {
		want := evalMaterialized(t, src)
		for _, opts := range [][]Option{
			nil,
			{WithStreamEval(false)},
			{WithStreamEval(false), WithProjection(false)},
		} {
			q := compileStream(t, src, opts...)
			got, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc))
			if err != nil {
				t.Fatalf("%q (mode %v): %v", src, q.Mode(), err)
			}
			if got != want {
				t.Errorf("%q (mode %v): got %q, want %q", src, q.Mode(), got, want)
			}
		}
	}
}

func TestStreamEvalReaderStats(t *testing.T) {
	var st EvalStats

	q := compileStream(t, `count(//item)`)
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.StreamMode != "full-stream" || st.BytesScanned != int64(len(streamTestDoc)) {
		t.Fatalf("full-stream stats: %+v", st)
	}

	q = compileStream(t, `sum(//item/price)`)
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.StreamMode != "projected" || st.BytesScanned != int64(len(streamTestDoc)) {
		t.Fatalf("projected stats: %+v", st)
	}
	if st.NodesPruned == 0 {
		t.Fatalf("projection should prune the people subtree: %+v", st)
	}
	if !strings.Contains(st.String(), "stream=projected") {
		t.Fatalf("String() missing stream mode: %s", st.String())
	}

	q = compileStream(t, `count(//item)`, WithStreamEval(false), WithProjection(false))
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.StreamMode != "materialize" || st.BytesScanned != int64(len(streamTestDoc)) {
		t.Fatalf("materialize stats: %+v", st)
	}
}

// TestEvalReaderParseFailureObserved: a malformed document is a failed
// evaluation on every tier, reported the same way — the stats struct is
// overwritten (no stale contents survive) and the registry records exactly
// one evaluation, one latency sample and one error.
func TestEvalReaderParseFailureObserved(t *testing.T) {
	const bad = `<r><item/><item>`
	tiers := []struct {
		mode StreamMode
		opts []Option
	}{
		{StreamFull, nil},
		{StreamProjected, []Option{WithStreamEval(false)}},
		{StreamMaterialize, []Option{WithStreamEval(false), WithProjection(false)}},
	}
	for _, tc := range tiers {
		q := compileStream(t, `count(//item)`, tc.opts...)
		if q.Mode() != tc.mode {
			t.Fatalf("Mode() = %v, want %v", q.Mode(), tc.mode)
		}
		st := EvalStats{Steps: 999, StreamMode: "stale"}
		before := MetricsSnapshot()
		_, err := q.EvalReader(context.Background(), strings.NewReader(bad), WithStats(&st))
		after := MetricsSnapshot()
		if err == nil {
			t.Fatalf("%v: malformed document evaluated without error", tc.mode)
		}
		if st.StreamMode != tc.mode.String() || st.Steps != 0 {
			t.Errorf("%v: stats not overwritten: %+v", tc.mode, st)
		}
		for _, c := range []struct {
			name          string
			before, after int64
		}{
			{"Evals", before.Evals, after.Evals},
			{"EvalLatency.Count", before.EvalLatency.Count, after.EvalLatency.Count},
			{"EvalErrors", before.EvalErrors, after.EvalErrors},
		} {
			if d := c.after - c.before; d != 1 {
				t.Errorf("%v: %s advanced by %d, want 1", tc.mode, c.name, d)
			}
		}
	}
}

// TestEvalReaderParseFailureScannedBytes pins that both tree tiers report
// how far a failed parse read, not zero.
func TestEvalReaderParseFailureScannedBytes(t *testing.T) {
	const bad = `<d><i>1</i>`
	for _, opts := range [][]Option{
		{WithStreamEval(false)},
		{WithStreamEval(false), WithProjection(false)},
	} {
		q := compileStream(t, `sum(//i)`, opts...)
		var st EvalStats
		if _, err := q.EvalReader(context.Background(), strings.NewReader(bad), WithStats(&st)); err == nil {
			t.Fatalf("%v: malformed document evaluated without error", q.Mode())
		}
		if st.BytesScanned != int64(len(bad)) {
			t.Errorf("%v: scanned-bytes=%d after a failed parse, want %d", q.Mode(), st.BytesScanned, len(bad))
		}
	}
}

func TestStreamLimitsForceFallback(t *testing.T) {
	// The SAX evaluator cannot charge resource budgets, so configured limits
	// must push the query down a tier rather than bypass the sandbox.
	q := compileStream(t, `count(//item)`, WithLimits(Limits{MaxSteps: 1_000_000}))
	if q.Mode() == StreamFull {
		t.Fatalf("limits configured but mode is %v", q.Mode())
	}
	out, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc))
	if err != nil || out != "2" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	// Per-eval limits demote an otherwise full-stream query too.
	q2 := compileStream(t, `count(//item)`)
	var st EvalStats
	out, err = q2.EvalReader(context.Background(), strings.NewReader(streamTestDoc),
		WithLimits(Limits{MaxSteps: 1_000_000}), WithStats(&st))
	if err != nil || out != "2" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if st.StreamMode == "full-stream" {
		t.Fatalf("per-eval limits should demote: %+v", st)
	}
}

func TestStreamExplainVerdict(t *testing.T) {
	q := compileStream(t, `count(//item)`)
	ex := q.Explain()
	for _, want := range []string{"streaming: mode=full-stream", "stream plan: count //item", "projection:"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("explain missing %q:\n%s", want, ex)
		}
	}
	q = compileStream(t, `//item/..`)
	ex = q.Explain()
	if !strings.Contains(ex, "mode=materialize") || !strings.Contains(ex, "stream plan: none") ||
		!strings.Contains(ex, "projection: none") {
		t.Fatalf("bail explain:\n%s", ex)
	}
}

func TestStreamParseErrorParity(t *testing.T) {
	bad := `<site><item></site>`
	_, wantErr := ParseXML(bad)
	if wantErr == nil {
		t.Fatal("expected parse error")
	}
	for _, opts := range [][]Option{nil, {WithStreamEval(false)}, {WithStreamEval(false), WithProjection(false)}} {
		q := compileStream(t, `count(//item)`, opts...)
		_, err := q.EvalReader(context.Background(), strings.NewReader(bad))
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("mode %v: err %v, want %v", q.Mode(), err, wantErr)
		}
	}
}

func TestParseXMLReaderParity(t *testing.T) {
	d1, err := ParseXML(streamTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseXMLReader(strings.NewReader(streamTestDoc))
	if err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Fatalf("reader parse diverges:\n%s\n%s", d1, d2)
	}
}

func TestCompileStreamUpdateProgram(t *testing.T) {
	src := `update in /site delete nodes //item`
	if _, err := Compile(src); err != nil {
		t.Skipf("update grammar unavailable: %v", err)
	}
	q, err := CompileStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode() != StreamMaterialize {
		t.Fatalf("update program mode %v", q.Mode())
	}
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc)); err == nil {
		t.Fatal("EvalReader on update program should error")
	}
}
