package main

import (
	"fmt"
	"strings"
	"testing"
)

// inputs renders every generated input of a seed as one string per kind.
func inputs(seed int64) map[string]string {
	out := map[string]string{}
	c := genCorpus(seed)
	var b strings.Builder
	for _, col := range c.Cols {
		b.WriteString(col.Text)
	}
	out["corpus"] = b.String()
	b.Reset()
	for i := 0; i < 2*reloadEvery; i++ {
		r := c.requestAt(seed, i)
		fmt.Fprintf(&b, "%d|%s|%s|%s|%s\n", r.Index, r.Class, r.Path, r.Body, r.Expect)
	}
	out["requests"] = b.String()
	b.Reset()
	for _, j := range genJobs(seed) {
		fmt.Fprintf(&b, "%s|%s|%s\n", j.Name, j.Model, j.Template)
	}
	out["jobs"] = b.String()
	b.Reset()
	for _, d := range genStreamDocs(seed) {
		fmt.Fprintf(&b, "%s|%d|%d|%d|%s\n", d.Shape, d.CountK7, d.SumN, d.Parents, d.Text)
	}
	out["stream"] = b.String()
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(7), inputs(7)
	for kind := range a {
		if a[kind] != b[kind] {
			t.Errorf("seed 7 gave two different %s inputs", kind)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := inputs(7), inputs(8)
	for kind := range a {
		if a[kind] == b[kind] {
			t.Errorf("seeds 7 and 8 gave the same %s inputs", kind)
		}
	}
}

// TestSeedKeepsSizes pins that a seed changes content, not the amount of
// work: sizes and class proportions are the same for every seed.
func TestSeedKeepsSizes(t *testing.T) {
	count := func(seed int64) map[string]int {
		n := map[string]int{}
		for i := 0; i < blockSize*reloadEvery; i++ {
			n[classAt(seed, i)]++
		}
		return n
	}
	a, b := count(1), count(2)
	if len(a) != len(b) {
		t.Errorf("seed 1 used %d classes, seed 2 %d", len(a), len(b))
	}
	for c := range a {
		if a[c] != b[c] {
			t.Errorf("class %s: %d requests with seed 1, %d with seed 2", c, a[c], b[c])
		}
	}
	da, db := genStreamDocs(1), genStreamDocs(2)
	for i := range da {
		if d := len(da[i].Text) - len(db[i].Text); d > len(da[i].Text)/100 || -d > len(da[i].Text)/100 {
			t.Errorf("%s document: %d bytes with seed 1, %d with seed 2", da[i].Shape, len(da[i].Text), len(db[i].Text))
		}
	}
}

func queryBody(result string) []byte {
	return []byte(mustJSON(map[string]any{"result": result, "tenant": "t0", "plan_cache": "hit"}))
}

func TestCheckerFlagsWrongAnswer(t *testing.T) {
	c := genCorpus(3)
	for i := 0; i < 4*blockSize; i++ {
		req := c.requestAt(3, i)
		if req.Path != "/query" {
			continue
		}
		if _, err := c.checkResponse(req, 200, queryBody(req.Expect)); err != nil {
			t.Errorf("%s#%d: the expected answer was rejected: %v", req.Class, i, err)
		}
		if _, err := c.checkResponse(req, 200, queryBody(req.Expect+"x")); err == nil {
			t.Errorf("%s#%d: a wrong answer passed", req.Class, i)
		}
		if _, err := c.checkResponse(req, 500, queryBody(req.Expect)); err == nil {
			t.Errorf("%s#%d: an HTTP 500 passed", req.Class, i)
		}
	}

	var tr request
	for i := 0; tr.Class != clsTransform; i++ {
		tr = c.requestAt(3, i)
	}
	col := c.Cols[tr.Col]
	good := col.Text
	for _, b := range col.Books {
		if b.Year == tr.Year {
			good = strings.Replace(good, `<book id="`+b.ID+`" year="`+fmt.Sprint(b.Year)+`"`,
				`<book id="`+b.ID+`" year="`+fmt.Sprint(b.Year)+`"`+auditedAttr, 1)
		}
	}
	body := func(result string) []byte {
		return []byte(mustJSON(map[string]any{"result": result, "collection": col.Name, "tenant": "t0", "plan_cache": "hit"}))
	}
	if _, err := c.checkResponse(tr, 200, body(good)); err != nil {
		t.Errorf("transform: the expected result was rejected: %v", err)
	}
	if _, err := c.checkResponse(tr, 200, body(strings.Replace(good, auditedAttr, "", 1))); err == nil {
		t.Errorf("transform: a missing attribute passed")
	}
	if _, err := c.checkResponse(tr, 200, body(strings.Replace(good, "<price>", "<price>1", 1))); err == nil {
		t.Errorf("transform: a changed price passed")
	}

	reload := request{Class: clsReload, Path: "/reload"}
	if _, err := c.checkResponse(reload, 200, []byte(`{"status":"reloaded","version":2,"docs":16}`)); err != nil {
		t.Errorf("reload: the expected body was rejected: %v", err)
	}
	if _, err := c.checkResponse(reload, 200, []byte(`{"status":"reloaded","version":2,"docs":15}`)); err == nil {
		t.Errorf("reload: a wrong document count passed")
	}
}

func TestDocPairsFlagMismatch(t *testing.T) {
	jobs := []loadedJob{{name: "a"}, {name: "b"}}
	same := resultDigest("<html/>", nil)
	xqOps := []docOp{{job: 0, digest: same}, {job: 1, digest: same}}
	natOps := []docOp{{job: 0, digest: same}, {job: 1, digest: resultDigest("<html/>", []string{"problem"})}}
	f := newFailures()
	checkPairs(f, jobs, xqOps, natOps)
	if attempted, failed := f.totals(); attempted != 2 || failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", attempted, failed)
	}
	if got := f.byClass(); got["doc.b"] != "1/1" {
		t.Errorf("failures by class = %v, want doc.b 1/1", got)
	}
}

func TestScanExpectMatchesGenerator(t *testing.T) {
	d := genStreamDocs(5)[0]
	if got := strings.Count(d.Text, `k="k7"`); fmt.Sprint(got) != scanExpect(&d, "full") {
		t.Errorf("full: %d k7 items in the text, reference %s", got, scanExpect(&d, "full"))
	}
	if got := strings.Count(d.Text, "<section "); fmt.Sprint(got) != scanExpect(&d, "materialize") {
		t.Errorf("materialize: %d sections in the text, reference %s", got, scanExpect(&d, "materialize"))
	}
}
