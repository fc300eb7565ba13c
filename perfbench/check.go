package main

// check.go holds the serve-mix reference checks. Expected answers come
// from the corpus generator's own data (gen.go), never from the engine.

import (
	"encoding/json"
	"fmt"
	"strings"

	"lopsided/internal/server"
)

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// auditedAttr is what the transform class inserts on every target book.
const auditedAttr = ` audited="1"`

// checkResponse checks one serve-mix response against the generator's
// answer for req. It returns the served result text (queries and
// transforms) for the traced run's replay comparison.
func (c *corpus) checkResponse(req request, status int, body []byte) (string, error) {
	if status != 200 {
		return "", fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	col := &c.Cols[req.Col]
	switch req.Class {
	case clsReload:
		var r struct {
			Status string `json:"status"`
			Docs   int    `json:"docs"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return "", fmt.Errorf("reload body: %v", err)
		}
		if r.Status != "reloaded" || r.Docs != c.docCount() {
			return "", fmt.Errorf("reload reported %q with %d docs, want reloaded with %d", r.Status, r.Docs, c.docCount())
		}
		return "", nil
	case clsTransform:
		var r server.TransformResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "", fmt.Errorf("transform body: %v", err)
		}
		want := 0
		for _, b := range col.Books {
			if b.Year == req.Year {
				want++
			}
		}
		if got := strings.Count(r.Result, auditedAttr); got != want {
			return r.Result, fmt.Errorf("transform inserted %d audited attributes, want %d", got, want)
		}
		if strings.ReplaceAll(r.Result, auditedAttr, "") != col.Text {
			return r.Result, fmt.Errorf("transform changed more than the audited attributes")
		}
		return r.Result, nil
	default:
		var r server.QueryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "", fmt.Errorf("query body: %v", err)
		}
		if r.Result != req.Expect {
			return r.Result, fmt.Errorf("got %.80q, want %.80q", r.Result, req.Expect)
		}
		return r.Result, nil
	}
}
