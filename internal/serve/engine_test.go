package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dualbank/internal/serve"
)

// TestServeEngineOverride exercises the per-request engine pin: every
// valid engine name is accepted and produces the same measurement
// (the engines are differentially pinned), the dispatch is counted
// under the requested engine, distinct engines occupy distinct memo
// entries, and an unknown engine name (such as "fast") is a 400
// naming the valid engines before any work happens.
func TestServeEngineOverride(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var cycles []int64
	for _, engine := range []string{"", "compiled", "machine"} {
		body := `{"bench":"fir_32_1","mode":"CB"`
		if engine != "" {
			body += `,"engine":"` + engine + `"`
		}
		body += `}`
		code, data := postRun(t, ts.Client(), ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("engine %q: status %d: %s", engine, code, data)
		}
		var resp serve.Response
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, resp.Cycles)
	}
	for i, c := range cycles {
		if c != cycles[0] {
			t.Errorf("engine arm %d measured %d cycles, arm 0 measured %d", i, c, cycles[0])
		}
	}

	// The default ("" → compiled) and the explicit "compiled" share a
	// memo entry; machine executed once more.
	if cs := s.CacheStats(); cs.Misses != 2 || cs.Hits != 1 {
		t.Errorf("cache stats %+v, want 2 misses (compiled, machine) + 1 hit", cs)
	}
	snap := s.Metrics().Snapshot()
	if snap.EngineRuns["compiled"] != 2 || snap.EngineRuns["machine"] != 1 || len(snap.EngineRuns) != 2 {
		t.Errorf("engine dispatch mix %v, want compiled=2 machine=1", snap.EngineRuns)
	}

	for _, engine := range []string{"turbo", "fast"} {
		code, data := postRun(t, ts.Client(), ts.URL, `{"bench":"fir_32_1","engine":"`+engine+`"}`)
		if code != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d: %s", engine, code, data)
		}
		body := string(data)
		if !strings.Contains(body, "unknown engine") || !strings.Contains(body, "compiled") || !strings.Contains(body, "machine") {
			t.Errorf("engine %q: error body %s does not name the problem and both valid engines", engine, data)
		}
	}
	if cs := s.CacheStats(); cs.Misses != 2 {
		t.Errorf("rejected engines ran work: %d misses, want 2", cs.Misses)
	}
}
