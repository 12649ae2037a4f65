package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/serve"
)

// allModes are the seven experiment arms, by canonical wire name.
var allModes = []alloc.Mode{
	alloc.SingleBank, alloc.CB, alloc.CBProfiled,
	alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
}

// postRun issues one POST /v1/run and decodes the response body.
func postRun(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

// TestServeMatchesDirect is the end-to-end integration suite: every
// Table 1/2 benchmark under every allocation mode through the HTTP
// API, each response compared field-by-field against a direct
// bench.RunWith measurement. Timing fields are nondeterministic and
// excluded; everything else must be identical.
func TestServeMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark x mode matrix in short mode")
	}
	s := serve.New(serve.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	// Cleanup, not defer: parallel subtests outlive this function body,
	// and the server must outlive them.
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range allModes {
				direct, err := bench.RunWith(p, mode, bench.RunOptions{})
				if err != nil {
					t.Fatalf("%v: direct: %v", mode, err)
				}
				body := fmt.Sprintf(`{"bench":%q,"mode":%q}`, p.Name, mode)
				code, data := postRun(t, ts.Client(), ts.URL, body)
				if code != http.StatusOK {
					t.Fatalf("%v: status %d: %s", mode, code, data)
				}
				var got serve.Response
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatalf("%v: decoding: %v", mode, err)
				}
				want := serve.ResponseFor(direct, 0, got.Cached)
				// Phase timings are wall clock, never comparable.
				want.CompileSeconds, want.SimSeconds = got.CompileSeconds, got.SimSeconds
				if got.Bench != want.Bench || got.Mode != want.Mode || got.Partitioner != want.Partitioner {
					t.Errorf("%v: identity mismatch: got (%s,%s,%s), want (%s,%s,%s)", mode,
						got.Bench, got.Mode, got.Partitioner, want.Bench, want.Mode, want.Partitioner)
				}
				if got.Cycles != want.Cycles {
					t.Errorf("%v: cycles: served %d, direct %d", mode, got.Cycles, want.Cycles)
				}
				if got.MemXData != want.MemXData || got.MemYData != want.MemYData ||
					got.MemStack != want.MemStack || got.MemInstr != want.MemInstr ||
					got.MemTotal != want.MemTotal {
					t.Errorf("%v: memory: served %+v, direct %+v", mode, got, want)
				}
				if got.DupStores != want.DupStores {
					t.Errorf("%v: dup stores: served %d, direct %d", mode, got.DupStores, want.DupStores)
				}
				if fmt.Sprint(got.Duplicated) != fmt.Sprint(want.Duplicated) {
					t.Errorf("%v: duplicated: served %v, direct %v", mode, got.Duplicated, want.Duplicated)
				}
			}
		})
	}
}

// TestServeModeAliasesAndPartitioners spot-checks that the dspcc short
// mode names and the fm partitioner work over the wire and that the
// partitioner participates in the cache key (fm and greedy must not
// alias each other's entries).
func TestServeModeAliasesAndPartitioners(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, data := postRun(t, ts.Client(), ts.URL, `{"bench":"fir_32_1","mode":"dup"}`)
	if code != http.StatusOK {
		t.Fatalf("alias mode: status %d: %s", code, data)
	}
	var aliased serve.Response
	if err := json.Unmarshal(data, &aliased); err != nil {
		t.Fatal(err)
	}
	if aliased.Mode != alloc.CBDup.String() {
		t.Errorf("alias dup resolved to %s", aliased.Mode)
	}

	for _, part := range []string{"greedy", "fm", "kl", "anneal", "exact"} {
		body := fmt.Sprintf(`{"bench":"mult_4_4","mode":"CB","partitioner":%q}`, part)
		code, data := postRun(t, ts.Client(), ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("partitioner %s: status %d: %s", part, code, data)
		}
		var got serve.Response
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Partitioner != part {
			t.Errorf("partitioner echoed as %s, want %s", got.Partitioner, part)
		}
		if got.Cached {
			t.Errorf("partitioner %s: first request served from cache — cache key ignores the partitioner", part)
		}
	}
}

// TestServeExplorerKnobs drives the explorer's run knobs through
// /v1/run: an exact duplication set, profile weighting, and an FM pass
// bound, each a distinct cache key.
func TestServeExplorerKnobs(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, data := postRun(t, ts.Client(), ts.URL, `{"bench":"fir_32_1","mode":"dup","dup":["h"]}`)
	if code != http.StatusOK {
		t.Fatalf("exact dup set: status %d: %s", code, data)
	}
	var got serve.Response
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Duplicated) != 1 || got.Duplicated[0] != "h" {
		t.Errorf("dup [h] duplicated %v", got.Duplicated)
	}

	for _, body := range []string{
		`{"bench":"fir_32_1","mode":"CB","profiled":true}`,
		`{"bench":"fir_32_1","mode":"CB","partitioner":"fm","fm_passes":1}`,
	} {
		code, data := postRun(t, ts.Client(), ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, code, data)
		}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Errorf("%s: first request served from cache — cache key ignores the knob", body)
		}
	}
}

// TestServeCacheFlag checks the memo-cache contract over the wire, for
// a suite name and a generated name: the first named-benchmark request
// computes (and passes its output check), the second is a hit whose
// body differs only in the cached flag, and source requests never
// cache.
func TestServeCacheFlag(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, name := range []string{"iir_1_1", "gen_window_12"} {
		body := fmt.Sprintf(`{"bench":%q,"mode":"CB"}`, name)
		var first, second serve.Response
		for i, out := range []*serve.Response{&first, &second} {
			code, data := postRun(t, ts.Client(), ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("%s: request %d: status %d: %s", name, i, code, data)
			}
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatal(err)
			}
		}
		if first.Cached {
			t.Errorf("%s: first request claimed a cache hit", name)
		}
		if !second.Cached {
			t.Errorf("%s: second request missed the cache", name)
		}
		second.Cached = false
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: cache changed the answer: %+v vs %+v", name, first, second)
		}
	}
	st := s.CacheStats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", st)
	}

	src := `{"source":"int y[1];\nvoid main() { y[0] = 7; }"}`
	for i := 0; i < 2; i++ {
		code, data := postRun(t, ts.Client(), ts.URL, src)
		if code != http.StatusOK {
			t.Fatalf("source request: status %d: %s", code, data)
		}
		var got serve.Response
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Error("source request served from cache")
		}
	}
}

// TestServeErrors exercises the failure surface: malformed JSON,
// unknown fields, unknown benchmarks/modes/partitioners, both and
// neither of bench/source, oversized source, compile errors, and
// failing output checks.
func TestServeErrors(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, MaxSourceBytes: 128})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed json", `{"bench":`, http.StatusBadRequest},
		{"trailing data", `{"bench":"fir_32_1"} {"x":1}`, http.StatusBadRequest},
		{"unknown field", `{"bench":"fir_32_1","wat":1}`, http.StatusBadRequest},
		{"neither bench nor source", `{"mode":"CB"}`, http.StatusBadRequest},
		{"both bench and source", `{"bench":"fir_32_1","source":"void main() {}"}`, http.StatusBadRequest},
		{"unknown bench", `{"bench":"nope"}`, http.StatusNotFound},
		{"generated name, leading zero", `{"bench":"gen_window_012"}`, http.StatusNotFound},
		{"generated name, unknown archetype", `{"bench":"gen_cube_5"}`, http.StatusNotFound},
		{"generated name, no seed", `{"bench":"gen_window"}`, http.StatusNotFound},
		{"unknown mode", `{"bench":"fir_32_1","mode":"zigzag"}`, http.StatusBadRequest},
		{"unknown partitioner", `{"bench":"fir_32_1","partitioner":"magic"}`, http.StatusBadRequest},
		{"negative timeout", `{"bench":"fir_32_1","timeout_ms":-5}`, http.StatusBadRequest},
		{"fm_passes without fm", `{"bench":"fir_32_1","fm_passes":2}`, http.StatusBadRequest},
		{"dup without Dup mode", `{"bench":"fir_32_1","mode":"CB","dup":["x"]}`, http.StatusBadRequest},
		{"oversized source", fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 200)), http.StatusBadRequest},
		{"compile error", `{"source":"void main( {"}`, http.StatusUnprocessableEntity},
		{"array beyond a bank", `{"source":"int a[3037000500][3037000500]; int b[4]; void main() { b[1] = 7; a[0][0] = b[1]; }"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := postRun(t, ts.Client(), ts.URL, tc.body)
			if code != tc.code {
				t.Fatalf("status %d, want %d: %s", code, tc.code, data)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Errorf("error body not ErrorResponse: %s", data)
			}
			if code == http.StatusNotFound {
				var req serve.Request
				json.Unmarshal([]byte(tc.body), &req)
				if want := fmt.Sprintf("unknown benchmark %q (see /v1/benchmarks)", req.Bench); er.Error != want {
					t.Errorf("error %q, want %q", er.Error, want)
				}
			}
		})
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// TestDecodeGeneratedNameAllocs: decoding validates a generated name
// without building its program, so it allocates about as much as a
// suite name does. Each run decodes a name not seen before, so no memo
// can hide a build.
func TestDecodeGeneratedNameAllocs(t *testing.T) {
	const runs = 50
	bodies := make([][]byte, runs+1) // AllocsPerRun adds a warm-up call
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"bench":"gen_window_%d","mode":"cb"}`, 7000+i))
	}
	next := 0
	generated := testing.AllocsPerRun(runs, func() {
		if _, err := serve.DecodeRequest(bodies[next], 1<<20); err != nil {
			t.Fatal(err)
		}
		next++
	})
	suiteBody := []byte(`{"bench":"fir_32_1","mode":"cb"}`)
	suite := testing.AllocsPerRun(runs, func() {
		if _, err := serve.DecodeRequest(suiteBody, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if generated > suite+2 {
		t.Errorf("decoding a generated name allocates %.0f times, a suite name %.0f", generated, suite)
	}
}

// TestServeInventoryAndHealth covers /v1/benchmarks, /healthz, and the
// metrics exposition.
func TestServeInventoryAndHealth(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var inv struct {
		Benchmarks []struct {
			Name, Kind, Desc string
		} `json:"benchmarks"`
		Modes        []string `json:"modes"`
		Partitioners []string `json:"partitioners"`
	}
	if err := json.Unmarshal(data, &inv); err != nil {
		t.Fatalf("decoding inventory: %v", err)
	}
	if len(inv.Benchmarks) != 23 {
		t.Errorf("inventory lists %d benchmarks, want 23", len(inv.Benchmarks))
	}
	if len(inv.Modes) != 7 {
		t.Errorf("inventory lists %d modes, want 7", len(inv.Modes))
	}
	if len(inv.Partitioners) != 5 {
		t.Errorf("inventory lists %d partitioners, want 5", len(inv.Partitioners))
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte("ok\n")) {
		t.Errorf("/healthz: %d %q", resp.StatusCode, body)
	}

	// One real run so the histograms have a sample, and its memo hit,
	// which the histograms must not count again; then scrape.
	for i := 0; i < 2; i++ {
		if code, data := postRun(t, ts.Client(), ts.URL, `{"bench":"fir_32_1"}`); code != http.StatusOK {
			t.Fatalf("run %d: %d: %s", i, code, data)
		}
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dspservd_in_flight 0",
		"dspservd_pool_workers 1",
		"dspservd_cache_misses_total 1",
		"dspservd_cache_hits_total 1",
		`dspservd_requests_total{code="200"}`,
		"dspservd_compile_seconds_count 1",
		"dspservd_simulate_seconds_count 1",
		`dspservd_simulate_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServeAfterClose checks that a closed server fails requests with
// 503 rather than hanging or panicking.
func TestServeAfterClose(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	code, data := postRun(t, ts.Client(), ts.URL, `{"bench":"fir_32_1"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after close, want 503: %s", code, data)
	}
}
