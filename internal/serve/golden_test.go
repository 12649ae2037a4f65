package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/serve"
)

// runResponses posts every benchmark × mode to /v1/run, one request at
// a time, and returns one line per response: the JSON body with its
// wall-clock fields zeroed and its keys sorted.
func runResponses(t *testing.T) []string {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	var lines []string
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		for _, mode := range allModes {
			body := fmt.Sprintf(`{"bench":%q,"mode":%q}`, p.Name, mode)
			code, data := postRun(t, ts.Client(), ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("%s %v: status %d: %s", p.Name, mode, code, data)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			var fields map[string]any
			if err := dec.Decode(&fields); err != nil {
				t.Fatalf("%s %v: decoding: %v", p.Name, mode, err)
			}
			fields["compile_seconds"], fields["sim_seconds"] = 0, 0
			line, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
	}
	return lines
}

// TestRunResponsesGolden pins every /v1/run benchmark × mode response,
// timings zeroed, to the committed file: a refactor of the compiler,
// the harness or the serve layer must not move one cycle count, memory
// size or duplication set. The file changes only with a change meant to
// change a measurement; on failure the computed file is written out and
// the message prints the command that installs it.
func TestRunResponsesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark x mode matrix in short mode")
	}
	golden := filepath.Join("testdata", "run_responses.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := runResponses(t)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s: response %d drifted:\ngot  %s\nwant %s", golden, i+1, got[i], want[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d responses, want %d", golden, len(got), len(want))
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "run_responses-*.golden")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(strings.Join(got, "\n") + "\n"); err != nil {
			t.Fatal(err)
		}
		t.Logf("if the change is intended, regenerate with:\n  cp %s internal/serve/%s", f.Name(), golden)
	}
}
