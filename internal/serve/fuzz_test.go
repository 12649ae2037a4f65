package serve

import (
	"strings"
	"testing"

	"dualbank/internal/bench"
)

// FuzzDecodeRequest hammers the request decoder with arbitrary bytes.
// The decoder is the service's entire parse surface — everything past
// it runs on validated input — so the invariants are strict: it must
// never panic, and whenever it accepts a body the resulting Job must be
// internally consistent (a non-empty source within the cap, or a name
// the harness can build into a checked program; a non-negative
// timeout; and a known mode).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"bench":"fir_32_1"}`))
	f.Add([]byte(`{"bench":"fft_1024","mode":"Dup","partitioner":"fm","timeout_ms":500}`))
	f.Add([]byte(`{"source":"void main() {}","mode":"CB"}`))
	f.Add([]byte(`{"bench":"fir_32_1","mode":"zig"}`))
	f.Add([]byte(`{"bench":"nope"}`))
	f.Add([]byte(`{"bench":"gen_window_12"}`))
	f.Add([]byte(`{"bench":"gen_window_012"}`))
	f.Add([]byte(`{"bench":`))
	f.Add([]byte(`{"bench":"fir_32_1"}{"bench":"fir_32_1"}`))
	f.Add([]byte(`{"bench":"fir_32_1","timeout_ms":-1}`))
	f.Add([]byte(`{"bench":"fir_32_1","engine":"machine"}`))
	f.Add([]byte(`{"bench":"fir_32_1","engine":"compiled","mode":"Dup","banks":4}`))
	f.Add([]byte(`{"bench":"fir_32_1","engine":"turbo"}`))
	f.Add([]byte(`{"source":"void main() {}","engine":"compiled"}`))
	f.Add([]byte(`{"bonch":"fir_32_1"}`))
	f.Add([]byte(`{"source":"` + strings.Repeat("x", 200) + `"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	const maxSource = 128 // small cap so the fuzzer can reach the oversize path
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeRequest(data, maxSource)
		if err != nil {
			return
		}
		if j.Cacheable {
			// A named job carries no source until the harness builds it.
			p, ok := bench.ByName(j.Prog.Name)
			if !ok || p.Source == "" || p.Check == nil {
				t.Fatalf("named job %q does not build a checked program: %q", j.Prog.Name, data)
			}
		} else if j.Prog.Source == "" || len(j.Prog.Source) > maxSource {
			t.Fatalf("accepted source job with %d bytes of source (cap %d): %q", len(j.Prog.Source), maxSource, data)
		}
		if j.Timeout < 0 {
			t.Fatalf("accepted negative timeout %v: %q", j.Timeout, data)
		}
		if _, err := ParseMode(j.Mode.String()); err != nil {
			t.Fatalf("accepted job with unnamed mode %v: %q", j.Mode, data)
		}
	})
}
