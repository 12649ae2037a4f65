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
// internally consistent (a runnable program, a bounded source, a
// non-negative timeout, and a known mode).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"bench":"fir_32_1"}`))
	f.Add([]byte(`{"bench":"fft_1024","mode":"Dup","partitioner":"fm","timeout_ms":500}`))
	f.Add([]byte(`{"source":"void main() {}","mode":"CB"}`))
	f.Add([]byte(`{"bench":"fir_32_1","mode":"zig"}`))
	f.Add([]byte(`{"bench":"nope"}`))
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
		if j.Prog.Source == "" {
			t.Fatalf("accepted job with no source: %q", data)
		}
		if !j.Cacheable && len(j.Prog.Source) > maxSource {
			t.Fatalf("accepted oversized source (%d bytes): %q", len(j.Prog.Source), data)
		}
		if j.Cacheable {
			if _, ok := bench.ByName(j.Prog.Name); !ok {
				t.Fatalf("cacheable job names unknown benchmark %q: %q", j.Prog.Name, data)
			}
		}
		if j.Timeout < 0 {
			t.Fatalf("accepted negative timeout %v: %q", j.Timeout, data)
		}
		if _, err := ParseMode(j.Mode.String()); err != nil {
			t.Fatalf("accepted job with unnamed mode %v: %q", j.Mode, data)
		}
	})
}
