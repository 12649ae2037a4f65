package explore

import (
	"context"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/machine"
)

// TestSweepPreparesOncePerProgram runs one design-space sweep — the
// default-budget exploration of the six-program baseline suite, then
// the hardware sweep over every 2x1…4x2 geometry — through one harness
// and counts its front-end runs: one per program, however many
// configurations each program is measured under.
func TestSweepPreparesOncePerProgram(t *testing.T) {
	var progs []bench.Program
	for _, name := range []string{"fir_32_1", "iir_1_1", "mult_4_4", "fft_256", "adpcm", "histogram"} {
		progs = append(progs, prog(t, name))
	}
	specs := []machine.BankSpec{
		{Banks: 2, PortsPerBank: 1}, {Banks: 3, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 1},
		{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2},
	}
	h := bench.NewHarness(1)
	if _, err := Explore(context.Background(), progs, Options{Harness: h}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreHW(context.Background(), progs, specs, Options{Harness: h}); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Misses != 465 || st.Prepares != int64(len(progs)) {
		t.Fatalf("sweep ran %d front ends for %d measurements, want %d for 465", st.Prepares, st.Misses, len(progs))
	}
}
