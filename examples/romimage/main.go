// Romimage demonstrates the deployment path of the toolchain: a MiniC
// program is compiled with CB partitioning, serialised into the binary
// ROM-image format a production flow would burn into the DSP's on-chip
// instruction memory, loaded back from those bytes, and executed —
// verifying byte-level round-trip fidelity with identical cycle counts
// and results.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dualbank"
	"dualbank/internal/compact"
	"dualbank/internal/encode"
	"dualbank/internal/ir"
	"dualbank/internal/sim"
)

const src = `
// A tiny echo-cancelling NLMS-style filter stage.
float x[40] = {0.5, -0.25, 0.75, 0.1};
float d[32] = {0.3, 0.3, -0.2};
float h[8];
float y[32];

void main() {
	int n;
	int k;
	for (n = 0; n < 32; n++) {
		float acc = 0.0;
		for (k = 0; k < 8; k++) {
			acc += h[k] * x[n + k];
		}
		y[n] = acc;
		float e = 0.05 * (d[n] - acc);
		for (k = 0; k < 8; k++) {
			h[k] = h[k] + e * x[n + k];
		}
	}
}
`

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run compiles the filter, round-trips it through a ROM image and
// writes both runs' results to stdout. It takes no arguments.
func run(stdout io.Writer, _ []string) error {
	c, err := dualbank.Compile(src, "nlms", dualbank.Options{Mode: dualbank.CB})
	if err != nil {
		return err
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ROM image: %d bytes for %d long instructions + data tables\n",
		len(img), c.Sched.StaticInstrs())

	// "Ship" the bytes, then boot a machine from them alone.
	loaded, err := encode.Decode(img)
	if err != nil {
		return err
	}

	m1 := sim.NewMachine(c.Sched)
	if err := m1.Run(); err != nil {
		return err
	}
	m2 := sim.NewMachine(loaded)
	if err := m2.Run(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "original build: %d cycles; booted from image: %d cycles\n", m1.Cycles, m2.Cycles)

	g1 := c.Global("h")
	g2, err := findGlobal(loaded, "h")
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, "adapted filter taps (image run): ")
	for i := 0; i < g2.Size; i++ {
		v2, _ := m2.Float32(g2, i)
		v1, _ := m1.Float32(g1, i)
		if v1 != v2 {
			return fmt.Errorf("tap %d differs: %g vs %g", i, v1, v2)
		}
		fmt.Fprintf(stdout, "%.4f ", v2)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "round trip exact: the image is the program.")
	return nil
}

func findGlobal(p *compact.Program, name string) (*ir.Symbol, error) {
	for _, g := range p.Src.Globals {
		if g.Name == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("image lost global %q", name)
}
