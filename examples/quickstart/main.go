// Quickstart reproduces Figure 1 of the paper: an N-th order FIR
// filter written in C, compiled for the dual-bank VLIW DSP. It prints
// the VLIW assembly under the single-bank baseline and under
// compaction-based partitioning — showing the two arrays landing in
// opposite banks and their loads pairing into one long instruction —
// and compares simulated cycle counts.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dualbank"
)

const src = `
float A[64] = {1.0, 2.0, 3.0, 4.0};   // remaining elements are zero
float B[64] = {0.5, 0.25, 0.125};
float sum;

void main() {
	int i;
	float s = 0.0;
	for (i = 0; i < 64; i++) {
		s += A[i] * B[i];
	}
	sum = s;
}
`

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run compiles and simulates the FIR filter under both modes and writes
// the listings and cycle counts to stdout. It takes no arguments.
func run(stdout io.Writer, _ []string) error {
	fmt.Fprintln(stdout, "Figure 1: N-th order FIR filter, sum += A[i]*B[i]")
	fmt.Fprintln(stdout)

	var cycles [2]int64
	for i, mode := range []dualbank.Mode{dualbank.SingleBank, dualbank.CB} {
		c, err := dualbank.Compile(src, "fir", dualbank.Options{Mode: mode})
		if err != nil {
			return err
		}
		m, err := c.Run()
		if err != nil {
			return err
		}
		cycles[i] = m.Cycles
		sum, err := m.Float32(c.Global("sum"), 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "=== mode %s: %d cycles, sum = %g ===\n", mode, m.Cycles, sum)
		fmt.Fprintln(stdout, dualbank.Assembly(c))
	}
	fmt.Fprintf(stdout, "CB partitioning speedup over single bank: %.2fx\n",
		float64(cycles[0])/float64(cycles[1]))
	fmt.Fprintln(stdout, "Note how A and B occupy different banks under CB, so the")
	fmt.Fprintln(stdout, "inner loop issues both element loads in one instruction —")
	fmt.Fprintln(stdout, "the dual-bank parallel move of the DSP56001 listing in Figure 1(b).")
	return nil
}
