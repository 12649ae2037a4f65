package main

import (
	"fmt"
	"os"
)

// Example measures the lpc benchmark under each mode and names the
// array the analysis duplicates.
func Example() {
	if err := run(os.Stdout, nil); err != nil {
		fmt.Println(err)
	}
	// Output:
	// The Figure 6 loop (from the lpc benchmark source):
	//
	//     for (i = 0; i < lim; i++) {
	//         acc += s[i] * s[i + m];
	//     }
	//
	// Symbols the compaction-based analysis marks for duplication:
	//   s (160 words) — now present in both banks at address 0
	// Coherence stores inserted: 3
	//
	// mode                       cycles     gain
	// single bank                 30805       --
	// CB partitioning             30077    +2.4%
	// CB + duplication            23897   +28.9%
	// ideal (dual-ported)         23257   +32.5%
	//
	// CB partitioning alone barely helps lpc: its hot loop's two
	// accesses hit one array. Partial duplication recovers nearly
	// all of the dual-ported ideal — the paper's 3% -> 34% result.
}
