package main

import (
	"fmt"
	"strings"
)

// Example prints the performance/cost frontier of the lpc benchmark.
func Example() {
	var out strings.Builder
	if err := run(&out, []string{"-bench", "lpc"}); err != nil {
		fmt.Println(err)
	}
	// An Output comment cannot end a line in spaces; table rows with no
	// duplicated arrays do.
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// Performance/cost frontier for lpc
	// baseline: 30805 cycles, cost 1180 words (X=1081 Y=0 stack=0 instr=99)
	//
	// mode               cycles     PG     CI    PCR   cost   duplicated
	// CB                  30077   1.02   1.00   1.03   1177
	// Pr                  30077   1.02   1.00   1.03   1177
	// Dup                 23897   1.29   1.13   1.14   1337   s
	// full-dup            23301   1.32   1.91   0.69   2258   in,win,s,R,a,an,coeff,corr
	// Ideal               23257   1.32   1.00   1.33   1176
	//
	// PCR > 1 means the speedup outweighs the memory cost; the paper
	// uses this to argue full duplication is never cost-effective while
	// partitioning (and selective duplication) usually is.
}
