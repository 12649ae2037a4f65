package main

import (
	"fmt"
	"os"
)

// Example compiles the Figure 1 FIR filter under the single-bank and CB
// modes and prints both listings.
func Example() {
	if err := run(os.Stdout, nil); err != nil {
		fmt.Println(err)
	}
	// Output:
	// Figure 1: N-th order FIR filter, sum += A[i]*B[i]
	//
	// === mode single-bank: 197 cycles, sum = 1.375 ===
	// ; program fir  (ports: banked, 8 long instructions)
	// ; float  A                bank=X  addr=0     size=64
	// ; float  B                bank=X  addr=64    size=64
	// ; float  sum              bank=X  addr=128   size=1
	//
	// main:
	// .main_b0:
	//     AU0: v4 = const 1 || DU0: v15 = const 0 || DU1: v11 = const 64 || FPU0: v46 = fconst 0
	//     DU0: v15 = const 0
	//     DU0: v2 = sub v11, v15
	//     PCU: do v2, b1
	// .main_b1:		; loop depth 1
	//     MU0: v41 = X:A[v15]
	//     MU0: v40 = X:B[v15] || DU0: v15 = add v15, v4
	//     PCU: enddo b1, b2 || FPU0: v46 = fmac v41, v40
	// .main_b2:
	//     PCU: ret || MU0: X:sum = v46
	//
	// === mode CB: 133 cycles, sum = 1.375 ===
	// ; program fir  (ports: banked, 7 long instructions)
	// ; float  A                bank=Y  addr=0     size=64
	// ; float  B                bank=X  addr=0     size=64
	// ; float  sum              bank=X  addr=64    size=1
	//
	// main:
	// .main_b0:
	//     AU0: v4 = const 1 || DU0: v15 = const 0 || DU1: v11 = const 64 || FPU0: v46 = fconst 0
	//     DU0: v15 = const 0
	//     DU0: v2 = sub v11, v15
	//     PCU: do v2, b1
	// .main_b1:		; loop depth 1
	//     MU0: v40 = X:B[v15] || MU1: v41 = Y:A[v15] || DU0: v15 = add v15, v4
	//     PCU: enddo b1, b2 || FPU0: v46 = fmac v41, v40
	// .main_b2:
	//     PCU: ret || MU0: X:sum = v46
	//
	// CB partitioning speedup over single bank: 1.48x
	// Note how A and B occupy different banks under CB, so the
	// inner loop issues both element loads in one instruction —
	// the dual-bank parallel move of the DSP56001 listing in Figure 1(b).
}
