package main

import (
	"fmt"
	"os"
)

// Example analyses the paper's Figure 4 sample: the interference graph, the
// greedy partition walk and the bank of every symbol.
func Example() {
	if err := run(os.Stdout, nil); err != nil {
		fmt.Println(err)
	}
	// Output:
	// (no file given: analysing the paper's Figure 4 example)
	// Interference graph (edge weight = loop nesting depth + 1):
	// (A, B) w=1
	// (A, C) w=1
	// (A, D) w=2
	// (B, C) w=1
	// (C, D) w=1
	// dup: B
	//
	// Greedy partition (Figure 5): cost after each move:
	//   [6 2 1]
	//
	// Final partition:
	// X: {B, D}
	// Y: {A, C}
	// cost: 1
	//
	// Bank assignment:
	//   A            bank Y  addr    0  (8 words)
	//   B            bank X  addr    0  (8 words)
	//   C            bank Y  addr    8  (8 words)
	//   D            bank X  addr    8  (8 words)
}
