// Explorer shows the compiler's data-partitioning analysis on user
// code: it compiles a MiniC program (a file argument, or a built-in
// sample reproducing Figure 4 of the paper), prints the interference
// graph with its edge weights, the greedy partition walk (the Figure 5
// trace), and the resulting bank assignment of every symbol. It is a
// thin wrapper over the exploration engine's analysis view
// (internal/explore.Analyze).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dualbank/internal/explore"
)

// sample is the Figure 4 example program: every pairing of A, B, C, D
// may be accessed simultaneously; A and D also pair inside a loop, so
// edge (A, D) carries the higher weight.
const sample = `
float A[8] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
float B[8] = {2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0};
float C[8];
float D[8];

void main() {
	int i = 1;
	int j = 2;
	int k = 3;
	D[i] = A[j] + B[k];
	B[i] = B[j] + D[k];
	C[i] = B[j] + C[k];
	C[i] = A[j] + C[k];
	for (i = 0; i < 5; i++) {
		C[i] = A[i] + D[i];
	}
}
`

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run analyses the file named in args, or the Figure 4 sample, and
// writes the report to stdout.
func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("explorer", flag.ExitOnError)
	dot := fs.Bool("dot", false, "emit the interference graph in Graphviz format and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, name := sample, "figure4"
	if fs.NArg() > 0 {
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src, name = string(b), fs.Arg(0)
	} else {
		fmt.Fprintln(stdout, "(no file given: analysing the paper's Figure 4 example)")
	}

	a, err := explore.Analyze(src, name)
	if err != nil {
		return err
	}
	if *dot {
		_, err := io.WriteString(stdout, a.Dot())
		return err
	}
	a.WriteText(stdout)
	return nil
}
