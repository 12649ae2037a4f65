// Command dspcc is the MiniC compiler driver: it compiles a source
// file for the dual-bank VLIW model DSP and prints the resulting IR,
// interference graph, data partition, or VLIW assembly.
//
// Usage:
//
//	dspcc [-mode cb|pr|dup|fulldup|ideal|single] [-dump ir|graph|asm|all] file.c
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dualbank/internal/advise"
	"dualbank/internal/alloc"
	"dualbank/internal/asm"
	"dualbank/internal/encode"
	"dualbank/internal/pipeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so the smoke
// tests can drive the whole driver in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "cb", "data allocation mode: single, cb, pr, dup, fulldup, ideal, loworder")
	dump := fs.String("dump", "asm", "what to print: ir, graph, asm, stats, advise, all")
	out := fs.String("o", "", "write a binary ROM image to this file (run it with dspsim -image)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m, err := alloc.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "dspcc: unknown mode %q\n", *mode)
		return 2
	}
	src, name, err := readSource(fs.Args(), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "dspcc:", err)
		return 1
	}
	c, err := pipeline.Compile(src, name, pipeline.Options{Mode: m})
	if err != nil {
		fmt.Fprintln(stderr, "dspcc:", err)
		return 1
	}
	if *out != "" {
		img, err := encode.Encode(c.Sched)
		if err != nil {
			fmt.Fprintln(stderr, "dspcc:", err)
			return 1
		}
		if err := os.WriteFile(*out, img, 0o644); err != nil {
			fmt.Fprintln(stderr, "dspcc:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes, %d instructions)\n", *out, len(img), c.Sched.StaticInstrs())
	}
	show := func(what string) bool { return *dump == what || *dump == "all" }
	if show("ir") {
		fmt.Fprint(stdout, c.IR.String())
	}
	if show("graph") {
		if c.Alloc.Graph != nil {
			fmt.Fprintln(stdout, "interference graph:")
			fmt.Fprint(stdout, c.Alloc.Graph.String())
			fmt.Fprintln(stdout, "partition:")
			fmt.Fprintln(stdout, c.Alloc.Part.Bipartition().String())
		} else {
			fmt.Fprintf(stdout, "mode %s builds no interference graph\n", c.Alloc.Mode)
		}
	}
	if show("asm") {
		fmt.Fprint(stdout, asm.Print(c.Sched))
	}
	if show("advise") {
		fmt.Fprint(stdout, advise.Report(c))
	}
	if show("stats") || show("all") {
		fmt.Fprintf(stdout, "\n; mode=%s dupStores=%d X=%d+%d Y=%d+%d words\n",
			c.Alloc.Mode, c.Alloc.DupStores,
			c.Alloc.DupWords+c.Alloc.Global[0], c.Alloc.Stack[0],
			c.Alloc.DupWords+c.Alloc.Global[1], c.Alloc.Stack[1])
		fmt.Fprint(stdout, c.Sched.StaticStats())
	}
	return 0
}

func readSource(args []string, stdin io.Reader) (src, name string, err error) {
	if len(args) == 0 || args[0] == "-" {
		b, err := io.ReadAll(stdin)
		return string(b), "stdin", err
	}
	b, err := os.ReadFile(args[0])
	return string(b), args[0], err
}
