// Command dspsim compiles a MiniC program and executes it on the
// dual-bank VLIW instruction-set simulator, reporting the cycle count
// and, optionally, the contents of named global arrays.
//
// Usage:
//
//	dspsim [-mode cb|...] [-print global[:n]] file.c
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/compact"
	"dualbank/internal/encode"
	"dualbank/internal/ir"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so the smoke
// tests can drive the whole simulator driver in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "cb", "data allocation mode: single, cb, pr, dup, fulldup, ideal, loworder")
	print := fs.String("print", "", "comma-separated globals to dump after the run (name or name:count)")
	image := fs.Bool("image", false, "the input is a binary ROM image produced by dspcc -o")
	trace := fs.Bool("trace", false, "print one line per retired long instruction (requires -engine machine)")
	engine := fs.String("engine", "compiled", "simulation engine: "+bench.EngineNames())
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m, err := alloc.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "dspsim: unknown mode %q\n", *mode)
		return 2
	}
	eng, err := bench.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "dspsim:", err)
		return 2
	}
	// Only the reference interpreter traces, so -trace implies -engine
	// machine; an explicit conflicting engine is an error rather than a
	// silently ignored flag.
	if *trace && eng != bench.EngineMachine {
		engineSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "engine" {
				engineSet = true
			}
		})
		if engineSet {
			fmt.Fprintf(stderr, "dspsim: -trace requires -engine machine (the %s engine does not trace)\n", eng)
			return 2
		}
		eng = bench.EngineMachine
	}
	var data []byte
	name := "stdin"
	if fs.NArg() == 0 || fs.Arg(0) == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		name = fs.Arg(0)
		data, err = os.ReadFile(name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dspsim:", err)
		return 1
	}

	var sched *compact.Program
	var globals []*ir.Symbol
	if *image {
		sched, err = encode.Decode(data)
		if err != nil {
			fmt.Fprintln(stderr, "dspsim:", err)
			return 1
		}
		globals = sched.Src.Globals
	} else {
		c, err := pipeline.Compile(string(data), name, pipeline.Options{Mode: m})
		if err != nil {
			fmt.Fprintln(stderr, "dspsim:", err)
			return 1
		}
		sched = c.Sched
		globals = c.IR.Globals
	}

	// The two engines are pinned to identical counters and memory
	// images by the differential suite; the switch picks dispatch
	// machinery only. simMachine is the read-back surface the report
	// and -print need.
	type simMachine interface {
		Run() error
		Counters() sim.Counters
		Int32(sym *ir.Symbol, idx int) (int32, error)
		Float32(sym *ir.Symbol, idx int) (float32, error)
	}
	var mach simMachine
	switch eng {
	case bench.EngineMachine:
		m := sim.NewMachine(sched)
		if *trace {
			m.Trace = stdout
		}
		mach = m
	default:
		cp, err := sim.Compile(sched)
		if err != nil {
			fmt.Fprintln(stderr, "dspsim:", err)
			return 1
		}
		mach = cp.NewMachine()
	}
	if err := mach.Run(); err != nil {
		fmt.Fprintln(stderr, "dspsim:", err)
		return 1
	}
	ctr := mach.Counters()
	fmt.Fprintf(stdout, "ports=%-11s cycles=%d ops=%d instrs=%d dualmem=%d conflicts=%d\n",
		sched.Ports, ctr.Cycles, ctr.OpsExecuted, sched.StaticInstrs(),
		ctr.DualMemCycles, ctr.BankConflicts)

	if *print == "" {
		return 0
	}
	byName := func(n string) *ir.Symbol {
		for _, g := range globals {
			if g.Name == n {
				return g
			}
		}
		return nil
	}
	for _, spec := range strings.Split(*print, ",") {
		gname, count := spec, 8
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			gname = spec[:i]
			if n, err := strconv.Atoi(spec[i+1:]); err == nil {
				count = n
			}
		}
		g := byName(gname)
		if g == nil {
			fmt.Fprintf(stderr, "dspsim: no global %q\n", gname)
			continue
		}
		if count > g.Size {
			count = g.Size
		}
		fmt.Fprintf(stdout, "%s[0:%d] =", gname, count)
		for i := 0; i < count; i++ {
			if g.Elem == ir.TFloat {
				v, _ := mach.Float32(g, i)
				fmt.Fprintf(stdout, " %g", v)
			} else {
				v, _ := mach.Int32(g, i)
				fmt.Fprintf(stdout, " %d", v)
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
