package bench

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
	"dualbank/internal/genmc"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// Compile-path microbenchmarks over real benchmark programs, tracking
// the fast compile path end to end: the front end over the whole suite,
// interference-graph construction, whole-pipeline compilation, and the
// harness's compile+simulate unit.

// benchProgramIR compiles fft_256 once and returns its post-regalloc
// IR for graph-construction benchmarks.
func benchProgramIR(tb testing.TB) *pipeline.Compiled {
	p, ok := ByName("fft_256")
	if !ok {
		tb.Fatal("no fft_256 benchmark")
	}
	c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.SingleBank})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkBuildGraph(b *testing.B) {
	c := benchProgramIR(b)
	sc := new(core.Scanner)
	sc.BuildGraph(c.IR, core.WeightStatic) // warm the scanner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.BuildGraph(c.IR, core.WeightStatic)
	}
}

func BenchmarkCompileCB(b *testing.B) {
	p, ok := ByName("fft_256")
	if !ok {
		b.Fatal("no fft_256 benchmark")
	}
	cc := new(pipeline.Compiler)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCB(b *testing.B) {
	p, ok := ByName("fft_256")
	if !ok {
		b.Fatal("no fft_256 benchmark")
	}
	cc := new(pipeline.Compiler)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(p, alloc.CB, RunOptions{Compiler: cc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare runs the front end (parse through register
// allocation) over the 23-program suite on one compiler, as every
// measuring caller does; one op is the whole suite.
func BenchmarkPrepare(b *testing.B) {
	benchmarkPrepare(b, append(Kernels(), Applications()...))
}

// BenchmarkPrepareGenerated runs the front end over 250 generated
// programs on one compiler, the cold path of a server answering fresh
// generated names; one op is the whole population. Generating the
// sources is not timed.
func BenchmarkPrepareGenerated(b *testing.B) {
	benchmarkPrepare(b, generated(250, 3))
}

// generated returns the n-program generated population of a base seed,
// built as the harness builds a generated name, output check included.
func generated(n int, seed uint64) []Program {
	var progs []Program
	for _, k := range genmc.Population(n, seed) {
		p, _ := ByName(k.Name())
		progs = append(progs, p)
	}
	return progs
}

func benchmarkPrepare(b *testing.B, progs []Program) {
	ctx := context.Background()
	cc := new(pipeline.Compiler)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := cc.Prepare(ctx, p.Source, p.Name, opt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunSuite measures the suite under the paper's seven modes
// on one warm compiler: 161 bench.RunCtx calls, each a whole
// measurement (front end, back end, schedule check, simulation and
// output check); one op is the whole matrix.
func BenchmarkRunSuite(b *testing.B) {
	benchmarkRun(b, append(Kernels(), Applications()...), allModes)
}

// BenchmarkRunGenerated measures 250 generated programs under single,
// CB and Dup on one warm compiler, a server's cold measurements of
// fresh generated names; one op is the whole population.
func BenchmarkRunGenerated(b *testing.B) {
	benchmarkRun(b, generated(250, 3), []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup})
}

func benchmarkRun(b *testing.B, progs []Program, modes []alloc.Mode) {
	ctx := context.Background()
	ro := RunOptions{Compiler: new(pipeline.Compiler)}
	pass := func() {
		for _, p := range progs {
			for _, mode := range modes {
				if _, err := RunCtx(ctx, p, mode, ro); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pass() // warm the compiler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
