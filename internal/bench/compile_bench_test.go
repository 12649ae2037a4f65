package bench

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
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
// allocation) over the 23-program suite; one op is the whole suite.
func BenchmarkPrepare(b *testing.B) {
	progs := append(Kernels(), Applications()...)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFingerprint prices the simulation memo's key against the
// work a memo hit skips. For each program's CB schedule, "fingerprint"
// encodes and hashes it, and "simulate" lowers, runs and checks it on
// the compiled engine with a recycled arena, as a harness miss does.
func BenchmarkFingerprint(b *testing.B) {
	ctx := context.Background()
	for _, name := range []string{"fft_256", "adpcm", "histogram"} {
		p, ok := ByName(name)
		if !ok {
			b.Fatalf("no %s benchmark", name)
		}
		cc := new(pipeline.Compiler)
		c, err := cc.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/fingerprint", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fingerprint(c.Sched, EngineCompiled); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/simulate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := simulate(ctx, EngineCompiled, cc, c)
				if err != nil {
					b.Fatal(err)
				}
				if err := checkOutputs(p, c, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
