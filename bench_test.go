package dualbank_test

// This file regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each sub-benchmark compiles and
// simulates one (program, allocation-mode) pair and reports the
// simulated cycle count and the percentage gain over the single-bank
// baseline as custom metrics:
//
//	go test -bench 'Figure7' -benchtime 1x
//	go test -bench 'Figure8' -benchtime 1x
//	go test -bench 'Table3'  -benchtime 1x
//
// The wall-clock ns/op numbers measure this reproduction's compiler
// and simulator; the paper's results correspond to the cycles and
// gain_% metrics.

import (
	"fmt"
	"runtime"
	"testing"

	"dualbank"
	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/cost"
)

// measure compiles and runs p under mode once per iteration and
// reports cycle metrics.
func measure(b *testing.B, p bench.Program, mode alloc.Mode, baseCycles int64) bench.Result {
	b.Helper()
	var res bench.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Run(p, mode)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles), "cycles")
	if baseCycles > 0 {
		gain := (float64(baseCycles)/float64(res.Cycles) - 1) * 100
		b.ReportMetric(gain, "gain_%")
	}
	return res
}

func baseline(b *testing.B, p bench.Program) int64 {
	b.Helper()
	res, err := bench.Run(p, alloc.SingleBank)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}

// BenchmarkFigure7 reproduces the kernel experiment: CB partitioning
// vs the dual-ported Ideal over the twelve Table 1 kernels.
func BenchmarkFigure7(b *testing.B) {
	for _, p := range bench.Kernels() {
		p := p
		base := int64(0)
		b.Run(p.Name+"/baseline", func(b *testing.B) {
			r := measure(b, p, alloc.SingleBank, 0)
			base = r.Cycles
		})
		for _, mode := range bench.Figure7Modes {
			mode := mode
			b.Run(fmt.Sprintf("%s/%v", p.Name, mode), func(b *testing.B) {
				measure(b, p, mode, base)
			})
		}
	}
}

// BenchmarkFigure8 reproduces the application experiment: CB, profiled
// weights (Pr), partial duplication (Dup) and Ideal over the eleven
// Table 2 applications.
func BenchmarkFigure8(b *testing.B) {
	for _, p := range bench.Applications() {
		p := p
		base := int64(0)
		b.Run(p.Name+"/baseline", func(b *testing.B) {
			r := measure(b, p, alloc.SingleBank, 0)
			base = r.Cycles
		})
		for _, mode := range bench.Figure8Modes {
			mode := mode
			b.Run(fmt.Sprintf("%s/%v", p.Name, mode), func(b *testing.B) {
				measure(b, p, mode, base)
			})
		}
	}
}

// BenchmarkTable3 reproduces the performance/cost trade-off table:
// full duplication, partial duplication, CB partitioning and Ideal,
// reporting PG, CI and PCR per application.
func BenchmarkTable3(b *testing.B) {
	for _, p := range bench.Applications() {
		p := p
		baseRes, err := bench.Run(p, alloc.SingleBank)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range bench.Table3Modes {
			mode := mode
			b.Run(fmt.Sprintf("%s/%v", p.Name, mode), func(b *testing.B) {
				res := measure(b, p, mode, baseRes.Cycles)
				m := cost.Compare(baseRes.Cycles, res.Cycles, baseRes.Mem, res.Mem)
				b.ReportMetric(m.PG, "PG")
				b.ReportMetric(m.CI, "CI")
				b.ReportMetric(m.PCR, "PCR")
			})
		}
	}
}

// BenchmarkAblations quantifies the design choices DESIGN.md calls
// out: multiply-accumulate fusion, loop shaping (rotation plus
// hardware loops), and derived-induction strength reduction, measured
// on fir_256_64 under CB partitioning.
func BenchmarkAblations(b *testing.B) {
	p, _ := bench.ByName("fir_256_64")
	cases := []struct {
		name string
		opts dualbank.Options
	}{
		{"full", dualbank.Options{Mode: dualbank.CB}},
		{"no-mac-fusion", dualbank.Options{Mode: dualbank.CB, DisableMACFusion: true}},
		{"no-loop-shaping", dualbank.Options{Mode: dualbank.CB, DisableLoopShaping: true}},
		{"no-strength-reduce", dualbank.Options{Mode: dualbank.CB, DisableStrengthReduce: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				comp, err := dualbank.Compile(p.Source, p.Name, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				m, err := comp.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = m.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// runHarness regenerates the Figure 7, Figure 8, Table 3,
// memory-organisation and FIR-sweep experiments on one harness — the
// full `dspbench -all` workload.
func runHarness(b *testing.B, h *bench.Harness) {
	b.Helper()
	if _, err := h.Figure7(); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Figure8(); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Table3(); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Organizations(); err != nil {
		b.Fatal(err)
	}
	if _, err := h.SweepFIR([]int{8, 16, 32, 64, 128, 256}, 16); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHarnessSerial measures the whole evaluation pipeline on a
// single worker; BenchmarkHarnessParallel fans the same jobs across
// GOMAXPROCS workers. Both share the per-invocation memoized cache (a
// fresh harness per iteration), so the ratio isolates the worker
// pool's wall-clock win.
func BenchmarkHarnessSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runHarness(b, bench.NewHarness(1))
	}
}

// BenchmarkHarnessParallel is the multi-worker counterpart of
// BenchmarkHarnessSerial.
func BenchmarkHarnessParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runHarness(b, bench.NewHarness(runtime.GOMAXPROCS(0)))
	}
}

// BenchmarkCompiler measures compilation speed (front-end through
// scheduling) on a representative program.
func BenchmarkCompiler(b *testing.B) {
	for _, name := range []string{"fft_256", "lpc", "G721MLencode"} {
		p, _ := bench.ByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dualbank.Compile(p.Source, p.Name, dualbank.Options{Mode: dualbank.CB}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures simulation throughput (simulated cycles
// per wall-clock second) on the largest kernel.
func BenchmarkSimulator(b *testing.B) {
	p, _ := bench.ByName("fft_1024")
	comp, err := dualbank.Compile(p.Source, p.Name, dualbank.Options{Mode: dualbank.CB})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		m, err := comp.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += m.Cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim_cycles/s")
}
