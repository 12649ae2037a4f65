package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sort"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/pipeline"
	"dualbank/internal/serve"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so the helpers must sort
	}
	return v
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64 // requested percentile
		p, v    float64
		beyond  int
		enoughs bool
	}{
		{n: 1000, want: 99, p: 99, v: 990, beyond: 10, enoughs: true},
		{n: 2000, want: 99, p: 99, v: 1980, beyond: 20, enoughs: true},
		{n: 500, want: 99, p: 98, v: 490, beyond: 10, enoughs: true},
		{n: 161, want: 99, p: 100 * 151.0 / 161, v: 151, beyond: 10, enoughs: true},
		{n: 11, want: 99, p: 100.0 / 11, v: 1, beyond: 10, enoughs: true},
		{n: 10, want: 99},
		{n: 0, want: 50},
	} {
		p, v, beyond, ok := tailPercentile(seq(tc.n), tc.want)
		if ok != tc.enoughs || beyond != tc.beyond || v != tc.v || math.Abs(p-tc.p) > 1e-9 {
			t.Errorf("n=%d p%g: got p%g = %g with %d beyond (ok %v), want p%g = %g with %d beyond (ok %v)",
				tc.n, tc.want, p, v, beyond, ok, tc.p, tc.v, tc.beyond, tc.enoughs)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g; want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{16, 1, 8, 2, 4}); got != 10.5/4 {
		t.Errorf("spread = %g, want %g", got, 10.5/4)
	}
	if median(seq(4)) != 2.5 || median(seq(5)) != 3 || median(nil) != 0 {
		t.Error("median of 1..4 / 1..5 / nothing wrong")
	}
}

func TestQuietIsFastestTenth(t *testing.T) {
	if got := quiet(seq(100)); got != 10 {
		t.Errorf("quiet(1..100) = %g, want 10", got)
	}
	if got := quiet(seq(5)); got != 1 {
		t.Errorf("quiet(1..5) = %g, want 1", got)
	}
}

func TestOpLatenciesScaleToQuietPass(t *testing.T) {
	// The quiet pass time is 1 s, so the 2 s pass's samples count half.
	all, cold, warm := opLatencies([]float64{1, 2, 1}, [][]opSample{
		{{id: 0, cold: true, ms: 5}, {id: 1, ms: 9}},
		{{id: 0, cold: true, ms: 12}, {id: 1, ms: 14}},
		{{id: 0, ms: 4}, {id: 1, ms: 8}},
	})
	sort.Float64s(all)
	sort.Float64s(warm)
	if len(all) != 2 || all[0] != 5 || all[1] != 8 {
		t.Errorf("all = %v, want [5 8]", all)
	}
	if len(cold) != 1 || cold[0] != 5.5 {
		t.Errorf("cold = %v, want [5.5]", cold)
	}
	if len(warm) != 2 || warm[0] != 4 || warm[1] != 8 {
		t.Errorf("warm = %v, want [4 8]", warm)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "minic.parse_s", "op-p99", "2x1", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "ops/s", "p99%", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "KiB", "count"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	if validUnit("") || validUnit("seconds per op!") {
		t.Error("validUnit accepted a bad unit")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) {
			t.Errorf("metric %s [%s] is not a valid name and unit", d.name, d.unit)
		}
	}
}

func TestFailFracAccounting(t *testing.T) {
	var tl tally
	if tl.failFrac() != 0 {
		t.Fatal("empty tally has failures")
	}

	// The serve layer's answers: non-200, transport errors and bodies
	// that do not decode all fail the request.
	for _, tc := range []struct {
		status int
		body   string
		err    error
		want   failKind
	}{
		{200, `{"bench":"b","cycles":7,"cached":false}`, nil, opOK},
		{http.StatusUnprocessableEntity, `{"error":"output check"}`, nil, failStatus},
		{http.StatusTooManyRequests, ``, nil, failStatus},
		{200, ``, errors.New("connection reset"), failTransport},
		{200, `{"bench":`, nil, failTransport},
	} {
		_, kind, err := decodeAnswer(tc.status, []byte(tc.body), tc.err)
		if kind != tc.want || (kind == opOK) != (err == nil) {
			t.Errorf("decodeAnswer(%d, %q, %v) = %v, %v; want kind %v", tc.status, tc.body, tc.err, kind, err, tc.want)
		}
		tl.add(kind, "answer")
	}

	// A repeated key must come back cached and equal to its first answer.
	r := &serveRun{st: &serveState{names: []string{"gen_pair_1"}}, t: &tl, first: map[int]serve.Response{}}
	r.record(0, true, serve.Response{Bench: "gen_pair_1", Cycles: 10})
	r.record(0, false, serve.Response{Bench: "gen_pair_1", Cycles: 10, Cached: true})
	r.record(0, false, serve.Response{Bench: "gen_pair_1", Cycles: 11, Cached: true})

	// A batch operation's own failure and a baseline mismatch.
	fir := bench.FIR(32, 1)
	broken := fir
	broken.Check = func(bench.Reader) error { return errors.New("wrong output") }
	base, err := bench.Run(fir, alloc.CB)
	if err != nil {
		t.Fatal(err)
	}
	wrong := baseOf(base)
	wrong.Cycles++
	st := &paperState{
		cells: []cell{{fir, alloc.CB}, {broken, alloc.CB}, {fir, alloc.SingleBank}},
		base: map[string]cellBase{
			cellKey(fir.Name, alloc.CB):         baseOf(base),
			cellKey(fir.Name, alloc.SingleBank): wrong,
		},
	}
	st.measure(context.Background(), []int{0, 1, 2}, new(pipeline.Compiler), nil, nil, &tl, &testLog{t})

	attempted, failed := tl.counts()
	if attempted != 11 || failed != 7 {
		t.Fatalf("attempted %d, failed %d; want 11, 7\n%s", attempted, failed, tl.summary())
	}
	want := [numFailKinds]int64{opOK: 4, failStatus: 2, failTransport: 2, failCheck: 1, failMismatch: 2}
	if tl.kinds != want {
		t.Errorf("kinds %v, want %v", tl.kinds, want)
	}
	if got := tl.failFrac(); got != 7.0/11 {
		t.Errorf("failFrac = %g, want %g", got, 7.0/11)
	}
}

// testLog routes a workload's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l *testLog) Write(b []byte) (int, error) {
	l.t.Log(string(b))
	return len(b), nil
}
