package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/explore"
)

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"fft_256", "fir_32_1", "adpcm"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list missing %q", want)
		}
	}
}

func TestRunSingleBenchmark(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "report.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-benchmark", "fir_32_1", "-budget", "40", "-workers", "4", "-quiet",
		"-json", jsonPath, "-csv", csvPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "fir_32_1:") || !strings.Contains(out, "verdict:") {
		t.Errorf("missing frontier table or verdict:\n%s", out)
	}

	var rep explore.Report
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Bench != "fir_32_1" || len(rep.Benchmarks[0].Frontier) == 0 {
		t.Errorf("report JSON malformed: %+v", rep)
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "bench,config,cycles,cost,pg,ci,pcr\n") {
		t.Errorf("CSV header wrong: %q", string(csv[:min(len(csv), 60)]))
	}
}

// TestRunCheckpointResume runs the same exploration twice against one
// checkpoint directory; the second run must replay from the store and
// print identical frontiers.
func TestRunCheckpointResume(t *testing.T) {
	ckpt := t.TempDir()
	args := []string{"-benchmark", "fir_32_1", "-budget", "30", "-quiet", "-checkpoint", ckpt}

	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run: exit %d, stderr: %s", code, err1.String())
	}
	files, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checkpoint files written")
	}

	var out2, err2 bytes.Buffer
	if code := run(args, &out2, &err2); code != 0 {
		t.Fatalf("second run: exit %d, stderr: %s", code, err2.String())
	}
	// The header line counts store hits (0 on the first run, >0 on the
	// resumed one); the frontier and verdict must be byte-identical.
	if got, want := stripCounters(out2.String()), stripCounters(out1.String()); got != want {
		t.Errorf("resumed frontier differs:\n1: %s\n2: %s", want, got)
	}
	if !strings.Contains(out2.String(), "store hits") || strings.Contains(out2.String(), "(0 store hits") {
		t.Errorf("second run did not replay checkpoints:\n%s", out2.String())
	}
	if !strings.Contains(err2.String(), "resuming from") {
		t.Errorf("no resume notice on stderr: %q", err2.String())
	}
}

// stripCounters drops the per-benchmark header lines (their store/cache
// hit counters legitimately differ between a fresh and a resumed run).
func stripCounters(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, " evals (") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestRunBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-report suite in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_explore.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench-report", path, "-quiet", "-budget", "40"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var rep explore.Report
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != len(benchReportSuite) {
		t.Errorf("bench report covers %d benchmarks, want %d", len(rep.Benchmarks), len(benchReportSuite))
	}
	if len(rep.Suite) == 0 {
		t.Error("bench report has no suite frontier")
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no benchmarks: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-benchmark", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown benchmark: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown benchmark") {
		t.Errorf("stderr: %q", stderr.String())
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestRunCertifySmoke drives the certified-optimality sweep through
// the CLI: text table on stdout, gap-report JSON at the -certify path.
func TestRunCertifySmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gaps.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-certify", path, "-benchmark", "fir_32_1,iir_1_1", "-workers", "2", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"certified optimality gaps", "iir_1_1", "optimal"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	var rep explore.CertReport
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("gap report JSON: %v", err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("gap report covers %d benchmarks, want 2", len(rep.Benchmarks))
	}
	iir := rep.Benchmarks[1]
	if iir.Bench != "iir_1_1" || iir.Cert.Verdict.String() != "optimal" || iir.Cert.Upper != 12 {
		t.Errorf("iir_1_1 certification malformed: %+v", iir)
	}
	for _, bc := range rep.Benchmarks {
		if len(bc.Arms) != 3 {
			t.Errorf("%s: %d arms, want 3", bc.Bench, len(bc.Arms))
		}
	}
}

// TestBenchNames pins the benchmarks each combination of selection
// flags picks.
func TestBenchNames(t *testing.T) {
	var kernels, apps []string
	for _, p := range bench.Kernels() {
		kernels = append(kernels, p.Name)
	}
	for _, p := range bench.Applications() {
		apps = append(apps, p.Name)
	}
	all := append(slices.Clone(kernels), apps...)
	cases := []struct {
		flags                             string // the command line the case stands for
		benchmarks                        string
		kernels, apps, report, wholeSuite bool
		want                              []string
	}{
		{flags: "", want: nil},
		{flags: "-benchmark ' fir_32_1 , ,iir_1_1'", benchmarks: " fir_32_1 , ,iir_1_1", want: []string{"fir_32_1", "iir_1_1"}},
		{flags: "-benchmark ,", benchmarks: ",", want: nil},
		{flags: "-kernels", kernels: true, want: kernels},
		{flags: "-apps", apps: true, want: apps},
		{flags: "-benchmark adpcm -apps -kernels", benchmarks: "adpcm", kernels: true, apps: true,
			want: append(slices.Clone(all), "adpcm")},
		{flags: "-bench-report x", report: true, want: benchReportSuite},
		{flags: "-bench-report x -kernels -benchmark adpcm", benchmarks: "adpcm", kernels: true, report: true, want: benchReportSuite},
		{flags: "-certify x", wholeSuite: true, want: all},
		{flags: "-hw-report x", wholeSuite: true, want: all},
		{flags: "-banks 3", wholeSuite: true, want: all},
		{flags: "-ports 2 -apps", apps: true, wholeSuite: true, want: apps},
		{flags: "-certify x -benchmark fir_32_1", benchmarks: "fir_32_1", wholeSuite: true, want: []string{"fir_32_1"}},
		{flags: "-hw-report x -benchmark ,", benchmarks: ",", wholeSuite: true, want: nil},
	}
	for _, c := range cases {
		got := benchNames(c.benchmarks, c.kernels, c.apps, c.report, c.wholeSuite)
		if !slices.Equal(got, c.want) {
			t.Errorf("%q selects %v, want %v", c.flags, got, c.want)
		}
	}
}
