package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// specFile is the part of BENCHMARK.json the steadiness mode reads.
type specFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs the workload n times, with seeds 1..n, each in a
// child process of this binary, and prints every metric's median and
// interquartile spread as a share of the median. A metric whose spread
// exceeds its bound is flagged WIDE, one above a third of it near;
// set-up time is exempt from the spread rule.
func runSteady(n int, workload string, seconds float64, trace int, stdout, stderr io.Writer) int {
	const specPath = "BENCHMARK.json"
	bounds := map[string]float64{}
	if data, err := os.ReadFile(specPath); err != nil {
		fmt.Fprintf(stderr, "perfbench: no bounds (%v)\n", err)
	} else {
		var spec specFile
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", specPath, err)
			return 1
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		var out, errOut bytes.Buffer
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n%s", seed, err, errOut.String())
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: result line: %v\n", seed, err)
			return 1
		}
		var line strings.Builder
		for _, name := range sortedKeys(r.Metrics) {
			v := r.Metrics[name]
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
			fmt.Fprintf(&line, " %s=%.4g", name, v.Value)
		}
		fmt.Fprintf(stderr, "perfbench: %s seed %d done (%d ops):%s\n", workload, seed, r.Attempted, line.String())
	}
	names := sortedKeys(values)
	fmt.Fprintf(stdout, "%s, %d runs of %gs:\n%-24s %14s %10s %8s\n", workload, n, seconds, "metric", "median", "spread", "bound")
	wide := 0
	for _, name := range names {
		vs := values[name]
		sp := spread(vs)
		flag := ""
		if b, ok := bounds[name]; ok && name != "setup_s" {
			switch {
			case sp > b:
				flag = "WIDE"
				wide++
			case sp > b/3:
				flag = "near"
			}
		}
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Fprintf(stdout, "%-24s %14.6g %9.2f%% %8s %s %s\n", name, median(vs), 100*sp, bound, units[name], flag)
	}
	if wide > 0 {
		fmt.Fprintf(stdout, "%d metrics wider than their bound\n", wide)
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
