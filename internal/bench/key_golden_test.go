package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
	"dualbank/internal/machine"
)

// keysGolden returns one line per pinned string: the CacheKey of every
// mode under a set of run options covering each knob the key encodes
// (geometry, permutation, duplication set, partitioner and FM passes,
// profile weighting, engine), then the FingerprintSpec of every mode
// at every geometry.
func keysGolden() []string {
	p := Program{Name: "fir_32_1"}
	modes := []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup,
		alloc.FullDup, alloc.Ideal, alloc.LowOrder}
	ros := []RunOptions{
		{},
		{Banks: 2, Ports: 1},
		{Banks: 3},
		{Banks: 4},
		{Banks: 2, Ports: 2},
		{Banks: 4, Ports: 2},
		{BankPerm: []int{1, 0}},
		{Banks: 3, BankPerm: []int{2, 0, 1}},
		{DupOnly: []string{"y", "x", "y"}},
		{DupOnly: []string{}},
		{Partitioner: core.MethodFM},
		{Partitioner: core.MethodFM, FMPasses: 2},
		{Partitioner: core.MethodFM, FMPasses: -1},
		{Partitioner: core.MethodKL, FMPasses: 3},
		{Partitioner: core.MethodExact},
		{Profiled: true},
		{Engine: EngineMachine},
		{Banks: 4, Ports: 2, Profiled: true, Partitioner: core.MethodFM, FMPasses: 1,
			BankPerm: []int{3, 2, 1, 0}, DupOnly: []string{"x"}, Engine: EngineMachine},
	}
	var lines []string
	for _, ro := range ros {
		for _, mode := range modes {
			lines = append(lines, CacheKey(p, mode, ro))
		}
	}
	specs := []machine.BankSpec{{}, {Banks: 2, PortsPerBank: 1}, {Banks: 3}, {Banks: 4},
		{Banks: 2, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2}}
	for _, spec := range specs {
		for _, mode := range modes {
			lines = append(lines, fmt.Sprintf("%v %v %s", mode, spec, FingerprintSpec(mode, spec)))
		}
	}
	return lines
}

// TestCacheKeyGolden pins the strings the cluster tier routes by and
// the shared L2 cache and checkpoint store address entries by: a
// change to how a key is built must leave every one of them as it was.
func TestCacheKeyGolden(t *testing.T) {
	golden := filepath.Join("testdata", "keys.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := keysGolden()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s line %d drifted:\ngot  %s\nwant %s", golden, i+1, got[i], want[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d keys, want %d", golden, len(got), len(want))
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "keys-*.golden")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(strings.Join(got, "\n") + "\n"); err != nil {
			t.Fatal(err)
		}
		t.Logf("if the change is intended, regenerate with:\n  cp %s internal/bench/%s", f.Name(), golden)
	}
}
