package pipeline

// FuzzImageRoundTrip is the ROM-image fuzz target: random programs
// from the property tests' generators, compiled for a fuzzed bank
// geometry and allocation mode, encoded and decoded. The decoded
// program must simulate exactly like its source on both engines — the
// five counters and every bank word — and re-encode to the same bytes,
// so an image written by dspcc -o runs under dspsim -image exactly as
// the program it was compiled from.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/encode"
	"dualbank/internal/machine"
	"dualbank/internal/sim"
)

// imageGeometries lists every valid bank geometry, classic machine
// first.
var imageGeometries = func() []machine.BankSpec {
	var out []machine.BankSpec
	for banks := 2; banks <= machine.MaxBanks; banks++ {
		for ports := 1; banks*ports <= machine.MaxMemUnits; ports++ {
			out = append(out, machine.BankSpec{Banks: banks, PortsPerBank: ports})
		}
	}
	return out
}()

// imageModes returns the modes alloc accepts under spec: all seven on
// the classic machine; Ideal and LowOrder are defined only there.
func imageModes(spec machine.BankSpec) []alloc.Mode {
	modes := []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup, alloc.FullDup}
	if spec.IsDefault() {
		modes = append(modes, alloc.Ideal, alloc.LowOrder)
	}
	return modes
}

// checkImageRoundTrip compiles one generated scalar, array and float
// program under the fuzzed geometry and mode, and round-trips each
// through its image.
func checkImageRoundTrip(t *testing.T, seed int64, geom, mode uint8) {
	spec := imageGeometries[int(geom)%len(imageGeometries)]
	modes := imageModes(spec)
	m := modes[int(mode)%len(modes)]
	rng := rand.New(rand.NewSource(seed))
	scalarSrc, _ := genProgram(rng)
	arraySrc, _ := genArrayProgram(rng)
	floatSrc, _ := genFloatProgram(rng)
	for i, src := range []string{scalarSrc, arraySrc, floatSrc} {
		label := fmt.Sprintf("seed %d program %d %v %s", seed, i, m, spec)
		c, err := Compile(src, fmt.Sprintf("ifuzz%d_%d", seed, i), Options{Mode: m, Spec: spec})
		if err != nil {
			t.Fatalf("%s: compile: %v\nsource:\n%s", label, err, src)
		}
		img, err := encode.Encode(c.Sched)
		if err != nil {
			t.Fatalf("%s: encode: %v", label, err)
		}
		dec, err := encode.Decode(img)
		if err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		again, err := encode.Encode(dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", label, err)
		}
		if !bytes.Equal(again, img) {
			t.Fatalf("%s: re-encoding the decoded program changed the image\nsource:\n%s", label, src)
		}
		sameSimulation(t, label, c.Sched, dec)
	}
}

// sameSimulation runs src and dec on both engines and compares their
// outcomes, counters and bank images engine by engine.
func sameSimulation(t *testing.T, label string, src, dec *compact.Program) {
	t.Helper()
	m1, m2 := sim.NewMachine(src), sim.NewMachine(dec)
	e1, e2 := m1.Run(), m2.Run()
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("%s: machine: source run %v, decoded run %v", label, e1, e2)
	}
	if e1 == nil && (m1.Counters() != m2.Counters() || !slices.EqualFunc(m1.Banks, m2.Banks, slices.Equal)) {
		t.Fatalf("%s: machine: decoded image ran differently: %+v vs %+v", label, m1.Counters(), m2.Counters())
	}
	cp1, err := sim.Compile(src)
	if err != nil {
		t.Fatalf("%s: lower: %v", label, err)
	}
	cp2, err := sim.Compile(dec)
	if err != nil {
		t.Fatalf("%s: lower decoded: %v", label, err)
	}
	c1, c2 := cp1.NewMachine(), cp2.NewMachine()
	e1, e2 = c1.Run(), c2.Run()
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("%s: compiled: source run %v, decoded run %v", label, e1, e2)
	}
	if e1 == nil && (c1.Counters() != c2.Counters() || !slices.EqualFunc(c1.Banks, c2.Banks, slices.Equal)) {
		t.Fatalf("%s: compiled: decoded image ran differently: %+v vs %+v", label, c1.Counters(), c2.Counters())
	}
}

func FuzzImageRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed))
	}
	f.Fuzz(checkImageRoundTrip)
}
