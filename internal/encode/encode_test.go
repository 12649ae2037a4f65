package encode_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/compact"
	"dualbank/internal/encode"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// geometries are the bank geometries BENCH_hw.json sweeps, 2x1…4x2.
var geometries = []machine.BankSpec{
	{Banks: 2, PortsPerBank: 1}, {Banks: 3, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 1},
	{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2},
}

// geometryModes returns the modes a geometry is measured under: all
// seven on the classic machine, the partitioned ones elsewhere.
func geometryModes(spec machine.BankSpec) []alloc.Mode {
	if spec.IsDefault() {
		return []alloc.Mode{
			alloc.SingleBank, alloc.CB, alloc.CBProfiled,
			alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
		}
	}
	return []alloc.Mode{alloc.CB, alloc.CBProfiled, alloc.CBDup}
}

// roundTripSuite prepares each program once and round-trips it under
// every geometry's modes.
func roundTripSuite(t *testing.T, progs []bench.Program) {
	t.Helper()
	cc := new(pipeline.Compiler)
	for _, p := range progs {
		prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range geometries {
			for _, mode := range geometryModes(spec) {
				c, err := cc.Finish(context.Background(), prep, pipeline.Options{Mode: mode, Spec: spec})
				if err != nil {
					t.Fatalf("%s %v %s: %v", p.Name, mode, spec, err)
				}
				roundTrip(t, fmt.Sprintf("%s %v %s", p.Name, mode, spec), c.Sched)
			}
		}
	}
}

// roundTrip encodes a schedule, decodes the image, and runs both
// programs on both engines, comparing all five counters and every word
// of every bank. The decoded program must also keep the geometry and
// every operation, and re-encode to the same bytes.
func roundTrip(t *testing.T, label string, sched *compact.Program) {
	t.Helper()
	img, err := encode.Encode(sched)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	dec, err := encode.Decode(img)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if !reflect.DeepEqual(dec.Spec, sched.Spec) || dec.Ports != sched.Ports {
		t.Fatalf("%s: decoded as %s ports %v, want %s ports %v", label, dec.Spec, dec.Ports, sched.Spec, sched.Ports)
	}
	if got, want := opCount(dec), opCount(sched); got != want {
		t.Fatalf("%s: decoded image has %d ops, want %d", label, got, want)
	}
	again, err := encode.Encode(dec)
	if err != nil {
		t.Fatalf("%s: re-encode: %v", label, err)
	}
	if !bytes.Equal(again, img) {
		t.Fatalf("%s: re-encoding the decoded program changed the image", label)
	}

	m1, m2 := sim.NewMachine(sched), sim.NewMachine(dec)
	if err := m1.Run(); err != nil {
		t.Fatalf("%s: machine run: %v", label, err)
	}
	if err := m2.Run(); err != nil {
		t.Fatalf("%s: decoded image, machine run: %v", label, err)
	}
	sameRun(t, label+" machine", m1.Counters(), m2.Counters(), m1.Banks, m2.Banks)

	cm1, cm2 := compiledRun(t, label, sched), compiledRun(t, label+" decoded", dec)
	sameRun(t, label+" compiled", cm1.Counters(), cm2.Counters(), cm1.Banks, cm2.Banks)
}

// compiledRun runs sched on the compiled engine.
func compiledRun(t *testing.T, label string, sched *compact.Program) *sim.CompiledMachine {
	t.Helper()
	cp, err := sim.Compile(sched)
	if err != nil {
		t.Fatalf("%s: lower: %v", label, err)
	}
	m := cp.NewMachine()
	if err := m.Run(); err != nil {
		t.Fatalf("%s: compiled run: %v", label, err)
	}
	return m
}

// sameRun compares two runs' counters and bank images.
func sameRun(t *testing.T, label string, c1, c2 sim.Counters, b1, b2 [][]uint32) {
	t.Helper()
	if c1 != c2 {
		t.Fatalf("%s: counters %+v, decoded %+v", label, c1, c2)
	}
	if !slices.EqualFunc(b1, b2, slices.Equal) {
		t.Fatalf("%s: bank images differ", label)
	}
}

// opCount counts the operations a schedule issues.
func opCount(p *compact.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				n += in.Count()
			}
		}
	}
	return n
}

// TestRoundTripKernels round-trips the twelve kernels at every swept
// geometry.
func TestRoundTripKernels(t *testing.T) {
	roundTripSuite(t, bench.Kernels())
}

// TestRoundTripApplications round-trips the eleven applications at
// every swept geometry: duplication (lpc), calls (spectral's fft),
// heavy integer code (adpcm) and the low-order organisation.
func TestRoundTripApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	roundTripSuite(t, bench.Applications())
}

// TestRoundTripUnitBinding round-trips a machine whose memory units
// reach the banks in a non-default order: the image must keep the
// binding, or the decoded program would access other banks.
func TestRoundTripUnitBinding(t *testing.T) {
	p, _ := bench.ByName("fft_256")
	spec := machine.BankSpec{Banks: 2, PortsPerBank: 2, UnitBinding: []int8{1, 1, 0, 0}}
	for _, mode := range []alloc.Mode{alloc.CB, alloc.CBDup} {
		c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, fmt.Sprintf("fft_256 %v bound %v", mode, spec.UnitBinding), c.Sched)
	}
}

// callSource calls a function with arguments. The caller stores each
// argument into the callee's parameter slot, a local of the callee, so
// the image holds ops on symbols another function declares.
const callSource = `
float x[16] = {1.0, 2.0, 3.0, 4.0, 5.0};
float h[8] = {0.5, 0.25, 0.125};
float y[8];

float tap(float acc, float a, float b) {
	return acc + a * b;
}

void main() {
	int n;
	int k;
	for (n = 0; n < 8; n++) {
		float acc = 0.0;
		for (k = 0; k < 8; k++) {
			acc = tap(acc, x[n + k], h[k]);
		}
		y[n] = acc;
	}
}
`

// TestRoundTripCallWithArguments round-trips a program whose calls
// pass arguments, at every swept geometry, on both engines.
func TestRoundTripCallWithArguments(t *testing.T) {
	roundTripSuite(t, []bench.Program{{Name: "call", Source: callSource}})
}

// TestDecodeRejectsOtherVersions checks that a version 1 image, which
// had no geometry and only nine slots, is refused rather than misread.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	p, _ := bench.ByName("fir_32_1")
	c, err := pipeline.Compile(p.Source, "fir", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	img[4] = 1
	if _, err := encode.Decode(img); err == nil || !strings.Contains(err.Error(), "unsupported image version 1") {
		t.Fatalf("version 1 image: %v", err)
	}
}

// TestDecodeRejectsBadGeometry corrupts the header's geometry: an
// invalid geometry fails validation, and so does a valid one too narrow
// for the instructions that follow.
func TestDecodeRejectsBadGeometry(t *testing.T) {
	p, _ := bench.ByName("fft_256")
	c, err := pipeline.Compile(p.Source, "fft", pipeline.Options{Mode: alloc.CB, Spec: machine.BankSpec{Banks: 4, PortsPerBank: 2}})
	if err != nil {
		t.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic, version, port model, banks, ports per bank.
	for _, tc := range []struct {
		at   int
		val  byte
		want string
	}{
		{6, 1, "1 banks out of range"},
		{6, 9, "9 banks out of range"},
		{7, 3, "needs 12 memory units"},
	} {
		mut := append([]byte(nil), img...)
		mut[tc.at] = tc.val
		if _, err := encode.Decode(mut); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("header byte %d = %d: %v, want %q", tc.at, tc.val, err, tc.want)
		}
	}
	// fft_256 at 4x2 issues on MU2…MU7, which a 2x1 machine lacks.
	mut := append([]byte(nil), img...)
	mut[6], mut[7] = 2, 1
	if _, err := encode.Decode(mut); err == nil || !strings.Contains(err.Error(), "beyond the machine's 9") {
		t.Errorf("4x2 image decoded as 2x1: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := encode.Decode([]byte("not an image")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := encode.Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p, _ := bench.ByName("fir_32_1")
	c, err := pipeline.Compile(p.Source, "fir", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point must produce an error, never a panic or a
	// silently wrong program.
	for cut := 0; cut < len(img)-1; cut += 7 {
		if _, err := encode.Decode(img[:cut]); err == nil {
			t.Fatalf("truncated image (%d of %d bytes) accepted", cut, len(img))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p, _ := bench.ByName("fir_32_1")
	c, err := pipeline.Compile(p.Source, "fir", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes across the image; decoding must either fail or
	// produce a program that still passes the IR verifier (corruption
	// may land in data words, which are arbitrary). It must never
	// panic.
	for pos := 5; pos < len(img); pos += 13 {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked at corrupt byte %d: %v", pos, r)
				}
			}()
			_, _ = encode.Decode(mut)
		}()
	}
}

// cbImage compiles the named benchmark under CB and returns its image
// and the cycles the reference engine runs it in.
func cbImage(tb testing.TB, name string) ([]byte, int64) {
	tb.Helper()
	p, _ := bench.ByName(name)
	c, err := pipeline.Compile(p.Source, name, pipeline.Options{Mode: alloc.CB})
	if err != nil {
		tb.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		tb.Fatal(err)
	}
	ref := sim.NewMachine(c.Sched)
	if err := ref.Run(); err != nil {
		tb.Fatal(err)
	}
	return img, ref.Cycles
}

// runAlike runs a decoded image on both engines under a cycle cap and
// describes how they differ: a panic, one verdict each, or unequal
// counters. It returns "" when they agree.
func runAlike(dec *compact.Program, maxCycles int64) string {
	var mc, cc sim.Counters
	mpanic, merr := guard(func() error {
		m := sim.NewMachine(dec)
		m.MaxCycles = maxCycles
		err := m.Run()
		mc = m.Counters()
		return err
	})
	cpanic, cerr := guard(func() error {
		cp, err := sim.Compile(dec)
		if err != nil {
			return err
		}
		m := cp.NewMachine()
		m.MaxCycles = maxCycles
		err = m.Run()
		cc = m.Counters()
		return err
	})
	switch {
	case mpanic != nil || cpanic != nil || (merr == nil) != (cerr == nil):
		return fmt.Sprintf("machine: %v (panic %v); compiled: %v (panic %v)", merr, mpanic, cerr, cpanic)
	case merr == nil && mc != cc:
		return fmt.Sprintf("machine counters %+v, compiled %+v", mc, cc)
	}
	return ""
}

// TestBitFlipsRunAlikeOnBothEngines flips every bit of three CB images
// and runs each image that still decodes on both engines under a cycle
// cap. Decode must refuse a symbol that is neither a global nor a
// local, which the compiled engine has no memory for, and an
// instruction writing one register twice, which only the reference
// engine rejects. No run may panic, both engines must fail or both
// succeed, and runs that succeed must agree on every counter.
func TestBitFlipsRunAlikeOnBothEngines(t *testing.T) {
	for _, name := range []string{"fir_32_1", "iir_1_1", "lmsfir_8_1"} {
		img, cycles := cbImage(t, name)
		decoded, failures := 0, 0
		for bit := 0; bit < 8*len(img) && failures < 10; bit++ {
			mut := slices.Clone(img)
			mut[bit/8] ^= 1 << (bit % 8)
			var dec *compact.Program
			panicked, err := guard(func() (err error) { dec, err = encode.Decode(mut); return err })
			if panicked != nil {
				t.Errorf("%s bit %d: decode panicked: %v", name, bit, panicked)
				failures++
				continue
			}
			if err != nil {
				continue // refused, as corruption should be
			}
			decoded++
			if diff := runAlike(dec, 10*cycles); diff != "" {
				t.Errorf("%s bit %d: %s", name, bit, diff)
				failures++
			}
		}
		t.Logf("%s: %d bits flipped, %d images decode", name, 8*len(img), decoded)
	}
}

// TestDecodeRejectsHugeCounts replaces the symbol count, the function
// count and the first function's block count of a CB image, one at a
// time, with 2^56-1. Decode must refuse each with an error naming the
// count, before sizing anything by it.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	img, _ := cbImage(t, "fir_32_1")
	off := 6
	uvarint := func() int {
		v, n := binary.Uvarint(img[off:])
		off += n
		return int(v)
	}
	spans := map[string][2]int{}
	count := func(what string) int {
		start := off
		n := uvarint()
		spans[what] = [2]int{start, off}
		return n
	}
	off += 2         // banks, ports per bank
	off += uvarint() // unit binding
	off += uvarint() // program name
	uvarint()        // globals
	for n := count("symbol"); n > 0; n-- {
		off += uvarint() + 2 // name, kind, element type
		uvarint()            // size
		for d := uvarint(); d > 0; d-- {
			uvarint()
		}
		off += 2             // flags, bank
		uvarint()            // address
		off += 4 * uvarint() // initializer words
	}
	count("function")
	off += uvarint() + 1              // name, return type
	for list := 0; list < 2; list++ { // params, locals
		for n := uvarint(); n > 0; n-- {
			uvarint()
		}
	}
	count("block")

	huge := binary.AppendUvarint(nil, 1<<56-1)
	for what, span := range spans {
		mut := slices.Concat(img[:span[0]], huge, img[span[1]:])
		panicked, err := guard(func() error { _, err := encode.Decode(mut); return err })
		if panicked != nil || err == nil || !strings.Contains(err.Error(), what+" count") {
			t.Errorf("%s count of 2^56-1: panic %v, error %v; want an error naming the count", what, panicked, err)
		}
	}
}

// FuzzDecode holds Decode to raw bytes: it must never panic, and every
// image it accepts must run alike on both engines under a cycle cap.
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"fir_32_1", "iir_1_1", "lmsfir_8_1"} {
		img, _ := cbImage(f, name)
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := encode.Decode(data)
		if err != nil {
			return
		}
		if diff := runAlike(dec, 1<<16); diff != "" {
			t.Fatal(diff)
		}
	})
}

// guard runs f and returns the value it panicked with, if any, and
// otherwise its error.
func guard(f func() error) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, f()
}

func TestImageDensity(t *testing.T) {
	p, _ := bench.ByName("fft_256")
	c, err := pipeline.Compile(p.Source, "fft", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	instrs := c.Sched.StaticInstrs()
	if instrs == 0 {
		t.Fatal("no instructions")
	}
	// Separate the embedded data tables (twiddle factors, input
	// samples) from the code stream.
	dataBytes := 0
	for _, s := range c.IR.Symbols() {
		dataBytes += 4 * len(s.Init)
	}
	codeBytes := len(img) - dataBytes
	perInstr := float64(codeBytes) / float64(instrs)
	// Tightly-encoded instructions are a DSP hallmark; the variable
	// encoding should stay far below a naive 9-slot fixed layout
	// (9 slots x ~8 bytes = 72 bytes per instruction).
	if perInstr > 40 {
		t.Errorf("code density %.1f bytes/instr — encoding is not tight", perInstr)
	}
	t.Logf("image: %d bytes total, %d data, %d code over %d instructions (%.1f bytes/instr)",
		len(img), dataBytes, codeBytes, instrs, perInstr)
}
