package asm_test

import (
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/asm"
	"dualbank/internal/bench"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
)

const src = `
float A[8] = {1.0};
float B[8] = {2.0};
float sum;
void main() {
	int i;
	float s = 0.0;
	for (i = 0; i < 8; i++) {
		s += A[i] * B[i];
	}
	sum = s;
}
`

func TestPrintContainsStructure(t *testing.T) {
	c, err := pipeline.Compile(src, "fir", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	out := asm.Print(c.Sched)
	for _, want := range []string{
		"; program fir",
		"banked",
		"main:",
		".main_b0:",
		"MU0:",   // memory unit 0 in use
		"MU1:",   // both banks active under CB
		" || ",   // at least one packed instruction
		"enddo",  // hardware loop
		"fmac",   // fused multiply-accumulate
		"bank=X", // symbol table comments
		"bank=Y",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("assembly missing %q:\n%s", want, out)
		}
	}
}

func TestPrintFuncUnknown(t *testing.T) {
	c, err := pipeline.Compile(src, "fir", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	if out := asm.PrintFunc(c.Sched, "nope"); !strings.Contains(out, "no function") {
		t.Errorf("PrintFunc on unknown = %q", out)
	}
}

func TestPrintSingleBankUsesOnlyMU0(t *testing.T) {
	c, err := pipeline.Compile(src, "fir", pipeline.Options{Mode: alloc.SingleBank})
	if err != nil {
		t.Fatal(err)
	}
	out := asm.Print(c.Sched)
	if strings.Contains(out, "MU1:") {
		t.Errorf("single-bank assembly uses MU1:\n%s", out)
	}
}

// TestPrintNamesEveryOp lists fft_256 under CB on the classic machine
// and on a 4-bank 2-port one, whose memory units run past MU1 to MU7:
// the listing must name every scheduled operation under its unit.
func TestPrintNamesEveryOp(t *testing.T) {
	p, ok := bench.ByName("fft_256")
	if !ok {
		t.Fatal("fft_256 not found")
	}
	for _, spec := range []machine.BankSpec{{}, {Banks: 4, PortsPerBank: 2}} {
		c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		out := asm.Print(c.Sched)
		listed := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "    ") && strings.TrimSpace(line) != "nop" {
				listed += 1 + strings.Count(line, " || ")
			}
		}
		units := map[machine.Unit]bool{}
		scheduled, wide := 0, 0
		for _, f := range c.Sched.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for u, op := range in.Slots {
						if op != nil {
							scheduled++
							units[machine.Unit(u)] = true
							if u >= machine.NumUnits {
								wide++
							}
						}
					}
				}
			}
		}
		if listed != scheduled {
			t.Errorf("%s: listing names %d operations, schedule holds %d", spec, listed, scheduled)
		}
		for u := range units {
			if !strings.Contains(out, u.String()+":") {
				t.Errorf("%s: listing never names unit %s", spec, u)
			}
		}
		if !spec.IsDefault() && wide == 0 {
			t.Errorf("%s: schedule never uses a unit past MU1; the test no longer covers them", spec)
		}
	}
}
