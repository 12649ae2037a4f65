package machine

import "testing"

func TestBankOther(t *testing.T) {
	if BankX.Other() != BankY || BankY.Other() != BankX {
		t.Fatal("Other() does not swap banks")
	}
}

func TestBankOtherPanics(t *testing.T) {
	for _, b := range []Bank{BankNone, BankBoth} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Other(%v) did not panic", b)
				}
			}()
			b.Other()
		}()
	}
}

func TestBankStrings(t *testing.T) {
	cases := map[Bank]string{
		BankNone: "-", BankX: "X", BankY: "Y", BankBoth: "XY",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", b, got, want)
		}
	}
}

func TestUnitNames(t *testing.T) {
	want := []string{"PCU", "MU0", "MU1", "AU0", "AU1", "DU0", "DU1", "FPU0", "FPU1"}
	for i, w := range want {
		if got := Unit(i).String(); got != w {
			t.Errorf("Unit(%d) = %q, want %q", i, got, w)
		}
	}
	if NumUnits != len(want) {
		t.Errorf("NumUnits = %d, want %d", NumUnits, len(want))
	}
}

func TestUnitsOfClasses(t *testing.T) {
	// Figure 2: one PCU, two memory units, four scalar integer units
	// (AU0/AU1/DU0/DU1), two floating-point units.
	if got := UnitsOf(ClassControl); len(got) != 1 || got[0] != PCU {
		t.Errorf("control units = %v", got)
	}
	if got := UnitsOf(ClassMemory); len(got) != 2 || got[0] != MU0 || got[1] != MU1 {
		t.Errorf("memory units = %v", got)
	}
	if got := UnitsOf(ClassInteger); len(got) != 4 {
		t.Errorf("integer units = %v", got)
	}
	if got := UnitsOf(ClassFloat); len(got) != 2 {
		t.Errorf("float units = %v", got)
	}
}

func TestPortModelBinding(t *testing.T) {
	// Banked: MU0 reaches only X, MU1 only Y.
	var paper BankSpec
	if !PortsBanked.BindsUnits() {
		t.Error("banked model does not bind memory units to banks")
	}
	if paper.BankOfUnit(MU0) != BankX || paper.BankOfUnit(MU1) != BankY {
		t.Errorf("banked units reach %v and %v", paper.BankOfUnit(MU0), paper.BankOfUnit(MU1))
	}
	// Dual-ported and low-order: any unit reaches any bank.
	for _, p := range []PortModel{PortsDualPorted, PortsLowOrder} {
		if p.BindsUnits() {
			t.Errorf("%v model binds memory units to banks", p)
		}
	}
}

func TestBankOfUnit(t *testing.T) {
	var paper BankSpec
	if paper.BankOfUnit(MU0) != BankX || paper.BankOfUnit(MU1) != BankY {
		t.Fatal("memory unit bank binding wrong")
	}
	if paper.BankOfUnit(DU0) != BankNone {
		t.Fatal("non-memory unit should have no bank")
	}
	// A unit the spec does not instantiate reaches no bank.
	if paper.BankOfUnit(MemUnit(paper.NumMemUnits())) != BankNone {
		t.Fatal("uninstantiated memory unit should have no bank")
	}
}
