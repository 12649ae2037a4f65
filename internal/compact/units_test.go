package compact

import (
	"slices"
	"testing"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// TestUnitsForPortBinding checks the memory-unit binding of the
// paper's machine: under the banked model MU0 reaches only X and MU1
// only Y, unassigned data lives in X, and duplicated data may use
// either unit, in the bank permutation's order; under the dual-ported
// and low-order models either unit reaches any bank.
func TestUnitsForPortBinding(t *testing.T) {
	units := func(cfg Config, b machine.Bank) []machine.Unit {
		var tab unitTable
		tab.build(cfg)
		return tab.unitsFor(&ir.Op{Kind: ir.OpLoad, Bank: b})
	}
	mu0, mu1 := []machine.Unit{machine.MU0}, []machine.Unit{machine.MU1}
	both, mirror := []machine.Unit{machine.MU0, machine.MU1}, []machine.Unit{machine.MU1, machine.MU0}
	banked := Config{Ports: machine.PortsBanked}
	for _, tc := range []struct {
		cfg  Config
		bank machine.Bank
		want []machine.Unit
	}{
		{banked, machine.BankX, mu0},
		{banked, machine.BankY, mu1},
		{banked, machine.BankNone, mu0},
		{banked, machine.BankBoth, both},
		{Config{Ports: machine.PortsBanked, BankPerm: []int{1, 0}}, machine.BankBoth, mirror},
		{Config{Ports: machine.PortsBanked, BankPerm: []int{1, 0}}, machine.BankX, mu0},
	} {
		if got := units(tc.cfg, tc.bank); !slices.Equal(got, tc.want) {
			t.Errorf("%v perm %v, bank %v: units %v, want %v", tc.cfg.Ports, tc.cfg.BankPerm, tc.bank, got, tc.want)
		}
	}
	for _, ports := range []machine.PortModel{machine.PortsDualPorted, machine.PortsLowOrder} {
		for _, b := range []machine.Bank{machine.BankNone, machine.BankX, machine.BankY, machine.BankBoth} {
			if got := units(Config{Ports: ports}, b); !slices.Equal(got, both) {
				t.Errorf("%v bank %v: units %v, want %v", ports, b, got, both)
			}
		}
	}
	var tab unitTable
	tab.build(banked)
	if got := tab.unitsFor(&ir.Op{Kind: ir.OpAdd}); !slices.Equal(got, machine.UnitsOf(machine.ClassInteger)) {
		t.Errorf("integer op units %v", got)
	}
}
