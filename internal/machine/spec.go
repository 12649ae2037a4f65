package machine

import "fmt"

// This file generalizes the fixed two-bank, one-port-per-bank machine
// of Figure 2 into a parameterized family: N data banks, each with P
// ports, each port carried by its own memory unit. The zero-value
// BankSpec is the paper's machine (2 banks x 1 port, MU0<->X, MU1<->Y).
// Allocation and scheduling run one code path for every spec, the
// paper's machine included, which is its N = 2, P = 1 case.

// Capacity limits for the generalized machine. The ISA encoding keeps
// the nine classic units at their historical numbers (PCU=0 .. FPU1=8)
// and appends extra memory units after FPU1, so the unit number space
// grows but never renumbers.
const (
	// MaxBanks bounds BankSpec.Banks.
	MaxBanks = 8
	// MaxMemUnits bounds Banks*PortsPerBank: each bank port is carried
	// by a dedicated memory unit.
	MaxMemUnits = 8
	// MaxUnits is the widest possible long instruction: the nine
	// classic units with MU0/MU1 replaced by up to MaxMemUnits memory
	// units (the 7 non-memory units plus MaxMemUnits memory units).
	MaxUnits = NumUnits - 2 + MaxMemUnits
)

// MemUnit returns the unit carrying memory port ordinal j. Ordinals 0
// and 1 are the classic MU0 and MU1; higher ordinals map to the units
// appended after FPU1 (MU2 = Unit 9, MU3 = Unit 10, ...).
func MemUnit(j int) Unit {
	switch j {
	case 0:
		return MU0
	case 1:
		return MU1
	}
	return Unit(NumUnits + j - 2)
}

// MemOrdinal is the inverse of MemUnit: the memory-port ordinal of a
// memory unit, or -1 for non-memory units.
func MemOrdinal(u Unit) int {
	switch {
	case u == MU0:
		return 0
	case u == MU1:
		return 1
	case u >= NumUnits && u < MaxUnits:
		return int(u) - NumUnits + 2
	}
	return -1
}

// BankAt returns the Bank value naming data bank index i. Indexes 0
// and 1 are the classic BankX and BankY; higher indexes map past
// BankBoth (bank 2 = Bank(4), bank 3 = Bank(5), ...), so every
// historical Bank constant keeps its value and BankBoth stays the
// "duplicated in all banks" sentinel.
func BankAt(i int) Bank {
	switch i {
	case 0:
		return BankX
	case 1:
		return BankY
	}
	return Bank(i + 2)
}

// Index is the inverse of BankAt: the data-bank index of a single-bank
// tag, or -1 for BankNone and BankBoth.
func (b Bank) Index() int {
	switch {
	case b == BankX:
		return 0
	case b == BankY:
		return 1
	case b >= 4:
		return int(b) - 2
	}
	return -1
}

// IsSingle reports whether b names exactly one data bank.
func (b Bank) IsSingle() bool { return b == BankX || b == BankY || b >= 4 }

// BankSpec parameterizes the data-memory system: how many banks, how
// many ports each bank exposes, and which memory unit reaches which
// bank. The zero value is the paper's machine: two single-ported banks
// with MU0 wired to X and MU1 to Y.
type BankSpec struct {
	// Banks is the number of data banks (0 means the default 2).
	Banks int
	// PortsPerBank is the number of simultaneous accesses each bank
	// sustains per cycle (0 means the default 1). Each port is carried
	// by a dedicated memory unit, so the machine issues up to
	// Banks*PortsPerBank memory operations per long instruction.
	PortsPerBank int
	// UnitBinding, when non-nil, maps memory-port ordinal j to the
	// bank index it reaches. Nil means the dedicated default binding
	// j % Banks, which preserves MU0->bank 0 and MU1->bank 1 and deals
	// extra ports round-robin.
	UnitBinding []int8
}

// Norm returns the spec with defaults filled in: zero Banks and
// PortsPerBank become 2 and 1.
func (s BankSpec) Norm() BankSpec {
	if s.Banks == 0 {
		s.Banks = 2
	}
	if s.PortsPerBank == 0 {
		s.PortsPerBank = 1
	}
	return s
}

// IsDefault reports whether the spec (after normalization) is the
// paper's 2-bank, 1-port machine with the dedicated binding.
// Allocation and scheduling take the same path on every spec; this
// only keeps the paper-only port models (Ideal, LowOrder) on that
// machine, and its cache keys, report fields and hardware annotations
// free of a geometry term.
func (s BankSpec) IsDefault() bool {
	s = s.Norm()
	if s.Banks != 2 || s.PortsPerBank != 1 {
		return false
	}
	for j, b := range s.UnitBinding {
		if int(b) != j%2 {
			return false
		}
	}
	return true
}

// Validate checks the spec against the machine's capacity limits.
func (s BankSpec) Validate() error {
	s = s.Norm()
	if s.Banks < 2 || s.Banks > MaxBanks {
		return fmt.Errorf("machine: %d banks out of range [2,%d]", s.Banks, MaxBanks)
	}
	if s.PortsPerBank < 1 {
		return fmt.Errorf("machine: %d ports per bank out of range", s.PortsPerBank)
	}
	if n := s.Banks * s.PortsPerBank; n > MaxMemUnits {
		return fmt.Errorf("machine: %d banks x %d ports needs %d memory units (max %d)",
			s.Banks, s.PortsPerBank, n, MaxMemUnits)
	}
	if s.UnitBinding != nil {
		if len(s.UnitBinding) != s.Banks*s.PortsPerBank {
			return fmt.Errorf("machine: unit binding has %d entries, want %d",
				len(s.UnitBinding), s.Banks*s.PortsPerBank)
		}
		var per [MaxBanks]int
		for j, b := range s.UnitBinding {
			if b < 0 || int(b) >= s.Banks {
				return fmt.Errorf("machine: unit binding[%d] = %d out of range", j, b)
			}
			per[b]++
		}
		for b := 0; b < s.Banks; b++ {
			if per[b] != s.PortsPerBank {
				return fmt.Errorf("machine: bank %d bound to %d units, want %d ports",
					b, per[b], s.PortsPerBank)
			}
		}
	}
	return nil
}

// NumMemUnits is the number of memory units the spec instantiates.
func (s BankSpec) NumMemUnits() int {
	s = s.Norm()
	return s.Banks * s.PortsPerBank
}

// NumUnits is the total number of functional units under the spec: the
// seven non-memory units plus the spec's memory units. The default
// spec yields the classic 9.
func (s BankSpec) NumUnits() int { return NumUnits - 2 + s.NumMemUnits() }

// BankOfMemUnit returns the bank index memory-port ordinal j reaches.
func (s BankSpec) BankOfMemUnit(j int) int {
	s = s.Norm()
	if s.UnitBinding != nil {
		return int(s.UnitBinding[j])
	}
	return j % s.Banks
}

// BankOfUnit reports which bank unit u accesses under the spec's banked
// port model, or BankNone for non-memory units and for memory units
// the spec does not instantiate.
func (s BankSpec) BankOfUnit(u Unit) Bank {
	j := MemOrdinal(u)
	if j < 0 || j >= s.NumMemUnits() {
		return BankNone
	}
	return BankAt(s.BankOfMemUnit(j))
}

// HardwareCost is the relative silicon cost of the spec's memory
// system, the third axis of the architecture-exploration frontier. The
// model charges 2 units per bank (array periphery: decoders, sense
// amps) and 3 per bank port (the port itself plus its memory unit and
// result bus) — so the default machine costs 10, a third bank raises
// it to 15, and dual-porting both default banks to 16. The constants
// are a documented fiction; only the ordering matters, and any convex
// per-bank/per-port charge orders the same way.
func (s BankSpec) HardwareCost() int {
	s = s.Norm()
	return 2*s.Banks + 3*s.Banks*s.PortsPerBank
}

// String renders the spec as "BanksxPorts", e.g. "2x1".
func (s BankSpec) String() string {
	s = s.Norm()
	return fmt.Sprintf("%dx%d", s.Banks, s.PortsPerBank)
}
