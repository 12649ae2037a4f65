package bench

import (
	"fmt"
	"strings"
)

// Engine selects which simulation engine executes a measurement. Both
// produce identical cycle counts, bandwidth counters, and memory
// images — the differential suite pins them to each other — so the
// choice trades debuggability against throughput, never correctness.
// The zero value is EngineCompiled: the production default throughout
// the harness, the explorer, and the service.
type Engine int8

const (
	// EngineCompiled is the threaded-code engine: one lowering per
	// compile, specialized closures per operation, memory arenas sized
	// to the program. The fastest path and the default.
	EngineCompiled Engine = iota
	// EngineMachine is the interpretive reference engine with the
	// debugging hooks (tracing, per-instruction callbacks, port
	// assertions) — the oracle the compiled engine is pinned against.
	EngineMachine
)

// engineNames maps each engine to its -engine flag value, default
// first: the one list behind String, ParseEngine, and EngineNames.
var engineNames = [...]string{EngineCompiled: "compiled", EngineMachine: "machine"}

func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int8(e))
}

// EngineNames lists the valid -engine values, default first, for flag
// help and error messages.
func EngineNames() string { return strings.Join(engineNames[:], ", ") }

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	for e, name := range engineNames {
		if s == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want one of %s)", s, EngineNames())
}
