package bench

import (
	"sort"

	"dualbank/internal/genmc"
)

// Generated-benchmark resolution: any canonical "gen_<archetype>_<seed>"
// name denotes a program the genmc generator can rebuild on demand, so
// ByName resolves the whole generated key space the same way it
// resolves the hand-written suite. A generated Program carries a Check
// built from the generator's evaluator, so harness runs over generated
// keys validate outputs exactly like suite runs do — and because the
// program is a pure function of its name, generated keys flow through
// the memo cache, the cluster routing ring, and the shared L2
// unchanged. Nothing keeps a built program: a name-only Program defers
// the build to the harness miss that needs it (see Program).

// generatedByName builds the program a canonical generated name
// denotes.
func generatedByName(name string) (Program, bool) {
	gp, ok := genmc.FromName(name)
	if !ok {
		return Program{}, false
	}
	return Program{
		Name:   gp.Name,
		Desc:   gp.Desc,
		Kind:   Kernel,
		Source: gp.Source,
		Check:  genCheck(gp.Out),
	}, true
}

// genCheck builds a Check comparing every global array against the
// generator's expected image, in deterministic name order.
func genCheck(out map[string][]int32) func(Reader) error {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	return func(r Reader) error {
		for _, name := range names {
			if err := checkI32s(r, name, out[name]); err != nil {
				return err
			}
		}
		return nil
	}
}
