package core

// Unit tests for the canonical greedy tie-break: the first-reference
// ranking rankByFirstUse assigns, the total-tie diversity rule in
// the greedy walk, and the FM phase-1 replay of both. The pipeline-level
// metamorphic suite proves the end-to-end invariance; these tests pin
// the mechanism at the graph layer, where a regression is cheapest to
// diagnose.

import (
	"strings"
	"testing"

	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/regalloc"
)

// biquadDecls and biquadBody spell a single-section IIR biquad — the
// smallest real kernel whose interference graph is a uniform complete
// graph, where every greedy move is a total tie and only the canonical
// rules decide the walk.
var biquadDecls = []string{
	"float x[1] = {0.5};",
	"float b0[1] = {0.2};",
	"float b1[1] = {0.1};",
	"float b2[1] = {0.05};",
	"float a1[1] = {-0.3};",
	"float a2[1] = {0.1};",
	"float y[1];",
}

const biquadBody = `
void main() {
	int n;
	float d0 = 0.0;
	float d1 = 0.0;
	for (n = 0; n < 1; n++) {
		float w = x[n] - a1[0] * d0 - a2[0] * d1;
		float out = b0[0] * w + b1[0] * d0 + b2[0] * d1;
		d1 = d0;
		d0 = w;
		y[n] = out;
	}
}
`

func lowerSource(t *testing.T, src, name string) *ir.Program {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if err := minic.Analyze(f); err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	p, err := lower.Program(f, name)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	opt.Run(p, opt.Options{})
	if _, err := regalloc.Run(p); err != nil {
		t.Fatalf("%s: regalloc: %v", name, err)
	}
	return p
}

func biquadSource(decls []string) string {
	return strings.Join(decls, "\n") + "\n" + biquadBody
}

func nodePref(t *testing.T, g *Graph, name string) int32 {
	t.Helper()
	for i, s := range g.Nodes {
		if s.Name == name {
			return g.tiePref[i]
		}
	}
	t.Fatalf("no node %q in graph", name)
	return 0
}

func nameSet(ss []*ir.Symbol) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s.Name] = true
	}
	return m
}

// TestCanonicalRankFirstUse pins the rank source: symbols referenced
// earlier in the body rank higher, regardless of where they were
// declared.
func TestCanonicalRankFirstUse(t *testing.T) {
	p := lowerSource(t, biquadSource(biquadDecls), "biquad")
	g := BuildGraph(p, WeightStatic)
	if g.tiePref == nil {
		t.Fatal("scanner-built graph has no tiePref ranking")
	}
	// Body reference order: x, a1, a2, b0, b1, b2 — not declaration
	// order (which puts the b coefficients before the a ones).
	order := []string{"x", "a1", "a2", "b0", "b1", "b2"}
	for i := 1; i < len(order); i++ {
		hi, lo := order[i-1], order[i]
		if nodePref(t, g, hi) <= nodePref(t, g, lo) {
			t.Errorf("pref(%s)=%d not above pref(%s)=%d; want first-use order",
				hi, nodePref(t, g, hi), lo, nodePref(t, g, lo))
		}
	}
}

// TestPartitionTotalTieDiversity pins the diversity rule: on the
// biquad's uniform complete graph every move is a total tie, and the
// walk must not migrate the operands of one expression wholesale —
// that partition has the same cut cost but schedules strictly worse.
func TestPartitionTotalTieDiversity(t *testing.T) {
	p := lowerSource(t, biquadSource(biquadDecls), "biquad")
	g := BuildGraph(p, WeightStatic)
	part := g.PartitionK(2, MethodGreedy, -1)

	inY := nameSet(part.Sets[1])
	first := 0 // operands of the first expression: x, a1, a2
	for _, n := range []string{"x", "a1", "a2"} {
		if inY[n] {
			first++
		}
	}
	second := 0 // operands of the second: b0, b1, b2
	for _, n := range []string{"b0", "b1", "b2"} {
		if inY[n] {
			second++
		}
	}
	if first+second != len(part.Sets[1]) {
		t.Fatalf("unexpected migrated set %v", part.Sets[1])
	}
	if first == 0 || second == 0 {
		t.Errorf("migrated set Y=%s clusters one expression's operands; want a mix",
			names(part.Sets[1]))
	}
}

// TestPartitionDeclOrderInvariant rebuilds the biquad with its global
// declarations reversed and demands the identical partition — the
// property the pipeline metamorphic suite checks end to end.
func TestPartitionDeclOrderInvariant(t *testing.T) {
	base := lowerSource(t, biquadSource(biquadDecls), "biquad")
	reversed := make([]string, len(biquadDecls))
	for i, d := range biquadDecls {
		reversed[len(biquadDecls)-1-i] = d
	}
	perm := lowerSource(t, biquadSource(reversed), "biquad_rev")

	pb := BuildGraph(base, WeightStatic).PartitionK(2, MethodGreedy, -1)
	pp := BuildGraph(perm, WeightStatic).PartitionK(2, MethodGreedy, -1)
	if pb.Cost != pp.Cost {
		t.Fatalf("cost changed under declaration permutation: %d vs %d", pb.Cost, pp.Cost)
	}
	bx, by := nameSet(pb.Sets[0]), nameSet(pb.Sets[1])
	px, py := nameSet(pp.Sets[0]), nameSet(pp.Sets[1])
	if !sameSet(bx, px) || !sameSet(by, py) {
		t.Errorf("partition changed under declaration permutation:\nbase %s\nperm %s",
			pb, pp)
	}
}

// TestParseMethodRoundTrip covers the method name round trip and the
// error path.
func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodGreedy, MethodKL, MethodAnneal, MethodFM, MethodExact} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMethod("quantum"); err == nil {
		t.Error("ParseMethod accepted an unknown method name")
	}
}

// TestGraphDiagnostics smoke-tests the rendering helpers over a real
// scanner-built graph.
func TestGraphDiagnostics(t *testing.T) {
	p := lowerSource(t, biquadSource(biquadDecls), "biquad")
	g := BuildGraph(p, WeightStatic)
	part := g.PartitionK(2, MethodGreedy, -1)
	if s := g.String(); !strings.Contains(s, "w=") {
		t.Errorf("Graph.String rendered no edges:\n%s", s)
	}
	if d := g.Dot(part); !strings.Contains(d, "graph interference") {
		t.Errorf("Graph.Dot missing header:\n%s", d)
	}
	if s := part.String(); !strings.Contains(s, "cost:") {
		t.Errorf("KPartition.String missing cost:\n%s", s)
	}
	var a1, a2 *ir.Symbol
	for _, s := range g.Nodes {
		switch s.Name {
		case "a1":
			a1 = s
		case "a2":
			a2 = s
		}
	}
	if a1 == nil || a2 == nil {
		t.Fatal("biquad graph lost its coefficient nodes")
	}
	if g.PairCount(a1, a2) <= 0 {
		t.Error("no recorded pairing events between a1 and a2")
	}
	c := g.CSR()
	for i := range g.Nodes {
		if g.Nodes[i] == a1 && c.Degree(i) == 0 {
			t.Error("a1 has no incident edges in the CSR view")
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func names(ss []*ir.Symbol) string {
	var ns []string
	for _, s := range ss {
		ns = append(ns, s.Name)
	}
	return strings.Join(ns, ", ")
}
