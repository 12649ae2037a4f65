package pipeline

import (
	"context"
	"fmt"
	"sort"

	"dualbank/internal/alloc"
	"dualbank/internal/cost"
)

// This file implements the selective-duplication refinement the paper
// proposes in its summary (§5): "If the Performance/Cost Ratio is too
// low, a further refinement is to determine whether some of these
// arrays do not have to be duplicated because doing so would not
// significantly affect performance." §4.2 adds that the compiler can
// be more selective given the designer's performance and area budgets.
//
// The implementation evaluates duplication candidates greedily: each
// array the interference analysis marks is trialled by compiling and
// simulating the program with the candidate added to the duplication
// set, and it is kept only when it improves the Performance/Cost Ratio
// (and respects the designer's optional cost ceiling). The evaluation
// uses the instruction-set simulator as its performance oracle, which
// stands in for the profile-driven estimate the paper sketches.

// SelectiveOptions carries the designer-supplied constraints of §4.2.
type SelectiveOptions struct {
	// MaxCostIncrease, if positive, rejects any duplication set whose
	// cost ratio over the unoptimized program exceeds it (the
	// designer's area budget), even if the PCR would improve.
	MaxCostIncrease float64
	// MinGain is the minimum cycle-count improvement (relative, e.g.
	// 0.02 for 2%) a candidate must contribute over the current best
	// configuration to be kept. Zero keeps any strict improvement that
	// also improves PCR.
	MinGain float64
	// Opt configures the optimizer for every trial compile.
	Opt OptForward
}

// OptForward mirrors opt.Options without importing it at every call
// site; zero value means all optimizations on.
type OptForward struct {
	NoMACFusion      bool
	NoLoopShaping    bool
	NoStrengthReduce bool
}

// Trial records one candidate evaluation.
type Trial struct {
	Symbol string
	Kept   bool
	// Cycles/PG/CI/PCR of the configuration with this candidate added
	// to the duplication set as it stood when trialled.
	Cycles int64
	PG     float64
	CI     float64
	PCR    float64
	Reason string
}

// SelectiveResult is the outcome of selective duplication.
type SelectiveResult struct {
	// Compiled is the final program, with only the chosen arrays
	// duplicated.
	Compiled *Compiled
	// Candidates are the arrays the analysis marked; Chosen those kept.
	Candidates []string
	Chosen     []string
	Trials     []Trial
	// Base metrics: the plain CB configuration the trials improve on.
	BaseCycles int64
	BasePCR    float64
}

// CompileSelective compiles source with CB partitioning plus
// PCR-driven selective duplication. The front end runs once; every
// trial finishes its own copy of it.
func CompileSelective(source, name string, sel SelectiveOptions) (*SelectiveResult, error) {
	baseOpts := Options{Mode: alloc.CBDup, DupOnly: map[string]bool{}}
	baseOpts.Opt.NoMACFusion = sel.Opt.NoMACFusion
	baseOpts.Opt.NoLoopShaping = sel.Opt.NoLoopShaping
	baseOpts.Opt.NoStrengthReduce = sel.Opt.NoStrengthReduce
	ctx := context.TODO()
	prep, err := Prepare(ctx, source, name, baseOpts.Opt)
	if err != nil {
		return nil, err
	}
	cc := new(Compiler)

	// The unoptimized reference for PG/CI.
	refOpts := baseOpts
	refOpts.Mode = alloc.SingleBank
	refOpts.DupOnly = nil
	ref, err := cc.Finish(ctx, prep, refOpts)
	if err != nil {
		return nil, err
	}
	refMach, err := ref.Run()
	if err != nil {
		return nil, err
	}
	refMem := cost.Of(ref.Alloc, ref.Sched)

	evaluate := func(dup map[string]bool) (*Compiled, int64, cost.Metrics, error) {
		o := baseOpts
		o.DupOnly = dup
		c, err := cc.Finish(ctx, prep, o)
		if err != nil {
			return nil, 0, cost.Metrics{}, err
		}
		m, err := c.Run()
		if err != nil {
			return nil, 0, cost.Metrics{}, err
		}
		met := cost.Compare(refMach.Cycles, m.Cycles, refMem, cost.Of(c.Alloc, c.Sched))
		return c, m.Cycles, met, nil
	}

	// Plain CB (empty duplication set) is the starting configuration.
	best, bestCycles, bestMet, err := evaluate(map[string]bool{})
	if err != nil {
		return nil, err
	}
	res := &SelectiveResult{
		Compiled:   best,
		BaseCycles: bestCycles,
		BasePCR:    bestMet.PCR,
	}

	// Candidate discovery: what would full partial duplication mark?
	probe, err := cc.Finish(ctx, prep, Options{Mode: alloc.CBDup})
	if err != nil {
		return nil, err
	}
	var candidates []string
	for _, s := range probe.Alloc.Duplicated {
		candidates = append(candidates, s.Name)
	}
	sort.Strings(candidates)
	res.Candidates = candidates

	chosen := map[string]bool{}
	for _, cand := range candidates {
		trialSet := map[string]bool{}
		for k := range chosen {
			trialSet[k] = true
		}
		trialSet[cand] = true
		c, cycles, met, err := evaluate(trialSet)
		if err != nil {
			return nil, fmt.Errorf("selective trial %q: %w", cand, err)
		}
		tr := Trial{Symbol: cand, Cycles: cycles, PG: met.PG, CI: met.CI, PCR: met.PCR}
		gain := float64(bestCycles-cycles) / float64(bestCycles)
		switch {
		case sel.MaxCostIncrease > 0 && met.CI > sel.MaxCostIncrease:
			tr.Reason = fmt.Sprintf("cost ratio %.2f exceeds budget %.2f", met.CI, sel.MaxCostIncrease)
		case met.PCR <= bestMet.PCR:
			tr.Reason = fmt.Sprintf("PCR %.3f does not improve on %.3f", met.PCR, bestMet.PCR)
		case gain < sel.MinGain:
			tr.Reason = fmt.Sprintf("gain %.1f%% below threshold %.1f%%", gain*100, sel.MinGain*100)
		default:
			tr.Kept = true
			tr.Reason = fmt.Sprintf("PCR %.3f improves on %.3f", met.PCR, bestMet.PCR)
			chosen[cand] = true
			best, bestCycles, bestMet = c, cycles, met
		}
		res.Trials = append(res.Trials, tr)
	}

	res.Compiled = best
	for name := range chosen {
		res.Chosen = append(res.Chosen, name)
	}
	sort.Strings(res.Chosen)
	return res, nil
}
