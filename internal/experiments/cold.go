package experiments

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/spider"
)

func init() {
	register(Experiment{
		ID:    "E6c",
		Name:  "cold-construction",
		Paper: "§3/§7 cold-path construction: leg dedup + flat hull kernel, cold vs warm",
		Run:   runColdConstruction,
	})
}

// dupHeavySpider is the E6 duplicate-heavy regime: two distinct deep
// leg shapes repeated across the whole platform, interleaved — the
// realistic heterogeneous-fleet shape (a few hardware SKUs, many
// instances) where isomorphic-leg dedup collapses the construction to
// O(distinct) backward sequences.
func dupHeavySpider(legs int) platform.Spider {
	g := platform.MustGenerator(606, 1, 30, platform.Bimodal)
	shapes := [2]platform.Chain{g.Chain(3), g.Chain(3)}
	ls := make([]platform.Chain, legs)
	for i := range ls {
		ls[i] = shapes[i%2]
	}
	return platform.NewSpider(ls...)
}

// distinctSpider is the E6 all-distinct regime: every leg has a unique
// (c, w) first node, so dedup finds nothing to share and the measured
// win is the flat hull kernel alone.
func distinctSpider(legs int) platform.Spider {
	g := platform.MustGenerator(607, 1, 30, platform.Bimodal)
	ls := make([]platform.Chain, legs)
	for i := range ls {
		ch := g.Chain(1 + i%3)
		ch.Nodes[0].Comm = platform.Time(1 + i/30)
		ch.Nodes[0].Work = platform.Time(1 + i%30)
		ls[i] = ch
	}
	return platform.NewSpider(ls...)
}

// timeColdSolve measures one cold MinMakespan — plan construction
// included, which is the point — on a fresh solver, min-of-reps.
func timeColdSolve(sp platform.Spider, n int) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		s, err := spider.NewSolver(sp)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, _, err := s.MinMakespan(n); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start))
	}
	return best, nil
}

// runColdConstruction is the E6 cold-path experiment: cold min-makespan
// solves, plan construction included, on duplicate-heavy and
// all-distinct platforms, next to the warm search cost of the same
// solver as the yardstick the ROADMAP's cold-path goal is stated
// against. Hard asserts pin the claims: isomorphic-leg dedup finds
// exactly the distinct shapes, and the cold 1024-leg duplicate-heavy
// solve lands within 2x of its own warm probe loop's total search cost.
func runColdConstruction() (*Report, error) {
	tbl := Table{
		Title: "E6c: cold-path construction — cold solve vs warm search",
		Note: "cold min-makespan incl. plan construction (Bimodal 1..30, n=512) against\n" +
			"the same solver's warm binary-search deadline walk",
		Header: []string{"regime", "legs", "n", "distinct", "cold", "warm walk", "cold/warm"},
	}
	const n = 512
	for _, regime := range []struct {
		name  string
		build func(int) platform.Spider
	}{
		{"dup-heavy", dupHeavySpider},
		{"distinct", distinctSpider},
	} {
		for _, legs := range []int{256, 1024} {
			sp := regime.build(legs)
			s, err := spider.NewSolver(sp)
			if err != nil {
				return nil, err
			}
			distinct := s.DistinctLegPlans()
			want := legs
			if regime.name == "dup-heavy" {
				want = 2
			}
			if distinct != want {
				return nil, fmt.Errorf("E6c: %s legs=%d: solver owns %d plans, want %d", regime.name, legs, distinct, want)
			}
			cold, err := timeColdSolve(sp, n)
			if err != nil {
				return nil, err
			}
			// The warm yardstick: total cost of the same deadline walk on
			// an already-warm solver (plans grown, decision log recorded).
			warm, err := timeWarmWalk(s, n)
			if err != nil {
				return nil, err
			}
			ratio := float64(cold) / float64(warm)
			if regime.name == "dup-heavy" && legs == 1024 && ratio > 2 {
				return nil, fmt.Errorf("E6c: dup-heavy legs=1024: cold solve %v exceeds 2x the warm walk %v", cold, warm)
			}
			tbl.AddRow(regime.name, legs, n, distinct,
				cold.Round(time.Microsecond), warm.Round(time.Microsecond), fmt.Sprintf("%.2fx", ratio))
		}
	}
	return &Report{Tables: []Table{tbl}}, nil
}

// timeWarmWalk warms the fresh solver with one min-makespan solve and
// measures the total cost of a binary-search deadline walk bracketing
// the optimum — the whole warm search, not per probe: the quantity the
// ROADMAP's "cold within 2x of warm" goal compares the cold solve
// against.
func timeWarmWalk(s *spider.Solver, n int) (time.Duration, error) {
	opt, _, err := s.MinMakespan(n)
	if err != nil {
		return 0, err
	}
	walk := probeWalk(opt)
	return minTime(3, func() error {
		for _, d := range walk {
			if _, err := s.MaxTasks(n, d); err != nil {
				return err
			}
		}
		return nil
	})
}
