package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// dupSpider builds a spider of `copies` repetitions of each given leg,
// interleaved so identical legs are not adjacent — the dedup map, not
// leg order, must find them.
func dupSpider(copies int, legs ...platform.Chain) platform.Spider {
	var all []platform.Chain
	for i := 0; i < copies; i++ {
		for _, leg := range legs {
			all = append(all, leg)
		}
	}
	return platform.NewSpider(all...)
}

// TestLegDedupScheduleIdentical is the dedup half of the reference
// equivalence: across random spiders (including fork-shaped depth-1
// ones) the dedup'd solver must produce schedules identical — not
// merely equal makespans — to the reference path, which builds one
// independent plan per leg, under full min-makespan solves and warm
// deadline/budget sweeps.
func TestLegDedupScheduleIdentical(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.Bimodal} {
		g := platform.MustGenerator(9000+int64(regime), 1, 6, regime)
		for trial := 0; trial < trials; trial++ {
			// Narrow draw ranges at shallow depth make duplicate legs
			// common; depth 1 exercises the fork shape.
			sp := g.Spider(1+trial%8, 1+trial%3)
			n := 1 + trial%17
			t.Run(fmt.Sprintf("regime=%v/trial=%d", regime, trial), func(t *testing.T) {
				dedup, err := NewSolver(sp)
				if err != nil {
					t.Fatal(err)
				}
				if got := dedup.DistinctLegPlans(); got > sp.NumLegs() {
					t.Fatalf("dedup owns %d plans on %d legs", got, sp.NumLegs())
				}

				mkA, schA, err := dedup.MinMakespan(n)
				if err != nil {
					t.Fatal(err)
				}
				mkB, schB, err := ReferenceMinMakespan(sp, n)
				if err != nil {
					t.Fatal(err)
				}
				if mkA != mkB {
					t.Fatalf("dedup makespan %d, reference %d", mkA, mkB)
				}
				if !schA.Equal(schB) {
					t.Fatalf("schedules diverge:\ndedup: %vreference: %v", schA, schB)
				}
				// Warm sweeps over both probe coordinates.
				for _, m := range []int{n, max(1, n/2), n + 2} {
					for deadline := platform.Time(0); deadline <= mkA+4; deadline += max(1, mkA/4) {
						sameDeadlineAnswers(t, dedup, sp, m, deadline)
					}
				}
			})
		}
	}
}

// TestLegDedupDuplicateRegimes pins the regimes the dedup exists for:
// every leg identical, and 2 distinct shapes × 512 copies. The solver
// must own exactly as many plans as there are distinct shapes, and its
// optimum must be the reference's: at the solver's makespan the
// reference schedules all n tasks into the identical schedule, one
// unit earlier it cannot fit n. (Together these pin the reference
// search's answer without running its full binary search, which takes
// seconds at this width.)
func TestLegDedupDuplicateRegimes(t *testing.T) {
	legA := platform.NewChain(2, 5, 3, 3)
	legB := platform.NewChain(1, 4, 2, 2, 1, 6)
	copies := 512
	if testing.Short() {
		copies = 48
	}
	for _, tc := range []struct {
		name     string
		sp       platform.Spider
		distinct int
		n        int
	}{
		{"all-identical", dupSpider(copies, legA), 1, 3 * copies / 2},
		{"two-shapes", dupSpider(copies, legA, legB), 2, 2 * copies},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dedup, err := NewSolver(tc.sp)
			if err != nil {
				t.Fatal(err)
			}
			if got := dedup.DistinctLegPlans(); got != tc.distinct {
				t.Fatalf("solver owns %d plans, want %d", got, tc.distinct)
			}
			mk, sch, err := dedup.MinMakespan(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ReferenceScheduleWithin(tc.sp, tc.n, mk)
			if err != nil {
				t.Fatal(err)
			}
			if !sch.Equal(ref) {
				t.Fatalf("duplicate-leg schedules diverge at makespan %d", mk)
			}
			below, err := ReferenceMaxTasks(tc.sp, tc.n, mk-1)
			if err != nil {
				t.Fatal(err)
			}
			if below >= tc.n {
				t.Fatalf("reference fits %d tasks by %d, below the solver's optimum %d", below, mk-1, mk)
			}
			if err := sch.Verify(); err != nil {
				t.Fatalf("duplicate-leg schedule infeasible: %v", err)
			}
		})
	}
}

// TestWarmCrossNSweep is the cross-n persistence identity: one warm
// solver answering MinMakespan over a sweep of task counts must agree
// with a cold solver per count, and its decision log must actually
// survive the budget changes — at least one later solve's probe is
// answered entirely from the recorded run (a RewindHit after the first
// solve completed, impossible when budget changes reset the log).
func TestWarmCrossNSweep(t *testing.T) {
	g := platform.MustGenerator(321, 1, 9, platform.Bimodal)
	sp := g.Spider(24, 3)
	base := 96

	warm, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.MinMakespan(base); err != nil {
		t.Fatal(err)
	}
	afterFirst := warm.Stats()

	for _, delta := range []int{1, -1, 5, -7, 2, 0, -3} {
		n := base + delta
		mkW, schW, err := warm.MinMakespan(n)
		if err != nil {
			t.Fatalf("n=%d: warm solve: %v", n, err)
		}
		cold, err := NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		mkC, schC, err := cold.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mkW != mkC {
			t.Fatalf("n=%d: warm makespan %d, cold %d", n, mkW, mkC)
		}
		if !schW.Equal(schC) {
			t.Fatalf("n=%d: warm and cold schedules diverge", n)
		}
	}
	st := warm.Stats()
	if st.RewindHits <= afterFirst.RewindHits {
		t.Errorf("no probe after the first solve was answered from the recorded run: %+v then %+v", afterFirst, st)
	}
}

// TestWarmCrossNBudgetTrim pins the cheap direction explicitly: a warm
// solver re-asked at the same deadline with a smaller budget must
// answer without any packing work — the recorded run is re-cut at the
// new n by the rewind scan alone.
func TestWarmCrossNBudgetTrim(t *testing.T) {
	g := platform.MustGenerator(55, 1, 9, platform.Bimodal)
	sp := g.Spider(10, 3)
	n := 60

	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	mk, _, err := s.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MaxTasks(n, mk)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("MaxTasks(%d, optimum) = %d", n, got)
	}
	before := s.Stats()
	// Shrinking the budget at the optimum cannot shrink any leg run the
	// recorded admissions live in front of: the scan stops at the n−5th
	// admission and the probe is done.
	trimmed, err := s.MaxTasks(n-5, mk)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != n-5 {
		t.Fatalf("MaxTasks(%d, optimum) = %d", n-5, trimmed)
	}
	after := s.Stats()
	if after.PackProbes != before.PackProbes {
		t.Errorf("budget trim ran %d packing probes, want 0", after.PackProbes-before.PackProbes)
	}
	if after.RewindHits != before.RewindHits+1 {
		t.Errorf("budget trim was not a rewind hit: %+v then %+v", before, after)
	}
}
