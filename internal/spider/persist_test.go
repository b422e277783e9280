package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// TestPersistentMatchesFromScratchProbing runs the same query mix —
// full min-makespan searches, deadline sweeps, task-count changes —
// through one warm probe-persistent solver and through the reference
// path, which rebuilds and repacks everything from scratch at every
// probe: makespans and schedules must be identical, the persistence
// only changes how much of the previous probe's work each probe reuses.
func TestPersistentMatchesFromScratchProbing(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	g := platform.MustGenerator(654, 1, 9, platform.Bimodal)
	for trial := 0; trial < trials; trial++ {
		sp := g.Spider(1+trial%6, 1+trial%4)
		n := 1 + trial%19
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			persist, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			mkP, schP, err := persist.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			mkR, schR, err := ReferenceMinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if mkP != mkR {
				t.Fatalf("persistent makespan %d, reference %d", mkP, mkR)
			}
			if !schP.Equal(schR) {
				t.Fatalf("schedules diverge:\npersistent: %vreference: %v", schP, schR)
			}
			// Warm solver, interleaved deadline sweep and budget
			// changes: every rewind pattern — repeats, shrinks, grows,
			// resets — must stay schedule-identical.
			for _, m := range []int{n, max(1, n/2), n + 3, n} {
				for deadline := platform.Time(0); deadline <= mkP+5; deadline += max(1, mkP/5) {
					sameDeadlineAnswers(t, persist, sp, m, deadline)
				}
			}
		})
	}
}

// TestPersistentMatchesFromScratchWide is the same identity on a wide
// platform — the regime where probe persistence exists to win and
// where a rewind bug would be invisible to small randomized trials.
func TestPersistentMatchesFromScratchWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-platform equivalence skipped in -short mode")
	}
	g := platform.MustGenerator(88, 1, 30, platform.Bimodal)
	sp := g.Spider(256, 3)
	n := 384

	persist, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	mkP, schP, err := persist.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	mkR, schR, err := ReferenceMinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	if mkP != mkR {
		t.Fatalf("persistent makespan %d, reference %d", mkP, mkR)
	}
	if !schP.Equal(schR) {
		t.Fatal("wide-platform schedules diverge")
	}
	if err := schP.Verify(); err != nil {
		t.Fatalf("wide-platform schedule infeasible: %v", err)
	}
	st := persist.Stats()
	if st.PackProbes == 0 || st.Reoffered == 0 {
		t.Fatalf("persistent path did not run: %+v", st)
	}
}

// TestTwoSidedSeedingReducesProbes pins the seeding's probe savings on
// the regime it targets: wide platforms, where the optimum sits a small
// port-contention gap above the steady-state bound while the
// master-only upper bound (one leg doing everything) is half a platform
// away — so galloping to a feasible upper seed replaces most of the
// binary descent. The bars are the counts of the search without the
// seeding (steady-state lower bound, master-only upper bound), measured
// on these exact instances before that search was retired:
//
//   - unseededProbes: its feasibility probes;
//   - unseededPacks: its packing probes when every probe packs from
//     scratch. A seeded probe either packs or is answered from the
//     decision log, so PackProbes+RewindHits is the comparable count.
//
// The seeded search must run strictly fewer of both.
func TestTwoSidedSeedingReducesProbes(t *testing.T) {
	for _, tc := range []struct {
		seed                          int64
		lo, hi                        platform.Time
		legs, depth                   int
		n                             int
		unseededProbes, unseededPacks int
	}{
		{99, 1, 9, 16, 2, 128, 6, 7},
		{2025, 1, 30, 256, 3, 512, 9, 10},
	} {
		g := platform.MustGenerator(tc.seed, tc.lo, tc.hi, platform.Bimodal)
		sp := g.Spider(tc.legs, tc.depth)

		seeded, err := NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := seeded.MinMakespan(tc.n); err != nil {
			t.Fatal(err)
		}
		st := seeded.Stats()
		if st.Probes >= tc.unseededProbes {
			t.Errorf("legs=%d n=%d: seeded search ran %d probes, unseeded %d — want a strict drop",
				tc.legs, tc.n, st.Probes, tc.unseededProbes)
		}
		if packs := st.PackProbes + st.RewindHits; packs >= tc.unseededPacks {
			t.Errorf("legs=%d n=%d: seeded search ran %d packing probes (incl. rewind hits), unseeded from-scratch %d — want a strict drop",
				tc.legs, tc.n, packs, tc.unseededPacks)
		}
	}
}

// TestTwoSidedSeedingSoundRandomized: across regimes and sizes the
// seeded search must agree exactly with the reference search, which
// bisects the whole [1, master-only] interval — the bounds are proven,
// so seeding may only skip probes, never move the optimum.
func TestTwoSidedSeedingSoundRandomized(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal} {
		g := platform.MustGenerator(500+int64(regime), 1, 9, regime)
		for trial := 0; trial < trials; trial++ {
			sp := g.Spider(1+trial%5, 1+trial%4)
			n := 1 + trial%23
			seeded, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			mkA, schA, err := seeded.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			mkB, schB, err := ReferenceMinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if mkA != mkB || !schA.Equal(schB) {
				t.Fatalf("%v n=%d: seeded %d, reference %d", sp, n, mkA, mkB)
			}
		}
	}
}
