package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// TestStreamingMatchesSlicePacking runs the same queries through the
// solver — its merge streamed into the probe-persistent tree packer —
// and through the reference path, which materialises every leg plan
// and packs the sorted multiset with the slice-based fork.PackSorted:
// makespans and schedules must be identical. The streaming feed changes
// how the admission-order multiset reaches the packer, never what is
// admitted.
func TestStreamingMatchesSlicePacking(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	g := platform.MustGenerator(321, 1, 9, platform.Bimodal)
	for trial := 0; trial < trials; trial++ {
		sp := g.Spider(1+trial%6, 1+trial%4)
		n := 1 + trial%19
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			stream, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			mkS, schS, err := stream.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			mkR, schR, err := ReferenceMinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if mkS != mkR {
				t.Fatalf("streaming makespan %d, reference %d", mkS, mkR)
			}
			if !schS.Equal(schR) {
				t.Fatalf("schedules diverge:\nstreaming: %vreference: %v", schS, schR)
			}
			for deadline := platform.Time(0); deadline <= mkS+5; deadline += max(1, mkS/7) {
				sameDeadlineAnswers(t, stream, sp, n, deadline)
			}
		})
	}
}

// sameDeadlineAnswers requires the solver's MaxTasks and ScheduleWithin
// at (n, deadline) to equal the reference path's.
func sameDeadlineAnswers(t *testing.T, s *Solver, sp platform.Spider, n int, deadline platform.Time) {
	t.Helper()
	a, err := s.MaxTasks(n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReferenceMaxTasks(sp, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("n=%d deadline=%d: solver admits %d, reference %d", n, deadline, a, b)
	}
	sa, err := s.ScheduleWithin(n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ReferenceScheduleWithin(sp, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Equal(sb) {
		t.Fatalf("n=%d deadline=%d: deadline-limited schedules diverge", n, deadline)
	}
}

// TestStreamingMatchesSlicePackingWide is the same identity on a wide
// platform (hundreds of legs) — the regime where the streaming tree
// packer exists to win, and where a divergence would be invisible to
// the small randomized trials.
func TestStreamingMatchesSlicePackingWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-platform equivalence skipped in -short mode")
	}
	g := platform.MustGenerator(77, 1, 9, platform.Uniform)
	sp := g.Spider(256, 2)
	n := 192

	stream, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	mkS, schS, err := stream.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	mkR, schR, err := ReferenceMinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	if mkS != mkR {
		t.Fatalf("streaming makespan %d, reference %d", mkS, mkR)
	}
	if !schS.Equal(schR) {
		t.Fatal("wide-platform schedules diverge")
	}
	if err := schS.Verify(); err != nil {
		t.Fatalf("wide-platform schedule infeasible: %v", err)
	}
}
