package spider

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// drainTree positions the tournament cursors at consumed/ks and drains
// every remaining candidate in merge order.
func drainTree(t *loserTree, consumed, ks []int) []platform.VirtualSlave {
	t.adjust(consumed, ks)
	var out []platform.VirtualSlave
	for {
		v, ok := t.next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// sortedCandidates is the merge oracle: every candidate of the
// per-leg ranges [consumed, ks), Rank = backward index j as the
// tournament emits them, sorted by platform.SortVirtualSlaves.
func sortedCandidates(s *Solver, consumed, ks []int) []platform.VirtualSlave {
	var want []platform.VirtualSlave
	for b, lp := range s.legs {
		for j := consumed[b]; j < ks[b]; j++ {
			want = append(want, platform.VirtualSlave{
				Comm: lp.c1, Proc: -lp.inc.Emission(j) - lp.c1, Leg: b, Rank: j,
			})
		}
	}
	platform.SortVirtualSlaves(want)
	return want
}

// sameEmission compares the tournament emission with the oracle's
// candidate for candidate.
func sameEmission(t *testing.T, label string, got, want []platform.VirtualSlave) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

// treeForSolver builds a fresh tournament over the solver's legs.
func treeForSolver(s *Solver) *loserTree { return newLoserTree(s.legs) }

// TestLoserTreeMatchesHeapMerge compares the tournament merge's
// emission order against the full candidate multiset sorted by
// platform.SortVirtualSlaves, on the adversarial cursor patterns: a
// single leg, exhausted legs (zero fit counts), equal legs whose
// candidates tie on (Comm, Proc) and must break by origin, and a
// 1024-leg platform.
func TestLoserTreeMatchesHeapMerge(t *testing.T) {
	cases := []struct {
		name string
		sp   platform.Spider
		n    int
	}{
		{"single-leg", platform.NewSpider(platform.NewChain(2, 3, 1, 4)), 9},
		{"two-legs", platform.MustGenerator(7, 1, 9, platform.Bimodal).Spider(2, 3), 17},
		{"identical-legs-ties", platform.NewSpider(
			platform.NewChain(3, 2), platform.NewChain(3, 2), platform.NewChain(3, 2), platform.NewChain(3, 2)), 12},
		{"wide-64", platform.MustGenerator(21, 1, 9, platform.Bimodal).Spider(64, 2), 96},
		{"wide-1024", platform.MustGenerator(22, 1, 30, platform.Bimodal).Spider(1024, 2), 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(tc.sp)
			if err != nil {
				t.Fatal(err)
			}
			hi := tc.sp.MasterOnlyMakespan(tc.n)
			for _, deadline := range []platform.Time{0, 1, hi / 7, hi / 3, hi} {
				s.prepare(tc.n, deadline)
				ks, total := s.legCounts(tc.n, deadline)
				zero := make([]int, len(ks))
				want := sortedCandidates(s, zero, ks)
				if len(want) != total {
					t.Fatalf("deadline %d: oracle holds %d of %d", deadline, len(want), total)
				}
				tree := drainTree(treeForSolver(s), zero, ks)
				sameEmission(t, fmt.Sprintf("deadline=%d", deadline), tree, want)
			}
		})
	}
}

// TestLoserTreePartialRewind exercises the persistent part: drain a
// prefix, reposition a random subset of cursors (the rewound-probe
// pattern: some legs resume earlier, some runs grow or shrink, some
// exhaust), and require the remaining emission to equal a from-scratch
// sorted merge of the repositioned ranges.
func TestLoserTreePartialRewind(t *testing.T) {
	g := platform.MustGenerator(33, 1, 9, platform.Bimodal)
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		sp := g.Spider(1+r.Intn(40), 1+r.Intn(3))
		s, err := NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + r.Intn(40)
		deadline := platform.Time(1 + r.Intn(200))
		s.prepare(n, deadline)
		ks, _ := s.legCounts(n, deadline)
		ksCopy := append([]int(nil), ks...)

		lt := treeForSolver(s)
		zero := make([]int, len(ksCopy))
		lt.adjust(zero, ksCopy)
		// Drain a random prefix to scatter the cursors mid-run.
		for i := r.Intn(24); i > 0; i-- {
			lt.next()
		}

		// Reposition: new consumed/k per leg, shrinking or keeping runs.
		consumed := make([]int, len(ksCopy))
		newKs := make([]int, len(ksCopy))
		for b := range ksCopy {
			newKs[b] = r.Intn(ksCopy[b] + 1)
			consumed[b] = r.Intn(newKs[b] + 1)
		}
		got := drainTree(lt, consumed, newKs)
		sameEmission(t, fmt.Sprintf("trial %d", trial), got, sortedCandidates(s, consumed, newKs))
	}
}
