package fork

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// probeLeg is one origin's candidate run for the walk driver: constant
// Comm, ascending Proc, Rank = index — the shape spider legs produce.
// The run present at deadline d is the prefix with Comm+Proc ≤ d, which
// grows and shrinks monotonically with d exactly like a leg's fit count.
type probeLeg []platform.VirtualSlave

// makeProbeLegs draws random runs; Proc strictly ascends within a leg
// (as emissions strictly decrease in a real leg plan).
func makeProbeLegs(r *rand.Rand) []probeLeg {
	legs := make([]probeLeg, 1+r.Intn(5))
	for b := range legs {
		comm := platform.Time(1 + r.Intn(8))
		proc := platform.Time(1 + r.Intn(8))
		run := r.Intn(8)
		for k := 0; k < run; k++ {
			legs[b] = append(legs[b], platform.VirtualSlave{Comm: comm, Proc: proc, Leg: b, Rank: k})
			proc += platform.Time(1 + r.Intn(6))
		}
	}
	return legs
}

// legCount returns how many of the leg's candidates are present at the
// deadline.
func legCount(leg probeLeg, deadline platform.Time) int {
	k := 0
	for k < len(leg) && leg[k].Comm+leg[k].Proc <= deadline {
		k++
	}
	return k
}

// walkStep is one probe of a deadline walk.
type walkStep struct {
	n        int
	deadline platform.Time
}

// driveWalk replays the walk through the probe-persistent packer,
// asserting after every probe that it — and the from-scratch tree
// packer behind Pack — admits the identical set with identical emission
// starts as the oracles, the packFeasible spec greedy and the slice
// packer PackSorted, run on the full stream of that deadline.
func driveWalk(t *testing.T, legs []probeLeg, walk []walkStep) {
	t.Helper()
	pp := NewProbePacker()
	consumed := make([]int, len(legs))
	kprev := make([]int, len(legs))
	ks := make([]int, len(legs))
	valid := false
	for step, ws := range walk {
		if ws.deadline < 0 || ws.n < 0 {
			continue
		}
		var stream []platform.VirtualSlave
		for b, leg := range legs {
			ks[b] = legCount(leg, ws.deadline)
			stream = append(stream, leg[:ks[b]]...)
		}
		platform.SortVirtualSlaves(stream)

		// The earliest differing candidate vs the recorded stream: per
		// leg the first index where the prefixes diverge, minimised in
		// admission order across legs.
		var change *platform.VirtualSlave
		var cv platform.VirtualSlave
		if valid {
			for b := range legs {
				if ks[b] == kprev[b] {
					continue
				}
				v := legs[b][min(ks[b], kprev[b])]
				if change == nil || platform.CompareVirtualSlaves(v, cv) < 0 {
					cv, change = v, &cv
				}
			}
		}
		done, _, err := pp.Rewind(ws.n, ws.deadline, change, consumed)
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			// Resume the admission-order stream where the retained
			// prefix left off: skip, per leg, the candidates Rewind kept.
			skip := append([]int(nil), consumed...)
			for _, v := range stream {
				if pp.Full() {
					break
				}
				if skip[v.Leg] > 0 {
					skip[v.Leg]--
					continue
				}
				pp.Offer(v)
			}
		}
		copy(kprev, ks)
		valid = true

		label := fmt.Sprintf("step %d (n=%d deadline=%d done=%v)", step, ws.n, ws.deadline, done)
		spec := packSpec(stream, ws.n, ws.deadline)
		slice, err := PackSorted(stream, ws.n, ws.deadline)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := Pack(stream, ws.n, ws.deadline)
		if err != nil {
			t.Fatal(err)
		}
		allocsIdentical(t, label+": PackSorted vs spec", slice, spec)
		allocsIdentical(t, label+": Pack vs spec", tree, spec)
		allocsIdentical(t, label+": ProbePacker vs spec", pp.Allocation(), spec)
	}
}

// maxWalkDeadline bounds the useful deadline range for a leg set.
func maxWalkDeadline(legs []probeLeg) platform.Time {
	var total platform.Time
	for _, leg := range legs {
		for _, v := range leg {
			if v.Comm+v.Proc > total {
				total = v.Comm + v.Proc
			}
		}
	}
	return total + 10
}

// recordSearchWalk records the probe sequence of an actual deadline
// binary search (feasibility judged by the spec greedy), the workload
// the persistent packer exists for.
func recordSearchWalk(legs []probeLeg, n int) []walkStep {
	var walk []walkStep
	lo, hi := platform.Time(0), maxWalkDeadline(legs)
	for lo < hi {
		mid := lo + (hi-lo)/2
		var stream []platform.VirtualSlave
		for _, leg := range legs {
			stream = append(stream, leg[:legCount(leg, mid)]...)
		}
		platform.SortVirtualSlaves(stream)
		walk = append(walk, walkStep{n: n, deadline: mid})
		if packSpec(stream, n, mid).Len() >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	walk = append(walk, walkStep{n: n, deadline: lo})
	return walk
}

// TestProbePackerRecordedSearches replays real binary searches: at
// every probe the persistent packer must match the from-scratch ladder.
func TestProbePackerRecordedSearches(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < trials; trial++ {
		legs := makeProbeLegs(r)
		total := 0
		for _, leg := range legs {
			total += len(leg)
		}
		n := r.Intn(total + 2)
		driveWalk(t, legs, recordSearchWalk(legs, n))
	}
}

// TestProbePackerRandomWalks stresses arbitrary deadline movement —
// jumps up and down, exact repeats, zero deadlines — plus mid-walk
// budget changes, which must re-cut the recorded run at the new n.
func TestProbePackerRandomWalks(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < trials; trial++ {
		legs := makeProbeLegs(r)
		maxD := maxWalkDeadline(legs)
		total := 0
		for _, leg := range legs {
			total += len(leg)
		}
		n := r.Intn(total + 2)
		var walk []walkStep
		for step := 0; step < 12; step++ {
			d := platform.Time(r.Int63n(int64(maxD) + 1))
			switch r.Intn(6) {
			case 0: // exact repeat
				if len(walk) > 0 {
					d = walk[len(walk)-1].deadline
				}
			case 1: // budget change
				n = r.Intn(total + 2)
			}
			walk = append(walk, walkStep{n: n, deadline: d})
		}
		driveWalk(t, legs, walk)
	}
}

// TestProbePackerBudgetResize pins the cross-n persistence contract
// directly: at a fixed deadline and unchanged stream, shrinking the
// budget must be answered from the scan alone (done, with the treap cut
// to the new n), and growing it back must extend the retained run
// rather than reset it (retained > 0).
func TestProbePackerBudgetResize(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		legs := makeProbeLegs(r)
		d := maxWalkDeadline(legs)
		var stream []platform.VirtualSlave
		ks := make([]int, len(legs))
		for b, leg := range legs {
			ks[b] = legCount(leg, d)
			stream = append(stream, leg[:ks[b]]...)
		}
		if len(stream) < 3 {
			continue
		}
		platform.SortVirtualSlaves(stream)
		n := len(stream)

		pp := NewProbePacker()
		consumed := make([]int, len(legs))
		offer := func() {
			skip := append([]int(nil), consumed...)
			for _, v := range stream {
				if pp.Full() {
					break
				}
				if skip[v.Leg] > 0 {
					skip[v.Leg]--
					continue
				}
				pp.Offer(v)
			}
		}
		if done, _, err := pp.Rewind(n, d, nil, consumed); err != nil {
			t.Fatal(err)
		} else if !done {
			offer()
		}
		full := pp.Len()
		if full == 0 {
			continue
		}

		// Shrink: the stream is unchanged (change=nil), so the scan stops
		// at the smaller budget's last admission and the probe is done.
		small := 1 + r.Intn(full)
		done, retained, err := pp.Rewind(small, d, nil, consumed)
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("trial %d: budget shrink %d→%d not answered from the recorded run", trial, full, small)
		}
		if pp.Len() != small {
			t.Fatalf("trial %d: after shrink to %d the packer holds %d admissions", trial, small, pp.Len())
		}
		spec := packSpec(stream, small, d)
		allocsIdentical(t, fmt.Sprintf("trial %d shrink to %d", trial, small), pp.Allocation(), spec)

		// Grow back: the retained decisions must survive (no reset) and
		// the extension must land on the from-scratch answer.
		done, retained, err = pp.Rewind(n, d, nil, consumed)
		if err != nil {
			t.Fatal(err)
		}
		if retained == 0 {
			t.Fatalf("trial %d: budget grow %d→%d reset the recorded run", trial, small, n)
		}
		if !done {
			offer()
		}
		spec = packSpec(stream, n, d)
		allocsIdentical(t, fmt.Sprintf("trial %d regrow to %d", trial, n), pp.Allocation(), spec)
	}
}

// TestProbePackerMonotoneWalks covers the two regimes the seeded search
// produces: a galloping ascent, then a descending refinement.
func TestProbePackerMonotoneWalks(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		legs := makeProbeLegs(r)
		maxD := maxWalkDeadline(legs)
		total := 0
		for _, leg := range legs {
			total += len(leg)
		}
		n := r.Intn(total + 2)
		var walk []walkStep
		for d := platform.Time(1); d < maxD; d = d*2 + 1 {
			walk = append(walk, walkStep{n: n, deadline: d})
		}
		for d := maxD; d >= 0; d -= max(1, maxD/7) {
			walk = append(walk, walkStep{n: n, deadline: d})
		}
		driveWalk(t, legs, walk)
	}
}
