package spider

import (
	"math/bits"

	"repro/internal/platform"
)

// loserTree is the probe-persistent k-way merge: a tournament tree over
// one cursor per leg whose state survives across deadline probes. A
// per-probe heap merge would rebuild k nodes and re-touch every leg at
// every probe; the tournament instead keeps its cursors where the last
// probe's merge stopped and, per probe, repositions only the cursors
// whose resume point actually moved — the legs with candidates in the
// rewound decision suffix or with a changed fit count — replaying just
// those leaf-to-root paths in O(log k) comparisons each.
//
// Internal nodes store the winning leg index of their subtree (the
// loser-tree variant that keeps winners rather than losers: one int32
// read per level on the pop path, and — unlike loser storage — an
// arbitrary leaf repositioning stays a pure path replay). Leaves are
// implicit: leaf b lives at slot span+b and reads cursor b. Exhausted
// or absent cursors report -1 and lose every match.
//
// The emission order is the reference path's sorted candidate order:
// ascending platform.CompareVirtualSlaves, a total order (ties cannot reach the
// Rank coordinate across distinct legs, and within a leg Proc strictly
// ascends), so the winner of every match is unique. The persistent
// cursors produce candidates with Rank equal to the backward index j —
// deadline-independent, unlike the emission rank k−1−j the reference
// path uses — so the same logged candidate compares equal across
// probes; probeAlloc translates Ranks back when materialising.
type loserTree struct {
	curs  []mergeLeaf
	win   []int32 // win[1] is the overall winner; internal nodes 1..span-1
	span  int     // power-of-two leaf span, ≥ max(2, len(curs))
	moved []int   // adjust scratch: cursors repositioned this probe
}

// mergeLeaf is one leg's persistent cursor: position j within the leg's
// backward run, exclusive bound k (the leg's fit count for the rewound
// probe), and the loaded candidate.
type mergeLeaf struct {
	lp   *legPlan
	leg  int
	j, k int
	cur  platform.VirtualSlave
	done bool
}

func (lf *mergeLeaf) load() {
	lf.cur = platform.VirtualSlave{
		Comm: lf.lp.c1,
		Proc: -lf.lp.inc.Emission(lf.j) - lf.lp.c1,
		Leg:  lf.leg,
		Rank: lf.j, // backward index, not emission rank: stable across probes
	}
}

// newLoserTree builds the tournament over the solver's legs with every
// cursor exhausted; the first adjust call populates them.
func newLoserTree(legs []*legPlan) *loserTree {
	span := 1 << bits.Len(uint(max(len(legs), 2)-1))
	t := &loserTree{
		curs: make([]mergeLeaf, len(legs)),
		win:  make([]int32, span),
		span: span,
	}
	for b, lp := range legs {
		t.curs[b] = mergeLeaf{lp: lp, leg: b, done: true}
	}
	for i := range t.win {
		t.win[i] = -1
	}
	return t
}

// leafWin returns the winner of the (implicit) leaf node for cursor i.
func (t *loserTree) leafWin(i int) int32 {
	if i < len(t.curs) && !t.curs[i].done {
		return int32(i)
	}
	return -1
}

// childWin returns the winner below tree slot x.
func (t *loserTree) childWin(x int) int32 {
	if x >= t.span {
		return t.leafWin(x - t.span)
	}
	return t.win[x]
}

// better resolves one match between leg indices (-1 loses always).
func (t *loserTree) better(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if platform.CompareVirtualSlaves(t.curs[a].cur, t.curs[b].cur) <= 0 {
		return a
	}
	return b
}

// replay recomputes the matches on cursor i's leaf-to-root path.
func (t *loserTree) replay(i int) {
	for node := (t.span + i) / 2; node >= 1; node /= 2 {
		t.win[node] = t.better(t.childWin(2*node), t.childWin(2*node+1))
	}
}

// rebuild recomputes every internal node bottom-up in O(span).
func (t *loserTree) rebuild() {
	for node := t.span - 1; node >= 1; node-- {
		t.win[node] = t.better(t.childWin(2*node), t.childWin(2*node+1))
	}
}

// adjust repositions the cursors for a probe: cursor b resumes at
// consumed[b] within a run of ks[b] candidates. Cursors already in
// place — legs untouched by the rewind — cost nothing; each moved
// cursor replays its path, unless so many moved that one bottom-up
// rebuild is cheaper. Returns how many cursors moved.
func (t *loserTree) adjust(consumed, ks []int) int {
	moved := t.moved[:0]
	for b := range t.curs {
		lf := &t.curs[b]
		j, k := consumed[b], ks[b]
		if lf.j == j && lf.k == k {
			continue
		}
		lf.j, lf.k = j, k
		if j < k {
			lf.done = false
			lf.load()
		} else {
			lf.done = true
		}
		moved = append(moved, b)
	}
	t.moved = moved
	if len(moved) == 0 {
		return 0
	}
	if len(moved)*bits.Len(uint(t.span)) >= t.span {
		t.rebuild()
	} else {
		for _, b := range moved {
			t.replay(b)
		}
	}
	return len(moved)
}

// next pops the merge's next candidate in admission order, advancing
// the winning cursor and replaying its path; ok is false when every
// cursor is exhausted.
func (t *loserTree) next() (v platform.VirtualSlave, ok bool) {
	w := t.win[1]
	if w < 0 {
		return platform.VirtualSlave{}, false
	}
	lf := &t.curs[w]
	v = lf.cur
	if lf.j++; lf.j < lf.k {
		lf.load()
	} else {
		lf.done = true
	}
	t.replay(int(w))
	return v, true
}
