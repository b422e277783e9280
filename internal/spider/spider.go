// Package spider implements the optimal spider-graph algorithm of §7 of
// the paper, combining the backward chain algorithm (package core) with
// the fork-graph machinery of [2] (package fork):
//
//  1. For every leg, the time-limited chain algorithm schedules as many
//     tasks as fit within the deadline, anchored at the deadline.
//  2. Each scheduled leg task i becomes a single-task virtual slave
//     (c_first, Tlim − C_1^i − c_first): the leg promises to complete
//     the task by Tlim provided the master starts its send by C_1^i
//     (the Fig. 7 transformation).
//  3. The fork packing admits a maximum subset of virtual slaves whose
//     back-to-back sends meet every promise (Lemma 4 shows any spider
//     schedule induces such a packing, so this is an upper bound).
//  4. The admitted virtual slaves are reverted into an actual spider
//     schedule: every chosen leg task keeps its in-leg trajectory and
//     only its first send is moved earlier, to the packed slot, which
//     preserves feasibility (Lemma 3).
//
// Theorem 3: the result completes the maximum possible number of tasks
// within the deadline; binary search over the deadline then yields the
// minimum makespan for n tasks.
//
// # The memoized solver
//
// A naive implementation (kept in reference.go) rebuilds every leg plan
// at every deadline probe, for O(n·p²) per leg per probe — O(n²·p²)
// overall (Theorem 2). The Solver in this file exploits two structural
// facts of the backward construction (see core.Engine):
//
//   - translation invariance: the leg plan toward deadline T is the
//     horizon-0 plan shifted by T, so one cached backward sequence per
//     leg answers every deadline;
//   - prefix stability with strictly decreasing emissions: the tasks
//     fitting within T are exactly the backward prefix whose shifted
//     emissions stay non-negative, found by galloping/binary search.
//
// Each deadline probe then costs a binary search over cached emissions
// plus one fork packing, instead of rebuilding the chain schedules; the
// per-leg construction itself is paid once, amortised over all probes,
// and independent legs are grown in parallel worker goroutines with a
// deterministic merge (each leg owns its slot; results are read in leg
// order). The solver produces schedules identical to the reference
// path — not merely equal makespans — because the virtual-slave
// multiset it feeds the deterministic packing is the same.
package spider

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fork"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
)

// legPlan memoizes one leg's backward construction. Virtual-slave
// processing times are deadline-independent: the §7 promise for the
// task at backward index j is Proc = Tlim − C_1 − c_1 where C_1 =
// emission(j) + Tlim, so Proc = −emission(j) − c_1 for any deadline.
type legPlan struct {
	inc *core.Incremental
	c1  platform.Time
}

// fit returns how many of at most n tasks this leg completes within the
// deadline, growing the memoized plan as needed.
func (lp *legPlan) fit(n int, deadline platform.Time) int {
	return lp.inc.FitWithin(n, deadline)
}

// task returns the emission-order task at rank i of this leg's k-task
// plan for the deadline: backward placement k−1−i shifted into absolute
// times.
func (lp *legPlan) task(k, i int, deadline platform.Time) sched.ChainTask {
	return lp.inc.Backward(k - 1 - i).Shifted(deadline)
}

// Solver answers repeated scheduling queries on one spider, reusing the
// memoized per-leg plans across calls: probing many deadlines (as
// MinMakespan's binary search does) or many task counts (as the tree
// covering heuristic may) pays the backward construction only once.
// A Solver is not safe for concurrent use; independent Solvers are.
type Solver struct {
	sp platform.Spider
	// legs[b] is leg b's plan view. Isomorphic legs — identical (c, w)
	// sequences under platform.LegKey — share one *legPlan: the backward
	// construction is paid once per distinct leg shape, not once per
	// leg. Sharing is sound because a plan is a pure function of its
	// chain (every consumer carries the leg index separately) and growth
	// is deterministic.
	legs []*legPlan
	// plans holds each distinct plan exactly once. The parallel prepare
	// workers iterate plans, not legs, so no two goroutines ever grow
	// the same shared plan.
	plans []*legPlan

	kbuf []int // reused per-leg fit counts

	// Probe-persistent state: the packer whose decision log survives
	// across deadline probes, the tournament merge whose leg cursors
	// survive with it, the fit counts of the recorded probe, and the
	// per-leg retained counts Rewind reports.
	pp       *fork.ProbePacker
	lt       *loserTree
	kprev    []int
	consumed []int
	grown    []mergeLeaf // probe scratch: grown runs' added-range cursors

	stats ProbeStats

	// trace, when non-nil, receives per-phase wall times: plan growth
	// under obs.PhaseConstruct (via the plans' core.Incremental hooks),
	// plan set-up under obs.PhaseDedup, per-leg fit cuts under
	// obs.PhaseMerge, the probe body under obs.PhasePack and the
	// Lemma 3 revert under obs.PhaseExtract. Nil (the default) keeps
	// the hot path at one pointer compare per phase boundary — the
	// disabled-hooks test asserts the warm probe's allocation count is
	// unchanged.
	trace *obs.SolveTrace
	// cancel, when non-nil, is the cooperative cancellation checkpoint
	// the solve loops poll: once per deadline probe (fits), at stride
	// inside the merge and drain loops, and — via propagation to the
	// distinct leg plans and the persistent packer — inside the backward
	// growth and rewind scans. Nil (the default) keeps every hot loop at
	// one pointer compare, the same floor as the trace hooks.
	cancel *obs.CancelCheck

	// buildNs is NewSolver's plan set-up wall time (leg-key dedup),
	// measured unconditionally because it happens before a trace can be
	// attached; SetTrace flushes it once.
	buildNs      time.Duration
	buildFlushed bool

	// prepared high-water marks: fit(n, deadline) needs no growth when
	// both are dominated, so warm probes skip the worker pool entirely.
	prepN        int
	prepDeadline platform.Time

	// testProbeHook, when non-nil, runs at the top of every feasibility
	// probe (fits). It is a test seam: cancelling the observed context
	// from the hook stops the search at a chosen probe, so the
	// best-so-far bracket a cancellation carries out can be asserted
	// deterministically. Set it between queries only.
	testProbeHook func()
}

// ProbeStats is the solver's cumulative deadline-search telemetry; the
// service's per-response cost meta and admission control and the
// msbench -json probes-per-solve column read it.
type ProbeStats struct {
	// Solves counts MinMakespan searches.
	Solves int
	// Probes counts feasibility probes (fits evaluations).
	Probes int
	// PackProbes counts probes that actually ran packing work — the
	// expensive kind; the rest were settled by fit-count sums alone or
	// entirely from the recorded decision log (RewindHits).
	PackProbes int
	// CountChecks counts pure fit-count evaluations: sum-of-fits
	// shortcut rejections and the seeding's bound search.
	CountChecks int
	// RewindHits counts persistent probes answered entirely from the
	// recorded decision log — no merge, no packing work at all.
	RewindHits int
	// Reoffered counts candidates offered to the persistent packer
	// after a rewind — the stream suffix each probe actually re-decided,
	// where a from-scratch probe would re-offer every candidate.
	Reoffered int64
	// Constructed counts the backward placements built across the
	// solver's distinct leg plans — the paid construction work, read at
	// snapshot time. Chain solvers report their single plan's length
	// here, so admission control can predict solve cost uniformly.
	Constructed int64
}

// Stats returns the cumulative probe telemetry.
func (s *Solver) Stats() ProbeStats {
	st := s.stats
	for _, lp := range s.plans {
		st.Constructed += int64(lp.inc.Len())
	}
	return st
}

// SetTrace attaches (or, with nil, detaches) the phase trace the
// solver's hooks report into, propagating it to every distinct leg
// plan; the set-up cost already paid by NewSolver flushes into the
// trace once. Attach between queries only — the trace itself is safe
// for the solver's parallel growth workers, swapping it mid-solve is
// not.
func (s *Solver) SetTrace(t *obs.SolveTrace) {
	s.trace = t
	for _, lp := range s.plans {
		lp.inc.SetTrace(t)
	}
	if t != nil && !s.buildFlushed {
		s.buildFlushed = true
		t.Observe(obs.PhaseDedup, s.buildNs)
	}
}

// SetCancel attaches (or, with nil, detaches) the cancellation
// checkpoint the solve loops poll, propagating it to every distinct
// leg plan and to the persistent packer. With a checkpoint attached, a
// dead context unwinds the solve: MinMakespan, MaxTasks and
// ScheduleWithin return the context's error, and the probe-persistent
// state plus the prepared-growth marks are abandoned (the leg plans
// keep their — still valid — partial growth, so the next solve
// re-probes warm). Attach between queries only; the checkpoint itself
// is safe for the parallel growth workers.
func (s *Solver) SetCancel(c *obs.CancelCheck) {
	s.cancel = c
	for _, lp := range s.plans {
		lp.inc.SetCancel(c)
	}
	if s.pp != nil {
		s.pp.SetCancel(c)
	}
}

// solveBoundary is the deferred recovery point of the public solve
// methods: it converts a cancellation checkpoint unwind into the
// context error it carries (re-panicking anything else) and, whenever
// a solve ends in an error with a dead context, abandons the
// probe-persistent state — a probe stopped mid-stream leaves the
// decision log, merge cursors and consumed counts out of step with
// one another, and the growth marks may promise growth that never ran.
func (s *Solver) solveBoundary(err *error) {
	if r := recover(); r != nil {
		ce, ok := obs.Canceled(r)
		if !ok {
			panic(r)
		}
		*err = ce
	}
	if *err != nil && s.cancel.Err() != nil {
		s.pp, s.lt = nil, nil
		s.prepN, s.prepDeadline = 0, 0
	}
}

// NewSolver validates the spider and prepares empty per-leg plans,
// deduplicating isomorphic legs (see Solver.legs).
func NewSolver(sp platform.Spider) (*Solver, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	s := &Solver{sp: sp, legs: make([]*legPlan, sp.NumLegs())}
	shared := make(map[string]*legPlan, len(s.legs))
	for b, leg := range sp.Legs {
		key := platform.LegKey(leg)
		if lp := shared[key]; lp != nil {
			s.legs[b] = lp
			continue
		}
		inc, err := core.NewIncremental(leg)
		if err != nil {
			return nil, fmt.Errorf("spider: leg %d: %w", b, err)
		}
		lp := &legPlan{inc: inc, c1: leg.Comm(1)}
		s.legs[b] = lp
		s.plans = append(s.plans, lp)
		shared[key] = lp
	}
	// Timed unconditionally (two clock reads on a cold path): a trace
	// attached after construction still gets the set-up cost, flushed by
	// SetTrace exactly once.
	s.buildNs = time.Since(t0)
	return s, nil
}

// DistinctLegPlans returns how many backward constructions the solver
// actually owns: the number of distinct leg shapes, which the
// isomorphic-leg sharing makes at most the leg count.
func (s *Solver) DistinctLegPlans() int { return len(s.plans) }

// Spider returns the platform the solver schedules on.
func (s *Solver) Spider() platform.Spider { return s.sp }

// prepare grows every distinct leg plan far enough to answer
// fit(n, deadline), evaluating independent plans in parallel worker
// goroutines. Each goroutine mutates only plans it exclusively drew, so
// the merge is deterministic by construction: subsequent reads walk the
// legs in index order over fully grown, immutable-from-here plans.
func (s *Solver) prepare(n int, deadline platform.Time) error {
	if n <= s.prepN && deadline <= s.prepDeadline {
		return nil
	}
	// Grow to the recorded envelope, not just this call's pair: the
	// marks promise that any dominated query needs no growth, so the
	// growth itself must cover their component-wise max.
	s.prepN = max(s.prepN, n)
	s.prepDeadline = max(s.prepDeadline, deadline)
	n, deadline = s.prepN, s.prepDeadline
	// Growth walks the distinct plans: a shape shared by m legs is constructed once here and read m times later. Iterating
	// plans (not legs) is also what keeps the pool race-free — each
	// worker owns the plans it draws, and no plan appears twice.
	if len(s.plans) < 2 || n < 2 {
		for _, lp := range s.plans {
			lp.fit(n, deadline) // a cancel unwind is caught at the method boundary
		}
		return nil
	}
	workers := min(len(s.plans), runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan *legPlan, len(s.plans))
	for _, lp := range s.plans {
		next <- lp
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lp := range next {
				// A cancellation unwind must not escape the goroutine
				// (that would kill the process); convert it here and let
				// the remaining workers drain their queues — their own
				// strided checks trip within a stride anyway.
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					continue
				}
				if err := growPlan(lp, n, deadline); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// growPlan grows one plan inside a prepare worker, converting a
// cancellation unwind into an ordinary error.
func growPlan(lp *legPlan, n int, deadline platform.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := obs.Canceled(r)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	lp.fit(n, deadline)
	return nil
}

// legCounts fills the per-leg fit counts for the deadline and returns
// them along with their sum (the merged candidate total). The returned
// slice is the solver's scratch buffer, valid until the next probe.
func (s *Solver) legCounts(n int, deadline platform.Time) ([]int, int) {
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
	}
	if s.kbuf == nil {
		s.kbuf = make([]int, len(s.legs))
	}
	ks, total := s.kbuf, 0
	for b, lp := range s.legs {
		ks[b] = lp.fit(n, deadline)
		total += ks[b]
	}
	s.trace.ObserveSince(obs.PhaseMerge, t0)
	return ks, total
}

// persistentProbe runs one deadline probe: the recorded decision log of
// the previous probe is rewound to its first divergence — the earliest
// decision flip or candidate-stream change for the new deadline — and
// only the suffix is re-decided. The re-decided stretch is not even
// re-merged from the leg cursors: the rewound tail already lists the
// old stream in admission order, so the resume joins it against a
// small heap over just the grown runs' added candidates, and the full
// tournament merge takes over only past the tail's end (which exists
// only when the recorded run stopped on a filled budget). The admitted
// set is provably identical to a from-scratch run, which the reference
// equivalence and fuzz tests assert.
func (s *Solver) persistentProbe(n int, deadline platform.Time, ks []int) error {
	if s.pp == nil {
		s.pp = fork.NewProbePacker()
		s.pp.SetCancel(s.cancel)
		s.lt = newLoserTree(s.legs)
		s.kprev = make([]int, len(s.legs))
		s.consumed = make([]int, len(s.legs))
	}
	// The earliest candidate at which the new stream differs from the
	// recorded one: per leg, runs extend (or shrink) at the backward
	// index where the fit counts diverge, at constant Comm with strictly
	// ascending Proc — so the overall earliest is the admission-order
	// minimum over the changed legs. Grown legs also contribute their
	// added range [kprev, ks) as a resume cursor.
	var change *platform.VirtualSlave
	var cv platform.VirtualSlave
	grown := s.grown[:0]
	// Any recorded run joins, regardless of its task budget: the decision
	// log is budget-independent (Rewind re-cuts it for the new n), so a
	// warm solver asked about n±δ extends or trims the recorded run
	// instead of re-packing from scratch.
	_, recOK := s.pp.Recorded()
	joined := recOK
	if joined {
		for b, lp := range s.legs {
			if ks[b] == s.kprev[b] {
				continue
			}
			j := min(ks[b], s.kprev[b])
			v := platform.VirtualSlave{Comm: lp.c1, Proc: -lp.inc.Emission(j) - lp.c1, Leg: b, Rank: j}
			if change == nil || platform.CompareVirtualSlaves(v, cv) < 0 {
				cv, change = v, &cv
			}
			if ks[b] > s.kprev[b] {
				lf := mergeLeaf{lp: lp, leg: b, j: s.kprev[b], k: ks[b]}
				lf.load()
				grown = append(grown, lf)
			}
		}
	}
	done, _, err := s.pp.Rewind(n, deadline, change, s.consumed)
	if err != nil {
		s.grown = grown
		return err
	}
	switch {
	case done:
		// Settled entirely from the recorded decisions: not a packing
		// probe — no merge, no treap work ran.
		s.stats.RewindHits++
	case !joined:
		// No matching recorded run: plain full merge from scratch.
		s.stats.PackProbes++
		s.lt.adjust(s.consumed, ks)
		s.drainMerge()
	default:
		s.stats.PackProbes++
		// Phase 1: join the rewound tail (the old stream, in admission
		// order) against the grown runs' added candidates. Tail entries
		// of shrunken runs are dropped; the rest mostly settle by their
		// recorded bounds without touching the treap or any cursor.
		for i := len(grown)/2 - 1; i >= 0; i-- {
			siftDown(grown, i)
		}
		for !s.pp.Full() {
			s.cancel.Checkpoint()
			tv, tok := s.pp.TailPeek()
			if !tok && s.pp.TailWasFull() {
				// The tail is spent but the recorded run had stopped on a
				// filled budget, so the old stream continues past it with
				// candidates the log never saw — candidates that sort
				// before the remaining grown entries (a grown candidate
				// follows every old candidate of its leg). Draining grown
				// here would break admission order; the tournament below
				// resumes every leg from its consumed position and covers
				// both in order. Unreachable with n fixed (grown non-empty
				// implies a deadline raise, whose replays fill the budget
				// before the tail spends), live under cross-n raises.
				break
			}
			if tok && tv.Rank >= ks[tv.Leg] {
				s.pp.TailDrop()
				continue
			}
			if tok && (len(grown) == 0 || platform.CompareVirtualSlaves(tv, grown[0].cur) < 0) {
				s.pp.TailReplay()
				s.consumed[tv.Leg]++
				s.stats.Reoffered++
				continue
			}
			if len(grown) == 0 {
				break
			}
			g := &grown[0]
			s.pp.Offer(g.cur)
			s.consumed[g.leg]++
			s.stats.Reoffered++
			if g.j++; g.j < g.k {
				g.load()
			} else {
				grown[0] = grown[len(grown)-1]
				grown = grown[:len(grown)-1]
			}
			siftDown(grown, 0)
		}
		// Phase 2: the recorded run stopped on a filled budget, so the
		// stream continues past the tail's end — the full tournament
		// takes over from the consumed positions.
		if !s.pp.Full() && s.pp.TailWasFull() {
			s.lt.adjust(s.consumed, ks)
			s.drainMerge()
		}
	}
	s.grown = grown[:0]
	copy(s.kprev, ks)
	return nil
}

// drainMerge streams the tournament merge into the persistent packer
// until the budget fills or the cursors exhaust.
func (s *Solver) drainMerge() {
	for !s.pp.Full() {
		s.cancel.Checkpoint()
		v, ok := s.lt.next()
		if !ok {
			return
		}
		s.pp.Offer(v)
		s.stats.Reoffered++
	}
}

// siftDown restores the min-heap order (ascending admission order of
// the loaded candidates) of the grown-run cursor heap below index i.
func siftDown(h []mergeLeaf, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && platform.CompareVirtualSlaves(h[l].cur, h[least].cur) < 0 {
			least = l
		}
		if r < len(h) && platform.CompareVirtualSlaves(h[r].cur, h[least].cur) < 0 {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// probeCount runs one deadline probe and returns the number of admitted
// tasks, skipping allocation materialisation.
func (s *Solver) probeCount(n int, deadline platform.Time, ks []int) (int, error) {
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
		defer s.trace.ObserveSince(obs.PhasePack, t0)
	}
	if err := s.persistentProbe(n, deadline, ks); err != nil {
		return 0, err
	}
	return s.pp.Len(), nil
}

// probeAlloc runs one deadline probe and returns the materialised
// allocation. The persistent probe's candidates carry the deadline-
// independent backward index in Rank (so logged candidates stay
// comparable across probes); materialisation translates them back to
// the emission rank k−1−j the reference path uses, so the allocation —
// and hence the reverted schedule — is identical to the reference's.
func (s *Solver) probeAlloc(n int, deadline platform.Time, ks []int) (*fork.Allocation, error) {
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
		defer s.trace.ObserveSince(obs.PhasePack, t0)
	}
	if err := s.persistentProbe(n, deadline, ks); err != nil {
		return nil, err
	}
	alloc := s.pp.Allocation()
	for i := range alloc.Slaves {
		c := &alloc.Slaves[i]
		c.Rank = ks[c.Leg] - 1 - c.Rank
	}
	return alloc, nil
}

// MaxTasks returns how many of at most n tasks complete within the
// deadline.
func (s *Solver) MaxTasks(n int, deadline platform.Time) (k int, err error) {
	defer s.solveBoundary(&err)
	if n < 0 {
		return 0, fmt.Errorf("spider: negative task count %d", n)
	}
	if deadline < 0 {
		return 0, fmt.Errorf("spider: negative deadline %d", deadline)
	}
	if err := s.prepare(n, deadline); err != nil {
		return 0, err
	}
	ks, _ := s.legCounts(n, deadline)
	return s.probeCount(n, deadline, ks)
}

// fits reports whether all n tasks complete within the deadline; the
// binary-search probe of MinMakespan. When the per-leg fit counts sum
// below n the packing cannot reach n either (it admits a subset), so
// the merge and packing are skipped outright; otherwise the counts
// already computed feed the packing directly instead of being rescanned.
func (s *Solver) fits(n int, deadline platform.Time) (bool, error) {
	if s.testProbeHook != nil {
		s.testProbeHook()
	}
	// One immediate (unstrided) poll per deadline probe: the coarse
	// checkpoint that bounds how many probes a dead request still pays
	// for, independent of the strided hot-loop checks below it.
	if err := s.cancel.Err(); err != nil {
		return false, err
	}
	s.stats.Probes++
	ks, total := s.legCounts(n, deadline)
	if total < n {
		s.stats.CountChecks++
		return false, nil
	}
	m, err := s.probeCount(n, deadline, ks)
	return m == n, err
}

// ScheduleWithin schedules as many tasks as possible — at most n — on
// the spider completing within [0, deadline] (Theorem 3).
func (s *Solver) ScheduleWithin(n int, deadline platform.Time) (out *sched.SpiderSchedule, err error) {
	defer s.solveBoundary(&err)
	if n < 0 {
		return nil, fmt.Errorf("spider: negative task count %d", n)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("spider: negative deadline %d", deadline)
	}
	if err := s.prepare(n, deadline); err != nil {
		return nil, err
	}
	ks, _ := s.legCounts(n, deadline)
	alloc, err := s.probeAlloc(n, deadline, ks)
	if err != nil {
		return nil, err
	}
	// Revert (Lemma 3): the chosen virtual slave (leg b, rank i) is leg
	// b's i-th scheduled task with its first send moved to the packed
	// slot. The packing guarantees EmitStart ≤ the original C_1^i, so
	// moving the send earlier keeps condition (1); port slots are
	// pairwise disjoint by construction.
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
		defer s.trace.ObserveSince(obs.PhaseExtract, t0)
	}
	out = &sched.SpiderSchedule{Spider: s.sp}
	for _, c := range alloc.Slaves {
		t := s.legs[c.Leg].task(ks[c.Leg], c.Rank, deadline)
		if c.EmitStart > t.Comms[0] {
			return nil, fmt.Errorf("spider: internal error: packed send %d after promised latest %d", c.EmitStart, t.Comms[0])
		}
		t.Comms[0] = c.EmitStart
		out.Tasks = append(out.Tasks, sched.SpiderTask{Leg: c.Leg, ChainTask: t})
	}
	return out, nil
}

// MinMakespan returns the optimal makespan for exactly n tasks on the
// spider and a schedule achieving it, by binary search on the deadline
// (the maximum task count within a deadline is non-decreasing in the
// deadline, so feasibility of n tasks is monotone). The leg plans are
// grown in parallel as far as the search climbs; every probe then costs
// only per-leg binary searches plus one (probe-persistent) packing.
//
// The search interval is seeded from both sides. Below: the proven
// steady-state lower bound (baseline.LowerBoundSpider) is
// tightened to the sum-of-fits bound — the smallest deadline whose
// per-leg fit counts sum to n, a necessary condition for feasibility
// found by binary search over fit counts alone, no packing. Above: the
// search gallops up from that bound with doubling steps until a probe
// succeeds, replacing the master-only upper bound (one leg doing
// everything) with a feasible deadline only a port-contention gap away.
// Every bound is proven, so the converged optimum — and hence the
// schedule — is the reference search's, which the equivalence tests
// assert.
//
// A cancelled search does not leave empty-handed: every probe updates
// the best-so-far bracket, and the cancellation unwind carries it out
// wrapped in a *core.PartialError. Lo is always a proven lower bound
// (the steady-state seed, tightened by sum-of-fits and every failed
// probe); Hi and Feasible are set once a probe actually packs all n
// tasks, so a cancel before the first feasible probe reports the lower
// bound alone — never a fabricated upper bound.
func (s *Solver) MinMakespan(n int) (mk platform.Time, sol *sched.SpiderSchedule, err error) {
	var br core.Partial
	brValid := false
	// Registered before solveBoundary so it runs after the recover: the
	// unwind has already been converted into the context error by then.
	defer func() {
		if err == nil || !brValid {
			return
		}
		var pe *core.PartialError
		if errors.As(err, &pe) {
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = &core.PartialError{Partial: br, Err: err}
		}
	}()
	defer s.solveBoundary(&err)
	if n <= 0 {
		return 0, nil, fmt.Errorf("spider: task count %d is not positive", n)
	}
	s.stats.Solves++
	lo, hi := platform.Time(1), s.sp.MasterOnlyMakespan(n)
	if lb, err := baseline.LowerBoundSpider(s.sp, n); err == nil && lb > lo && lb <= hi {
		lo = lb
	}
	br.Lo, br.Hi = lo, hi
	brValid = true
	if lo < hi {
		// Grow the leg plans only as far as the search actually climbs,
		// instead of to the master-only horizon. Every probe below goes
		// through prepare first, so the parallel growth still happens —
		// but it stops a port-contention gap above the optimum, which on
		// wide platforms is a fraction of the master-only cover.
		if err := s.prepare(n, lo); err != nil {
			return 0, nil, err
		}
		// Sum-of-fits tightening: fit counts are monotone in the
		// deadline and fewer than n total fits cannot pack n. Gallop
		// up from the steady-state bound, then bisect the last step —
		// never evaluating (or growing toward) master-only deadlines.
		count := func(d platform.Time) (int, error) {
			if err := s.prepare(n, d); err != nil {
				return 0, err
			}
			s.stats.CountChecks++
			_, total := s.legCounts(n, d)
			return total, nil
		}
		c, err := count(lo)
		if err != nil {
			return 0, nil, err
		}
		if c < n {
			d, step := lo, platform.Time(1)
			sfLo := lo + 1
			br.Lo = sfLo
			for {
				d = min(d+step, hi)
				if step *= 2; step <= 0 {
					step = hi
				}
				if d == hi {
					break
				}
				if c, err = count(d); err != nil {
					return 0, nil, err
				}
				if c >= n {
					break
				}
				sfLo = d + 1
				br.Lo = sfLo
			}
			for sfLo < d {
				mid := sfLo + (d-sfLo)/2
				if c, err = count(mid); err != nil {
					return 0, nil, err
				}
				if c >= n {
					d = mid
				} else {
					sfLo = mid + 1
					br.Lo = sfLo
				}
			}
			lo = d
			br.Lo = lo
		}
		// Gallop: the first feasible probe seeds the upper bound. A
		// success at the sum-of-fits bound itself ends the search
		// outright (a feasible lower bound is the optimum).
		d, step := lo, platform.Time(1)
		for lo < hi {
			if err := s.prepare(n, d); err != nil {
				return 0, nil, err
			}
			ok, err := s.fits(n, d)
			if err != nil {
				return 0, nil, err
			}
			if ok {
				hi = d
				br.Hi, br.Feasible = hi, true
				break
			}
			lo = d + 1
			br.Lo = lo
			if step >= hi-d {
				if err := s.prepare(n, hi); err != nil {
					return 0, nil, err
				}
				break
			}
			d += step
			step *= 2
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := s.fits(n, mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi = mid
			br.Hi, br.Feasible = hi, true
		} else {
			lo = mid + 1
			br.Lo = lo
		}
	}
	out, err := s.ScheduleWithin(n, lo)
	if err != nil {
		return 0, nil, err
	}
	if out.Len() != n {
		return 0, nil, fmt.Errorf("spider: internal error: %d tasks at deadline %d, want %d", out.Len(), lo, n)
	}
	return lo, out, nil
}

// ScheduleWithin schedules as many tasks as possible — at most n —
// on the spider completing within [0, deadline] (Theorem 3).
func ScheduleWithin(sp platform.Spider, n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	s, err := NewSolver(sp)
	if err != nil {
		return nil, err
	}
	return s.ScheduleWithin(n, deadline)
}

// MaxTasks returns how many of at most n tasks complete within the
// deadline.
func MaxTasks(sp platform.Spider, n int, deadline platform.Time) (int, error) {
	s, err := NewSolver(sp)
	if err != nil {
		return 0, err
	}
	return s.MaxTasks(n, deadline)
}

// MinMakespan returns the optimal makespan for exactly n tasks on the
// spider and a schedule achieving it.
func MinMakespan(sp platform.Spider, n int) (platform.Time, *sched.SpiderSchedule, error) {
	s, err := NewSolver(sp)
	if err != nil {
		return 0, nil, err
	}
	return s.MinMakespan(n)
}

// Schedule is MinMakespan returning only the schedule; it is the
// spider-side analogue of core.Schedule.
func Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error) {
	if n == 0 {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		return &sched.SpiderSchedule{Spider: sp}, nil
	}
	_, s, err := MinMakespan(sp, n)
	return s, err
}
