package fork

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
)

// ProbePacker is the probe-persistent packer: a Packer that survives
// across the deadline probes of a binary search instead of being rebuilt
// from scratch at every probe.
//
// The greedy admission of [2] scans candidates in a fixed order and
// decides each one from the decisions before it. Given that prefix, the
// decision for one candidate is monotone in the deadline with an exact
// hinge — Packer.critical — that does not depend on the deadline at all.
// The ProbePacker therefore records, per offered candidate, its critical
// deadline. When the next probe arrives, the decisions of the recorded
// run stay valid up to the first divergence:
//
//   - the first candidate whose critical deadline lies between the old
//     and new probe deadlines (its decision flips), or
//   - the first position where the candidate stream itself changes
//     (callers report the earliest differing candidate: per-origin runs
//     grow and shrink monotonically with the deadline).
//
// Everything before that point is provably identical to a from-scratch
// run at the new deadline, so Rewind keeps it: the treap is rolled back
// to the retained admissions and only the suffix is re-offered. A probe
// whose recorded decisions all survive costs a single scan with one
// comparison per logged candidate — no merge, no treap work at all.
// The task budget n never appears in a decision, only in where the run
// stops, so the log also persists across budget changes: Rewind re-cuts
// the same decisions for a shrunken n and extends past them for a grown
// one (see Rewind).
//
// Property and fuzz tests hold the persistent packer to the oracles —
// the packFeasible spec greedy and PackSorted — at every probe of
// recorded deadline walks: it must admit the identical set with
// identical emission starts, as Packer must.
type ProbePacker struct {
	pk    Packer
	log   []probeEntry
	logD  platform.Time // deadline the recorded decisions were taken at
	valid bool

	// Rewound decision tail: the recorded decisions past the divergence
	// point. They are no longer trusted, but they are not worthless —
	// Offer merge-joins the resumed stream against them, and a recorded
	// rejection whose critical deadline already exceeds the new deadline
	// is re-rejected with one comparison instead of a treap descent (see
	// Offer for the monotonicity argument and the superset guard).
	tail     []probeEntry
	tailPos  int
	tailD    platform.Time // deadline the tail's decisions were taken at
	tailFull bool          // the recorded run stopped on a filled budget
	superset bool          // admitted-so-far ⊇ the tail's admitted-so-far
	subset   bool          // admitted-so-far ⊆ the tail's admitted-so-far

	// trace, when non-nil, receives Rewind timings under obs.PhasePack.
	// spider.Solver leaves it nil — the solver times the whole probe body
	// itself — so this hook serves direct packer users.
	trace *obs.SolveTrace

	// cancel, when non-nil, is polled at stride inside Rewind's
	// decision-log scan — the loop that can walk a million recorded
	// entries on big-budget probes — so a dead request context stops
	// the rewind. Nil (the default) costs one pointer compare.
	cancel *obs.CancelCheck
}

// probeEntry is one recorded admission decision: the candidate and the
// smallest deadline admitting it given the decisions before it.
//
// Invariant: a rejected entry (dcrit > logD) may carry a lower bound on
// its true critical deadline, an admitted entry (dcrit ≤ logD) an upper
// bound — stale values kept by the skips in offerTailEntry. Both read
// out the correct decision at logD, and both err only toward detecting
// spurious flips in Rewind's scan, which re-evaluates the entry with a
// real descent: a lower bound above d still proves rejection, an upper
// bound at most d still proves admission.
type probeEntry struct {
	v     platform.VirtualSlave
	dcrit platform.Time
}

// NewProbePacker returns an empty persistent packer; the first Rewind
// establishes the budget and deadline.
func NewProbePacker() *ProbePacker {
	pp := &ProbePacker{}
	pp.pk.root = -1
	pp.pk.rng = prioGamma
	return pp
}

// Recorded returns the task budget of the recorded run and whether a
// recorded run exists at all.
func (pp *ProbePacker) Recorded() (n int, ok bool) { return pp.pk.n, pp.valid }

// SetTrace attaches (or, with nil, detaches) a phase trace Rewind
// reports into. Safe to call between probes only.
func (pp *ProbePacker) SetTrace(t *obs.SolveTrace) { pp.trace = t }

// SetCancel attaches (or, with nil, detaches) the cancellation
// checkpoint Rewind's scan polls. With a checkpoint attached, Rewind
// may unwind a dead context by panicking with the obs cancellation
// sentinel — attach only under a boundary that recovers it
// (spider.Solver does), and treat the packer's probe state as
// abandoned after a cancelled probe. Safe to call between probes only.
func (pp *ProbePacker) SetCancel(c *obs.CancelCheck) { pp.cancel = c }

// Rewind prepares the packer for a probe with task budget n at the
// given deadline. change is the earliest candidate, in admission order,
// at which the new candidate stream differs from the recorded one (nil
// when the streams are identical); it is ignored when no recorded run
// exists and the packer resets. consumed must hold one slot per origin
// leg; Rewind zeroes it and counts the retained candidates per leg, so
// the caller can position its merge cursors to resume the stream.
//
// The recorded run survives changes of BOTH probe coordinates. The
// decisions never mention the budget — n enters only through where the
// run stops — so a new n re-cuts the same log: a smaller budget stops
// the replay at its n-th retained admission (the rolled-back rest is
// simply never reached), a larger one extends past the log's end via
// the ordinary tail/stream machinery. A warm solver answering
// MinMakespan(n±δ) therefore trims or extends the recorded run instead
// of re-packing it.
//
// The return values: done means the recorded decisions fully answer the
// probe and no candidates need to be offered; retained is the number of
// recorded decisions kept (0 after a reset).
func (pp *ProbePacker) Rewind(n int, deadline platform.Time, change *platform.VirtualSlave, consumed []int) (done bool, retained int, err error) {
	var t0 time.Time
	if pp.trace != nil {
		t0 = time.Now()
		defer pp.trace.ObserveSince(obs.PhasePack, t0)
	}
	if deadline < 0 {
		return false, 0, fmt.Errorf("fork: negative deadline %d", deadline)
	}
	if n < 0 {
		return false, 0, fmt.Errorf("fork: negative task count %d", n)
	}
	// Fail fast on a dead context before touching any recorded state:
	// the scan below mutates the tail and roll-back bookkeeping as it
	// goes, so stopping here (rather than at a mid-scan checkpoint)
	// leaves the log exactly as the last completed probe recorded it —
	// which is what lets the cancelled search hand a consistent
	// best-so-far bracket to its boundary.
	if err := pp.cancel.Err(); err != nil {
		return false, 0, err
	}
	for i := range consumed {
		consumed[i] = 0
	}
	pp.tail, pp.tailPos = pp.tail[:0], 0
	pp.superset, pp.subset = true, true
	pp.tailFull = pp.valid && pp.pk.Full()
	if !pp.valid {
		if err := pp.pk.Reset(n, deadline); err != nil {
			return false, 0, err
		}
		pp.log = pp.log[:0]
		pp.logD = deadline
		pp.valid = true
		return false, 0, nil
	}
	// Scan for the first divergence, counting retained admissions (for
	// the treap rollback) and retained candidates per leg (for cursor
	// repositioning). Entries before it decide identically at the new
	// deadline, by induction over the scan order. A replay that fills
	// the new budget stops there outright: later recorded decisions were
	// never taken by the re-run, budget-stopped exactly like a live one.
	oldD := pp.logD
	div, adm := len(pp.log), 0
	for i := range pp.log {
		pp.cancel.Checkpoint()
		if adm == n {
			div = i
			break
		}
		e := &pp.log[i]
		if change != nil && platform.CompareVirtualSlaves(*change, e.v) <= 0 {
			div = i
			break
		}
		admitted := oldD >= e.dcrit
		if admitted != (deadline >= e.dcrit) {
			div = i
			break
		}
		if admitted {
			adm++
		}
		consumed[e.v.Leg]++
	}
	// Subtree aggregates never mention the deadline or the budget, so
	// retargeting the packer is a pair of plain assignments (the treap
	// itself is cut by rollback below when admissions are shed).
	pp.pk.deadline = deadline
	pp.pk.n = n
	pp.logD = deadline
	if div == len(pp.log) {
		// Every recorded decision survives. Done unless the stream holds
		// candidates the log never saw: either the caller reports a
		// stream change past the log's end, or the recorded run stopped
		// on a filled budget (pp.tailFull) that the new n may exceed —
		// in both cases more candidates must be offered unless the new
		// budget is already filled.
		if pp.pk.Full() || (change == nil && !pp.tailFull) {
			return true, len(pp.log), nil
		}
		return false, len(pp.log), nil
	}
	pp.pk.rollback(adm)
	// The rewound decisions become the merge-join tail for Offer; their
	// decisions were taken at the old deadline.
	pp.tail = append(pp.tail[:0], pp.log[div:]...)
	pp.tailD = oldD
	pp.log = pp.log[:div]
	if pp.pk.Full() {
		// Budget-stop rewind: the retained prefix already holds the new
		// (smaller) budget, so the probe is answered; the tail stays
		// rewound and the next probe re-cuts the truncated log.
		return true, div, nil
	}
	return false, div, nil
}

// TailWasFull reports whether the recorded run behind the rewound tail
// stopped because its budget filled — in which case the recorded
// decisions end mid-stream and the caller's merge must take over once
// the tail is exhausted. When false, the tail reaches to the end of the
// recorded stream.
func (pp *ProbePacker) TailWasFull() bool { return pp.tailFull }

// TailPeek returns the next rewound tail decision's candidate, if any.
// Callers join the resumed stream against it: a tail candidate still in
// the stream goes through TailReplay, a vanished one (its leg's run
// shrank below its rank) through TailDrop, and stream candidates that
// sort before it — new candidates from grown runs — through Offer.
func (pp *ProbePacker) TailPeek() (platform.VirtualSlave, bool) {
	if pp.tailPos < len(pp.tail) {
		return pp.tail[pp.tailPos].v, true
	}
	return platform.VirtualSlave{}, false
}

// TailReplay re-decides the next tail entry (which the caller asserts
// is still in the stream) and reports whether it was admitted.
func (pp *ProbePacker) TailReplay() bool {
	e := &pp.tail[pp.tailPos]
	pp.tailPos++
	return pp.offerTailEntry(e)
}

// TailDrop discards the next tail entry as vanished from the stream.
func (pp *ProbePacker) TailDrop() {
	e := &pp.tail[pp.tailPos]
	pp.tailPos++
	if e.dcrit <= pp.tailD {
		// A recorded admission is gone: superset lost.
		pp.superset = false
	}
}

// offerTailEntry re-decides one stream-valid tail entry, dodging the
// treap whenever a recorded bound already settles it:
//
//   - a recorded rejection whose critical deadline exceeds the new
//     deadline stays rejected while no recorded admission has been
//     lost (superset): admissions can only have been added, and adding
//     admissions only raises critical deadlines, so the recorded value
//     is a valid lower bound;
//   - dually, a recorded admission whose critical deadline is within
//     the new deadline stays admitted while no admission has been
//     gained (subset): the recorded value is a valid upper bound, and
//     the node is inserted without re-deriving its feasibility.
//
// Everything else pays a full descent, which also maintains the flags:
// the first lost admission clears superset, the first gained one
// clears subset.
func (pp *ProbePacker) offerTailEntry(e *probeEntry) bool {
	d := pp.pk.deadline
	if e.dcrit > pp.tailD {
		if pp.superset && e.dcrit > d {
			pp.log = append(pp.log, *e)
			return false
		}
	} else if pp.subset && e.dcrit <= d {
		pp.log = append(pp.log, *e)
		pp.pk.insertCand(e.v)
		return true
	}
	crit := pp.pk.critical(e.v)
	pp.log = append(pp.log, probeEntry{v: e.v, dcrit: crit})
	if d >= crit {
		pp.pk.insertCand(e.v)
		if e.dcrit > pp.tailD {
			pp.subset = false
		}
		return true
	}
	if e.dcrit <= pp.tailD {
		pp.superset = false
	}
	return false
}

// Offer runs the greedy admission on one candidate at the rewound
// deadline, recording the decision's critical deadline for the next
// probe, and reports whether the candidate was admitted. Candidates
// must arrive in admission order, resuming exactly where the retained
// prefix left off (the consumed counts from Rewind, advanced by any
// ReplayTail).
//
// Offer merge-joins the stream against the rewound decision tail to
// dodge most treap descents. A candidate's critical deadline is
// monotone in the admitted set before it (both its elapsed-before sum
// and its displaced-suffix maximum only grow when admissions are
// added), so while the resumed decisions have only gained admissions
// relative to the tail's (the superset flag), a tail rejection's
// recorded critical deadline is a valid lower bound — if it already
// exceeds the new deadline, the candidate is re-rejected without
// touching the treap, and the lower bound is carried forward (see the
// probeEntry invariant). The first admission lost relative to the tail
// clears the flag and every later candidate pays the full descent.
func (pp *ProbePacker) Offer(v platform.VirtualSlave) bool {
	if pp.pk.Full() {
		return false
	}
	d := pp.pk.deadline
	for pp.tailPos < len(pp.tail) {
		e := &pp.tail[pp.tailPos]
		c := platform.CompareVirtualSlaves(v, e.v)
		if c > 0 {
			// e.v vanished from the stream (its run shrank). Losing a
			// recorded admission breaks the superset guarantee.
			if e.dcrit <= pp.tailD {
				pp.superset = false
			}
			pp.tailPos++
			continue
		}
		if c < 0 {
			// v is new to the stream; the tail resumes at e afterwards.
			break
		}
		pp.tailPos++
		return pp.offerTailEntry(e)
	}
	crit := pp.pk.critical(v)
	pp.log = append(pp.log, probeEntry{v: v, dcrit: crit})
	if d >= crit {
		pp.pk.insertCand(v)
		// An admission the recorded run did not have: subset lost.
		pp.subset = false
		return true
	}
	return false
}

// Len returns the number of admitted virtual slaves.
func (pp *ProbePacker) Len() int { return pp.pk.Len() }

// Full reports whether the packer has admitted its task budget.
func (pp *ProbePacker) Full() bool { return pp.pk.Full() }

// Deadline returns the deadline of the current (last rewound) probe.
func (pp *ProbePacker) Deadline() platform.Time { return pp.pk.Deadline() }

// Allocation materialises the admitted set in emission order, exactly
// as Packer.Allocation does.
func (pp *ProbePacker) Allocation() *Allocation { return pp.pk.Allocation() }
