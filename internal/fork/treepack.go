package fork

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// Packer is the balanced-tree incremental packer: a treap whose in-order
// traversal is the emission order (decreasing effective processing time,
// admission-stable among equals) carrying per-subtree aggregates, so one
// candidate costs O(log n) to test and admit instead of the O(n)
// elapsed/minSlack rebuild of the slice-based PackSorted.
//
// Per node the tree maintains, over its subtree,
//
//   - commSum: the total communication time, and
//   - minRel:  min over subtree members j of −(localElapsed(j) + Proc(j)),
//     where localElapsed(j) is the cumulative communication from
//     the subtree's first emission through j's own send.
//
// Every quantity is relative to the subtree's start, which is what makes
// insertions cheap: admitting a candidate delays every later send by
// exactly the candidate's communication time, and in this representation
// that delay is absorbed lazily — nothing below the insertion path is
// touched, because a subtree's aggregates never mention absolute time.
// The absolute slack of a suffix is recovered during descent as
// (deadline − elapsedBefore) + minRel.
//
// Candidates must be offered in the admission order of [2] (ascending
// CompareVirtualSlaves); the greedy decisions, the admitted multiset and
// the emission starts are then identical to PackSorted's, which the
// equivalence tests assert. A Packer is not safe for concurrent use.
type Packer struct {
	deadline platform.Time
	n        int
	nodes    []treeNode
	root     int32
	rng      uint64
	vscratch []platform.VirtualSlave // rollback rebuild buffer
}

// prioGamma is the splitmix64 increment seeding the treap priorities.
// The priority of the i-th admitted node is a pure function of i, so any
// sequence of admissions and rollbacks that ends with the same admitted
// prefix ends with the identical treap.
const prioGamma = 0x9e3779b97f4a7c15

// treeNode is one admitted virtual slave in the treap. Children are
// indices into Packer.nodes (−1 for none): index-based storage keeps the
// tree in one allocation-amortised slice and survives reallocation,
// which pointer-based nodes would not.
type treeNode struct {
	v           platform.VirtualSlave
	prio        uint64
	left, right int32
	commSum     platform.Time // Σ Comm over the subtree
	minRel      platform.Time // min −(localElapsed+Proc) over the subtree
}

// NewPacker returns an empty packer admitting at most n virtual slaves
// against the deadline.
func NewPacker(n int, deadline platform.Time) (*Packer, error) {
	if deadline < 0 {
		return nil, fmt.Errorf("fork: negative deadline %d", deadline)
	}
	if n < 0 {
		return nil, fmt.Errorf("fork: negative task count %d", n)
	}
	return &Packer{deadline: deadline, n: n, root: -1, rng: prioGamma}, nil
}

// Reset empties the packer for a new deadline and task budget, keeping
// the node storage so a solver probing many deadlines allocates once.
func (p *Packer) Reset(n int, deadline platform.Time) error {
	if deadline < 0 {
		return fmt.Errorf("fork: negative deadline %d", deadline)
	}
	if n < 0 {
		return fmt.Errorf("fork: negative task count %d", n)
	}
	p.deadline, p.n, p.nodes, p.root, p.rng = deadline, n, p.nodes[:0], -1, prioGamma
	return nil
}

// Len returns the number of admitted virtual slaves.
func (p *Packer) Len() int { return len(p.nodes) }

// Full reports whether the packer has admitted its task budget; further
// offers are rejected without inspection.
func (p *Packer) Full() bool { return len(p.nodes) == p.n }

// Deadline returns the deadline the packer admits against.
func (p *Packer) Deadline() platform.Time { return p.deadline }

// Offer runs the greedy admission check of [2] on one candidate and
// admits it when the decreasing-processing-time packing stays feasible,
// reporting whether it was admitted. Candidates must arrive in ascending
// CompareVirtualSlaves order for the greedy to be optimal; the packer
// itself stays consistent under any order.
func (p *Packer) Offer(cand platform.VirtualSlave) bool {
	if p.Full() {
		return false
	}
	if p.deadline < p.critical(cand) {
		return false
	}
	p.insertCand(cand)
	return true
}

// critical returns the smallest deadline that would admit cand against
// the current admitted set (its admission-order prefix): the maximum of
// the candidate's own prefix constraint (elapsed communication before it
// plus its own communication and processing) and the displaced suffix's
// tightest completion shifted by the candidate's communication time.
// Both quantities are deadline-independent, so the decision for cand —
// given this prefix — at any deadline d is exactly d ≥ critical(cand):
// the hinge the probe-persistent packer's decision log swings on.
func (p *Packer) critical(cand platform.VirtualSlave) platform.Time {
	before, tight := p.probe(cand)
	crit := before + cand.Comm + cand.Proc
	if tight != math.MinInt64 {
		if c := tight + cand.Comm; c > crit {
			crit = c
		}
	}
	return crit
}

// probe descends to cand's insertion point (after every node with
// Proc ≥ cand.Proc), accumulating the communication elapsed before it
// and the maximum elapsed+Proc over the displaced suffix (math.MinInt64
// when the suffix is empty). The two feasibility conditions of
// PackSorted are before+Comm+Proc ≤ deadline and deadline−tight ≥ Comm.
func (p *Packer) probe(cand platform.VirtualSlave) (before, tight platform.Time) {
	tight = math.MinInt64
	for id := p.root; id >= 0; {
		nd := &p.nodes[id]
		var left platform.Time
		if nd.left >= 0 {
			left = p.nodes[nd.left].commSum
		}
		if nd.v.Proc < cand.Proc {
			// cand lands before nd: nd and its right subtree are
			// displaced by cand.Comm if we admit.
			upTo := before + left + nd.v.Comm
			if t := upTo + nd.v.Proc; t > tight {
				tight = t
			}
			if nd.right >= 0 {
				if t := upTo - p.nodes[nd.right].minRel; t > tight {
					tight = t
				}
			}
			id = nd.left
		} else {
			before += left + nd.v.Comm
			id = nd.right
		}
	}
	return before, tight
}

// insertCand admits cand unconditionally: callers have already decided.
func (p *Packer) insertCand(cand platform.VirtualSlave) {
	// splitmix64 priorities: deterministic per admitted index, so runs
	// are reproducible — and rollbacks rejoin the exact same stream.
	p.rng += prioGamma
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	p.nodes = append(p.nodes, treeNode{
		v:       cand,
		prio:    z ^ (z >> 31),
		left:    -1,
		right:   -1,
		commSum: cand.Comm,
		minRel:  -cand.Comm - cand.Proc,
	})
	p.root = p.insert(p.root, int32(len(p.nodes)-1))
}

// insert places node nid into the subtree rooted at id by the emission
// order — left of the first node with strictly smaller Proc — and
// rotates it up while its priority beats its parent's, recomputing
// aggregates along the path.
func (p *Packer) insert(id, nid int32) int32 {
	if id < 0 {
		return nid
	}
	if p.nodes[id].v.Proc < p.nodes[nid].v.Proc {
		p.nodes[id].left = p.insert(p.nodes[id].left, nid)
		if p.nodes[p.nodes[id].left].prio > p.nodes[id].prio {
			id = p.rotateRight(id)
		}
	} else {
		p.nodes[id].right = p.insert(p.nodes[id].right, nid)
		if p.nodes[p.nodes[id].right].prio > p.nodes[id].prio {
			id = p.rotateLeft(id)
		}
	}
	p.update(id)
	return id
}

// rotateRight lifts id's left child; the demoted node is recomputed
// here, the promoted one by the caller's update.
func (p *Packer) rotateRight(id int32) int32 {
	l := p.nodes[id].left
	p.nodes[id].left = p.nodes[l].right
	p.nodes[l].right = id
	p.update(id)
	return l
}

// rotateLeft lifts id's right child.
func (p *Packer) rotateLeft(id int32) int32 {
	r := p.nodes[id].right
	p.nodes[id].right = p.nodes[r].left
	p.nodes[r].left = id
	p.update(id)
	return r
}

// update recomputes id's aggregates from its children. Children's
// aggregates are relative to their own subtree start, so the only
// adjustment is re-basing the right subtree past the left subtree and
// the node's own send.
func (p *Packer) update(id int32) {
	nd := &p.nodes[id]
	var left, right platform.Time
	if nd.left >= 0 {
		left = p.nodes[nd.left].commSum
	}
	if nd.right >= 0 {
		right = p.nodes[nd.right].commSum
	}
	nd.commSum = left + nd.v.Comm + right
	base := left + nd.v.Comm
	m := -base - nd.v.Proc
	if nd.left >= 0 && p.nodes[nd.left].minRel < m {
		m = p.nodes[nd.left].minRel
	}
	if nd.right >= 0 {
		if r := -base + p.nodes[nd.right].minRel; r < m {
			m = r
		}
	}
	nd.minRel = m
}

// rollback restores the packer to the state it had after its first t
// admissions, evicting every node admitted later. Node storage keeps
// admission order, so the victims are exactly nodes[t:]. It picks the
// cheaper of two equivalent routes — deleting the suffix out of the
// treap, or rebuilding the treap from the retained prefix — and rewinds
// the priority stream so subsequent admissions reproduce exactly the
// treap a from-scratch run over the same decisions would build.
func (p *Packer) rollback(t int) {
	if t < 0 {
		t = 0
	}
	if t >= len(p.nodes) {
		return
	}
	if t <= len(p.nodes)-t {
		// Rebuild: fewer insertions than evictions. Copy the retained
		// candidates out first — re-inserting appends over their slots.
		p.vscratch = p.vscratch[:0]
		for i := 0; i < t; i++ {
			p.vscratch = append(p.vscratch, p.nodes[i].v)
		}
		p.nodes, p.root, p.rng = p.nodes[:0], -1, prioGamma
		for _, v := range p.vscratch {
			p.insertCand(v)
		}
		return
	}
	for i := len(p.nodes) - 1; i >= t; i-- {
		p.root = p.removeNode(p.root, int32(i))
	}
	p.nodes = p.nodes[:t]
	p.rng = prioGamma * uint64(t+1)
}

// nodeBefore reports whether node a precedes node b in emission order:
// strictly larger Proc, ties broken by earlier admission (smaller index).
func (p *Packer) nodeBefore(a, b int32) bool {
	if p.nodes[a].v.Proc != p.nodes[b].v.Proc {
		return p.nodes[a].v.Proc > p.nodes[b].v.Proc
	}
	return a < b
}

// removeNode deletes node nid from the subtree rooted at id by rotating
// it down until a child slot frees, recomputing aggregates along the
// way, and returns the new subtree root.
func (p *Packer) removeNode(id, nid int32) int32 {
	if id < 0 {
		return -1
	}
	if id == nid {
		l, r := p.nodes[id].left, p.nodes[id].right
		if l < 0 {
			return r
		}
		if r < 0 {
			return l
		}
		if p.nodes[l].prio > p.nodes[r].prio {
			nr := p.rotateRight(id)
			p.nodes[nr].right = p.removeNode(p.nodes[nr].right, nid)
			p.update(nr)
			return nr
		}
		nr := p.rotateLeft(id)
		p.nodes[nr].left = p.removeNode(p.nodes[nr].left, nid)
		p.update(nr)
		return nr
	}
	if p.nodeBefore(nid, id) {
		p.nodes[id].left = p.removeNode(p.nodes[id].left, nid)
	} else {
		p.nodes[id].right = p.removeNode(p.nodes[id].right, nid)
	}
	p.update(id)
	return id
}

// Allocation materialises the admitted set in emission order with
// back-to-back emission windows from time 0 — the same layout PackSorted
// produces.
func (p *Packer) Allocation() *Allocation {
	alloc := &Allocation{Deadline: p.deadline, Slaves: make([]Chosen, 0, len(p.nodes))}
	var at platform.Time
	stack := make([]int32, 0, 48)
	id := p.root
	for id >= 0 || len(stack) > 0 {
		for id >= 0 {
			stack = append(stack, id)
			id = p.nodes[id].left
		}
		id = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := p.nodes[id].v
		alloc.Slaves = append(alloc.Slaves, Chosen{VirtualSlave: v, EmitStart: at})
		at += v.Comm
		id = p.nodes[id].right
	}
	return alloc
}
