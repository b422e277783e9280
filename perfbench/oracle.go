package main

import (
	"fmt"
	"sort"
	"sync"

	"repro"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/spider"
)

// oracle answers every query from a fresh repro.Solver per platform,
// independent of the service's cache, memo and wire path. Solvers are
// built after the timed phases, one platform at a time, and dropped once
// that platform's answers are checked, so the oracle never holds more
// than two warm solvers.
type oracle struct {
	in      *inputs
	refDone int // reference cross-checks made so far
}

// refChecks caps how many answers on spiders of at most 8 legs are also
// cross-checked against spider.Reference*, which shares no memoisation
// with the production solver and is slow.
const refChecks = 24

func newOracle(in *inputs) *oracle { return &oracle{in: in} }

// check verifies every outcome and returns each one's failure, "" when
// it is a correct exact answer. Failures are transport errors, non-200
// answers, degraded answers and wrong answers. Platforms are split
// between two workers.
func (o *oracle) check(outs []outcome) []string {
	byPlat := make(map[int32][]int)
	for i := range outs {
		byPlat[outs[i].q.plat] = append(byPlat[outs[i].q.plat], i)
	}
	plats := make([]int32, 0, len(byPlat))
	for p := range byPlat {
		plats = append(plats, p)
	}
	sort.Slice(plats, func(i, j int) bool { return plats[i] < plats[j] })
	bad := make([]string, len(outs))
	var wg sync.WaitGroup
	var refMu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(plats); k += 2 {
				p := plats[k]
				s, err := repro.NewSolver(o.in.plats[p].p)
				memo := make(map[query]answer)
				for _, i := range byPlat[p] {
					if err != nil {
						bad[i] = "oracle: " + err.Error()
					} else {
						bad[i] = o.checkOne(s, &outs[i], memo, &refMu)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return bad
}

// answer is the oracle's answer to one query.
type answer struct {
	tasks    int
	makespan platform.Time
}

func answerOf(s repro.Solver, q query) (answer, error) {
	switch q.op {
	case service.OpMinMakespan:
		m, sch, err := s.MinMakespan(q.n)
		if err != nil {
			return answer{}, err
		}
		return answer{sch.Len(), m}, nil
	case service.OpMaxTasks:
		k, err := s.MaxTasks(q.n, q.deadline)
		return answer{tasks: k}, err
	default:
		sch, err := s.ScheduleWithin(q.n, q.deadline)
		if err != nil {
			return answer{}, err
		}
		return answer{sch.Len(), sch.Makespan()}, nil
	}
}

// checkOne returns "" when the outcome is a correct exact answer. memo
// holds the oracle's answers already computed on this worker.
func (o *oracle) checkOne(s repro.Solver, out *outcome, memo map[query]answer, refMu *sync.Mutex) string {
	q := out.q
	switch {
	case out.err != nil:
		return out.err.Error()
	case out.degraded:
		return "degraded answer"
	}
	want, ok := memo[q]
	if !ok {
		var err error
		if want, err = answerOf(s, q); err != nil {
			return "oracle: " + err.Error()
		}
		if msg := o.checkReference(q, want, refMu); msg != "" {
			return msg
		}
		memo[q] = want
	}
	if out.tasks != want.tasks || out.makespan != want.makespan {
		return fmt.Sprintf("answer tasks=%d makespan=%d, oracle tasks=%d makespan=%d",
			out.tasks, out.makespan, want.tasks, want.makespan)
	}
	if q.sched || q.op == service.OpScheduleWithin {
		if msg := checkSchedule(out, want.tasks, want.makespan); msg != "" {
			return msg
		}
	}
	return ""
}

// checkReference compares a fresh oracle answer on a spider of at most
// 8 legs with the unmemoized reference solver, within the run's budget.
func (o *oracle) checkReference(q query, want answer, refMu *sync.Mutex) string {
	sp, ok := o.in.plats[q.plat].p.(repro.Spider)
	if !ok || sp.NumLegs() > 8 || q.n > 128 || q.op == service.OpScheduleWithin {
		return ""
	}
	refMu.Lock()
	use := o.refDone < refChecks
	if use {
		o.refDone++
	}
	refMu.Unlock()
	if !use {
		return ""
	}
	switch q.op {
	case service.OpMinMakespan:
		m, _, err := spider.ReferenceMinMakespan(sp, q.n)
		if err != nil || m != want.makespan {
			return fmt.Sprintf("reference makespan %d (err %v), oracle %d", m, err, want.makespan)
		}
	case service.OpMaxTasks:
		k, err := spider.ReferenceMaxTasks(sp, q.n, q.deadline)
		if err != nil || k != want.tasks {
			return fmt.Sprintf("reference tasks %d (err %v), oracle %d", k, err, want.tasks)
		}
	}
	return ""
}

// checkSchedule decodes the response's schedule, verifies it against
// the paper's feasibility conditions and compares its size and
// makespan with the oracle's.
func checkSchedule(out *outcome, tasks int, makespan platform.Time) string {
	ds, err := (&service.Response{Schedule: out.schedule}).DecodeSchedule()
	if err != nil {
		return err.Error()
	}
	var s interface {
		Len() int
		Makespan() platform.Time
		Verify() error
	}
	switch {
	case ds.Chain != nil:
		s = ds.Chain
	case ds.Spider != nil:
		s = ds.Spider
	default:
		return "schedule of unknown kind " + ds.Kind
	}
	if err := s.Verify(); err != nil {
		return "schedule fails verification: " + err.Error()
	}
	if s.Len() != tasks || s.Makespan() != makespan {
		return fmt.Sprintf("schedule len=%d makespan=%d, oracle len=%d makespan=%d",
			s.Len(), s.Makespan(), tasks, makespan)
	}
	return ""
}
