package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/platform"
	"repro/internal/service"
)

// outcome is one request's answer as the client saw it, kept until the
// oracle checks it after the timed phases.
type outcome struct {
	q        query
	err      error // transport error or non-200 answer
	degraded bool
	tasks    int
	makespan platform.Time
	schedule json.RawMessage

	memo, coalesced bool
	cache           string
	solveNs         int64
	cost            *service.Cost

	req       uint64 // trace request id; 0 when untraced
	respBytes int64
}

// runner sends requests through one stack. seq numbers every request of
// the run, so each phase draws requests no earlier phase sent.
type runner struct {
	in  *inputs
	st  *stack
	rec *recorder
	seq atomic.Uint64
}

// do sends one request. With tracing on it records the client span and
// sends the request id along.
func (r *runner) do(q query) outcome {
	req := r.in.request(q)
	o := outcome{q: q}
	ctx := context.Background()
	var cs span
	traced := r.rec != nil && r.rec.on.Load()
	if traced {
		o.req = r.rec.newID()
		cs = span{ID: r.rec.newID(), Req: o.req, Name: "client", Start: r.rec.now()}
		ctx = withTrace(ctx, &traceCtx{req: o.req, parent: cs.ID, respBytes: &o.respBytes})
	}
	resp, err := r.st.cl.Do(ctx, req)
	if traced {
		cs.End = r.rec.now()
		r.rec.add(cs)
	}
	o.fill(resp, err)
	return o
}

// fill records an answer or the error that replaced it.
func (o *outcome) fill(resp *service.Response, err error) {
	if err != nil {
		o.err = err
		return
	}
	o.degraded, o.tasks, o.makespan, o.schedule = resp.Degraded, resp.Tasks, resp.Makespan, resp.Schedule
	o.memo, o.coalesced, o.cache = resp.Meta.Memo, resp.Meta.Coalesced, resp.Meta.Cache
	o.solveNs, o.cost = resp.Meta.SolveNs, resp.Meta.Cost
}

// sendAll sends qs from the given number of concurrent clients.
func (r *runner) sendAll(qs []query, clients int) []outcome {
	outs := make([]outcome, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(qs)); i = next.Add(1) - 1 {
				outs[i] = r.do(qs[i])
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop runs clients that each send their next request as soon as
// the previous one is answered, until d has passed. elapsed runs to the
// last answer.
func (r *runner) closedLoop(d time.Duration, clients int) (outs []outcome, elapsed time.Duration) {
	per := make([][]outcome, clients)
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				per[c] = append(per[c], r.do(r.in.draw(r.seq.Add(1)-1)))
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// maxOutstanding bounds the open loop's in-flight requests. It sits far
// above what the fixed rates need; reaching it delays the sender, which
// shows as generator lag.
const maxOutstanding = 512

// timerSlack is the kernel's default timer slack: a timer fires up to
// this much late, so the sender asks to wake this much early.
const timerSlack = 50 * time.Microsecond

// sleeper blocks the open-loop sender on a timerfd read. The read parks
// in the runtime's network poller, so the sleeping sender holds no P,
// and the poller wakes on the fd at the kernel timer's precision. The
// runtime's own timers wake on a millisecond grid on some kernels,
// longer than a repeat-hot answer takes.
type sleeper struct {
	f  *os.File
	fd uintptr
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (s *sleeper) sleep(d time.Duration) error {
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { _ = s.f.Close() } // read-only use; nothing to flush

// openLoop sends at a fixed rate for d, whatever the answers do. Each
// latency runs from the request's due time, so a stall also charges the
// requests queued behind it; lag is how late the sender ran.
func (r *runner) openLoop(d time.Duration, rate float64) (outs []outcome, lat, lag []int64, err error) {
	sl, err := newSleeper()
	if err != nil {
		return nil, nil, nil, err
	}
	defer sl.close()
	count := int(d.Seconds() * rate)
	outs = make([]outcome, count)
	lat = make([]int64, count)
	lag = make([]int64, count)
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due) - timerSlack; wait > 0 {
			if err := sl.sleep(wait); err != nil {
				wg.Wait()
				return nil, nil, nil, err
			}
		}
		sem <- struct{}{}
		lag[k] = int64(time.Since(due))
		q := r.in.draw(r.seq.Add(1) - 1)
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			outs[k] = r.do(q)
			lat[k] = int64(time.Since(due))
			<-sem
		}(k, due)
	}
	wg.Wait()
	return outs, lat, lag, nil
}
