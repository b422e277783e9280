package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/service/client"
)

// ladderSamples is how many fresh draws each ladder rung times.
const ladderSamples = 300

// layerResults is what the layer measurements hand back to the traced
// run besides the metrics they set.
type layerResults struct {
	routerSpans []span           // router-rung spans, for cluster self time
	forwards    routerCounters   // the ladder router's counters
	serviceOuts []outcome        // in-process Service.Solve answers that ran a solve
	checked     []outcome        // every ladder answer the service gave, for the oracle
	store       *plancache.Store // the plan cache behind the cold calls
}

// freshDraws hands out queries that no earlier draw of this run used,
// so a warm miss stays a miss at every rung.
type freshDraws struct {
	seed int64
	k    uint64
	seen map[query]bool
}

func (f *freshDraws) next(draw func(s *stream) query) query {
	for {
		f.k++
		if q := draw(newStream(f.seed, 20, f.k)); !f.seen[q] {
			f.seen[q] = true
			return q
		}
	}
}

// scalar draws a fresh scalar query of the workload's mix on p.
func (f *freshDraws) scalar(in *inputs, p int32) query {
	return f.next(func(s *stream) query { return in.scalar(s, p) })
}

// maxTasks draws a fresh max_tasks query on p at the middle of the
// workload's task range: every ladder rung times the same kind of warm
// miss, differing only in its deadline.
func (f *freshDraws) maxTasks(in *inputs, p int32) query {
	n := (in.nLo + in.nHi) / 2
	return f.next(func(s *stream) query {
		return query{plat: p, op: service.OpMaxTasks, n: n, deadline: s.deadline(in.plats[p], n)}
	})
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// layers times each layer's public functions on the workload's
// platforms, then runs the ladder: fresh max_tasks queries through the
// solver, Service.Solve, the HTTP handler on a recorder, loopback HTTP
// and the router, interleaved draw by draw.
func (b *bench) layers(rec *recorder) (layerResults, error) {
	var lr layerResults
	in := b.in
	fresh := &freshDraws{seed: b.opt.seed, seen: make(map[query]bool)}
	b.platformLayer()
	solvers, err := b.solverLayer(fresh)
	if err != nil {
		return lr, err
	}

	st, err := startStack(stackConfig{shards: 1, cacheSize: 64, routed: true}, rec)
	if err != nil {
		return lr, err
	}
	defer st.close()
	svc, handler := st.svcs[0], st.svcs[0].Handler()
	direct := client.New(st.shards[0], &http.Client{Transport: st.transport(rec)})
	ctx := context.Background()
	for _, p := range in.ladderWarm {
		q := query{plat: p, op: service.OpMinMakespan, n: in.nHi}
		if _, err := svc.Solve(ctx, in.request(q)); err != nil {
			return lr, fmt.Errorf("growing the ladder service's plans: %w", err)
		}
	}

	var rung [5][]float64 // solver, service, handler, loopback, router
	var memo []float64
	answer := func(q query, resp *service.Response, err error) outcome {
		o := outcome{q: q}
		o.fill(resp, err)
		lr.checked = append(lr.checked, o)
		return o
	}
	// Each rung sends its own fresh query and times only its own call;
	// the rung order rotates from draw to draw so no rung always follows
	// another on the same warm solver.
	timed := func(call func()) float64 {
		t := time.Now()
		call()
		return since(t)
	}
	steps := [5]func(q query) (float64, error){
		func(q query) (float64, error) {
			var err error
			d := timed(func() { _, err = answerOf(solvers[q.plat], q) })
			return d, err
		},
		func(q query) (float64, error) {
			req := in.request(q)
			var resp *service.Response
			var err error
			d := timed(func() { resp, err = svc.Solve(ctx, req) })
			if o := answer(q, resp, err); o.err == nil && !o.memo {
				lr.serviceOuts = append(lr.serviceOuts, o)
			}
			return d, nil
		},
		func(q query) (float64, error) {
			body, err := json.Marshal(in.request(q))
			if err != nil {
				return 0, err
			}
			w := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
			d := timed(func() { handler.ServeHTTP(w, hreq) })
			resp, err := decodeRecorded(w)
			answer(q, resp, err)
			return d, nil
		},
		func(q query) (float64, error) {
			req := in.request(q)
			var resp *service.Response
			var err error
			d := timed(func() { resp, err = direct.Do(ctx, req) })
			answer(q, resp, err)
			return d, nil
		},
		func(q query) (float64, error) {
			req := in.request(q)
			tctx := withTrace(ctx, &traceCtx{req: rec.newID()})
			var resp *service.Response
			var err error
			rec.on.Store(true)
			d := timed(func() { resp, err = st.cl.Do(tctx, req) })
			rec.on.Store(false)
			answer(q, resp, err)
			return d, nil
		},
	}
	for k := 0; k < ladderSamples; k++ {
		p := in.ladderWarm[k%len(in.ladderWarm)]
		for j := range steps {
			r := (j + k) % len(steps)
			d, err := steps[r](fresh.maxTasks(in, p))
			if err != nil {
				return lr, fmt.Errorf("ladder rung %d: %w", r, err)
			}
			rung[r] = append(rung[r], d)
		}
		// The memo path: repeat an answered query.
		q := fresh.maxTasks(in, p)
		req := in.request(q)
		resp, err := svc.Solve(ctx, req)
		answer(q, resp, err)
		d := timed(func() { resp, err = svc.Solve(ctx, req) })
		if answer(q, resp, err); err == nil && resp.Meta.Memo {
			memo = append(memo, d)
		}
	}
	lr.routerSpans = rec.take()
	if lr.forwards, err = scrapeRouter(st.base); err != nil {
		return lr, err
	}
	meds := []float64{median(rung[0]), median(rung[1]), median(rung[2]), median(rung[3]), median(rung[4])}
	b.set("ladder.solver_us_p50", meds[0])
	b.set("service.call_warm_us_p50", meds[1])
	b.set("ladder.handler_us_p50", meds[2])
	b.set("ladder.loopback_us_p50", meds[3])
	b.set("ladder.router_us_p50", meds[4])
	b.set("service.call_memo_us_p50", median(memo))
	rising := true
	for i := 1; i < len(meds); i++ {
		rising = rising && meds[i] > meds[i-1]
	}
	fmt.Fprintf(b.log, "ladder %s solver=%.1fus service=%.1fus handler=%.1fus loopback=%.1fus router=%.1fus rising=%t\n",
		b.wd.name, meds[0], meds[1], meds[2], meds[3], meds[4], rising)

	if err := b.coldLayer(fresh, &lr); err != nil {
		return lr, err
	}
	return lr, nil
}

// decodeRecorded reads a recorded /solve answer the way the client
// would.
func decodeRecorded(w *httptest.ResponseRecorder) (*service.Response, error) {
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("handler answered %d: %s", w.Code, w.Body.Bytes())
	}
	var resp service.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// platformLayer times platform.Read and Decoded.Hash on the request
// bytes of the workload's warm platforms.
func (b *bench) platformLayer() {
	const reps = 300
	var read, hash []float64
	for k := 0; k < reps; k++ {
		body := b.in.plats[b.in.ladderWarm[k%len(b.in.ladderWarm)]].body
		t := time.Now()
		dec, err := platform.Read(bytes.NewReader(body))
		read = append(read, since(t))
		if err != nil {
			continue // generated platforms decode; a failure would show in every answer
		}
		t = time.Now()
		_ = dec.Hash()
		hash = append(hash, since(t))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := 0; k < reps; k++ {
		_, _ = platform.Read(bytes.NewReader(b.in.plats[b.in.ladderWarm[k%len(b.in.ladderWarm)]].body))
	}
	runtime.ReadMemStats(&ms1)
	b.set("platform.read_us_p50", median(read))
	b.set("platform.hash_us_p50", median(hash))
	b.set("platform.read_allocs", float64(ms1.Mallocs-ms0.Mallocs)/reps)
}

// solverLayer times the repro facade: each query kind on warm solvers
// grown like the service's, and NewSolver plus a first query on
// never-seen platforms. It returns the warm solvers for the ladder.
func (b *bench) solverLayer(fresh *freshDraws) (map[int32]repro.Solver, error) {
	in := b.in
	solvers := make(map[int32]repro.Solver)
	for _, p := range in.ladderWarm {
		s, err := repro.NewSolver(in.plats[p].p)
		if err != nil {
			return nil, err
		}
		if _, _, err := s.MinMakespan(in.nHi); err != nil {
			return nil, err
		}
		solvers[p] = s
	}
	const reps = 100
	var mm, mt, sw []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := 0; k < reps; k++ {
		p := in.ladderWarm[k%len(in.ladderWarm)]
		s := solvers[p]
		r := newStream(b.opt.seed, 21, uint64(k))
		n := r.between(in.nLo, in.nHi)
		d := r.deadline(in.plats[p], n)
		t := time.Now()
		_, _, err1 := s.MinMakespan(n)
		mm = append(mm, since(t))
		t = time.Now()
		_, err2 := s.MaxTasks(n, d)
		mt = append(mt, since(t))
		t = time.Now()
		_, err3 := s.ScheduleWithin(n, d)
		sw = append(sw, since(t))
		for _, err := range []error{err1, err2, err3} {
			if err != nil {
				return nil, fmt.Errorf("solver layer: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	b.set("solver.min_makespan_us_p50", median(mm))
	b.set("solver.max_tasks_us_p50", median(mt))
	b.set("solver.schedule_within_us_p50", median(sw))
	b.set("solver.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/(3*reps))

	var build []float64
	for _, p := range in.ladderCold {
		q := fresh.scalar(in, p)
		t := time.Now()
		s, err := repro.NewSolver(in.plats[p].p)
		if err == nil {
			_, _, err = s.MinMakespan(q.n)
		}
		if err != nil {
			return nil, fmt.Errorf("solver layer: %w", err)
		}
		build = append(build, since(t)/1e3)
	}
	b.set("solver.new_ms_p50", median(build))
	return solvers, nil
}

// coldLayer times in-process Service.Solve on never-seen platforms
// (cold construction) and, through a 4-entry cache with a plan cache,
// on platforms evicted five constructions earlier (rehydrate).
func (b *bench) coldLayer(fresh *freshDraws, lr *layerResults) error {
	store, err := plancache.Open(filepath.Join(b.tmp, "ladder-plans"))
	if err != nil {
		return err
	}
	lr.store = store
	svc := service.New(service.Config{CacheSize: 4, PlanCache: store, SlowLog: io.Discard})
	ctx := context.Background()
	var cold, rehydrate []float64
	call := func(p int32) (float64, service.Stats, error) {
		q := fresh.scalar(b.in, p)
		t := time.Now()
		resp, err := svc.Solve(ctx, b.in.request(q))
		d := since(t)
		o := outcome{q: q}
		o.fill(resp, err)
		lr.checked = append(lr.checked, o)
		if err == nil && !o.memo {
			lr.serviceOuts = append(lr.serviceOuts, o)
		}
		return d, svc.Stats(), err
	}
	const back = 5
	for k, p := range b.in.ladderCold {
		before := svc.Stats()
		d, after, err := call(p)
		if err != nil {
			return fmt.Errorf("cold service call: %w", err)
		}
		if after.Constructions == before.Constructions+1 {
			cold = append(cold, d)
		}
		if k < back {
			continue
		}
		d, again, err := call(b.in.ladderCold[k-back])
		if err != nil {
			return fmt.Errorf("rehydrate service call: %w", err)
		}
		if again.Rehydrates == after.Rehydrates+1 {
			rehydrate = append(rehydrate, d)
		}
	}
	b.set("service.call_cold_us_p50", median(cold))
	b.set("service.call_rehydrate_us_p50", median(rehydrate))
	st := svc.Stats()
	b.set("plancache.rehydrate_ratio", ratio(float64(st.Rehydrates), float64(st.Rehydrates+st.Constructions)))
	b.set("plancache.spilled_legs", float64(st.SpilledLegs))
	b.set("plancache.rehydrated_legs", float64(st.RehydratedLegs))
	return nil
}

// storeGets times plancache Store.Get on every spilled LegKey of the
// run's spider platforms, up to a cap.
func storeGets(store *plancache.Store, in *inputs) []float64 {
	const maxSamples = 300
	var out []float64
	seen := make(map[string]bool)
	for _, pl := range in.plats {
		sp, ok := pl.p.(repro.Spider)
		if !ok {
			continue
		}
		for _, leg := range sp.Legs {
			key := platform.LegKey(leg)
			if seen[key] || len(out) >= maxSamples {
				continue
			}
			seen[key] = true
			t := time.Now()
			tasks, err := store.Get(key)
			d := since(t)
			if err == nil && len(tasks) > 0 {
				out = append(out, d)
			}
		}
	}
	return out
}

// sampleQueueDepth polls the shards' admission queue depth until the
// returned stop function is called; stop returns the deepest seen.
func sampleQueueDepth(st *stack) (stop func() int64) {
	quit := make(chan struct{})
	done := make(chan int64)
	go func() {
		var deepest int64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, svc := range st.svcs {
				deepest = max(deepest, svc.Stats().QueueDepth)
			}
			select {
			case <-quit:
				done <- deepest
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-done
	}
}

// subStats is a - b for the counters the traced run reports.
func subStats(a, b service.Stats) service.Stats {
	return service.Stats{
		Hits:          a.Hits - b.Hits,
		Misses:        a.Misses - b.Misses,
		Coalesced:     a.Coalesced - b.Coalesced,
		MemoHits:      a.MemoHits - b.MemoHits,
		Constructions: a.Constructions - b.Constructions,
		Evictions:     a.Evictions - b.Evictions,
	}
}

// newHTTPClient is for one-off scrapes: it keeps no idle connections.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Minute}
}
