package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/platform"
	"repro/internal/spider"
)

// TestWaiterOutlivesDeadLeader: a request waiting on another's work —
// a flight joiner sharing its query, or a build waiter sharing its
// platform — must not inherit that leader's death by the leader's own
// deadline. The live waiter re-enters, builds once under its own
// context and answers exactly; the dead leader counts the one timeout,
// and each request counts one miss.
func TestWaiterOutlivesDeadLeader(t *testing.T) {
	sp := testSpider()
	const n = 40
	for _, tc := range []struct {
		name  string
		liveN int
		// joined is the stat that shows the live request waiting on the
		// leader, and the value it reaches.
		joined string
		want   int
	}{
		{name: "flight joiner", liveN: n, joined: "coalesced", want: 1},
		{name: "build waiter", liveN: n + 1, joined: "misses", want: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The hook holds the leader's build until the live request
			// waits on it; the one-shot construction stall then outlasts
			// the leader's 50ms timeout, so the leader dies of its own
			// deadline without a sleep in the test.
			svc := New(Config{
				Faults: faultinject.New(faultinject.Rule{Site: faultinject.SiteConstruct, DelayMs: 5000, Times: 1}),
			})
			entered := make(chan struct{})
			release := make(chan struct{})
			first := true
			svc.SetBuildHookForTest(func() {
				if first {
					first = false
					close(entered)
					<-release
				}
			})

			post := func(req *Request) *httptest.ResponseRecorder {
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return nil
				}
				rec := httptest.NewRecorder()
				svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
				return rec
			}
			leaderReq := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
			leaderReq.TimeoutMs = 50
			leaderDone := make(chan *httptest.ResponseRecorder)
			go func() { leaderDone <- post(leaderReq) }()
			<-entered

			liveReq := mustSpiderRequest(t, sp, OpMinMakespan, tc.liveN, 0)
			liveDone := make(chan *httptest.ResponseRecorder)
			go func() { liveDone <- post(liveReq) }()
			waitForStat(t, svc, tc.joined, tc.want)
			close(release)

			if rec := <-leaderDone; rec.Code != http.StatusGatewayTimeout {
				t.Errorf("leader status %d, want 504: %s", rec.Code, rec.Body)
			}
			rec := <-liveDone
			if rec.Code != http.StatusOK {
				t.Fatalf("live request status %d, want 200: %s", rec.Code, rec.Body)
			}
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			wantMk, _, err := spider.MinMakespan(sp, tc.liveN)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Makespan != wantMk || resp.Tasks != tc.liveN {
				t.Errorf("live answer makespan %d tasks %d, want %d and %d", resp.Makespan, resp.Tasks, wantMk, tc.liveN)
			}
			st := svc.Stats()
			if st.Timeouts != 1 || st.Misses != 2 || st.Constructions != 1 {
				t.Errorf("timeouts %d misses %d constructions %d, want 1, 2 and 1", st.Timeouts, st.Misses, st.Constructions)
			}
		})
	}
}

// TestReenteringJoinersShareOneBuild: when several live joiners outlive
// a leader that timed out, they re-enter together and share one solve
// and one construction instead of each rebuilding.
func TestReenteringJoinersShareOneBuild(t *testing.T) {
	const live, n = 4, 30
	sp := testSpider()
	svc := New(Config{
		Faults: faultinject.New(faultinject.Rule{Site: faultinject.SiteConstruct, DelayMs: 5000, Times: 1}),
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	first := true
	svc.SetBuildHookForTest(func() {
		if first {
			first = false
			close(entered)
			<-release
		}
	})
	leaderReq := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	leaderReq.TimeoutMs = 50
	leaderErr := make(chan error)
	go func() {
		_, err := svc.Solve(context.Background(), leaderReq)
		leaderErr <- err
	}()
	<-entered

	liveReq := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	var wg sync.WaitGroup
	resps := make([]*Response, live)
	errs := make([]error, live)
	for i := 0; i < live; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Solve(context.Background(), liveReq)
		}(i)
	}
	waitForStat(t, svc, "coalesced", live)
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("leader: %v, want deadline exceeded", err)
	}
	wg.Wait()

	wantMk, _, err := spider.MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < live; i++ {
		if errs[i] != nil {
			t.Fatalf("joiner %d: %v", i, errs[i])
		}
		if resps[i].Makespan != wantMk {
			t.Errorf("joiner %d makespan %d, want %d", i, resps[i].Makespan, wantMk)
		}
	}
	if st := svc.Stats(); st.Constructions != 1 || st.Timeouts != 1 {
		t.Errorf("constructions %d timeouts %d, want 1 and 1", st.Constructions, st.Timeouts)
	}
}

// TestMemoHitAllocBudget pins the in-process cost of an exact scalar
// repeat — the memo hit that dominates repeat-heavy traffic — at the
// allocation count of the pipeline before it was split into stages,
// so no stage can add cost to that path unnoticed.
func TestMemoHitAllocBudget(t *testing.T) {
	const budget = 59
	svc := New(Config{})
	for _, op := range []Op{OpMinMakespan, OpMaxTasks} {
		req := mustSpiderRequest(t, testSpider(), op, 40, 60)
		for i := 0; i < 2; i++ {
			if _, err := svc.Solve(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		var resp *Response
		allocs := testing.AllocsPerRun(100, func() {
			resp, _ = svc.Solve(context.Background(), req)
		})
		if resp == nil || !resp.Meta.Memo {
			t.Fatalf("%s: repeat was not a memo hit: %+v", op, resp)
		}
		if allocs > budget {
			t.Errorf("%s memo hit: %.0f allocs/op, budget %d", op, allocs, budget)
		}
		t.Logf("%s memo hit: %.0f allocs/op", op, allocs)
	}
}

// FuzzParse feeds arbitrary /solve bodies through the request decoder
// and parse: parse never panics, rejects every platform whose horizon
// overflows for the requested task count, and keys every query it
// accepts by the fingerprint platform.Read gives the same bytes.
func FuzzParse(f *testing.F) {
	g := platform.MustGenerator(5, 1, 9, platform.Bimodal)
	for _, build := range []func() (*Request, error){
		func() (*Request, error) { return NewChainRequest(g.Chain(3), OpMinMakespan, 7, 0) },
		func() (*Request, error) { return NewSpiderRequest(g.Spider(3, 2), OpMaxTasks, 9, 40) },
		func() (*Request, error) { return NewForkRequest(g.Fork(4), OpScheduleWithin, 5, 30) },
		func() (*Request, error) { return NewTreeRequest(g.Tree(2, 2), OpMinMakespan, 6, 0) },
	} {
		req, err := build()
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"platform":{"kind":"chain","chain":{"nodes":[{"c":1,"w":4611686018427387904}]}},"op":"min_makespan","n":3}`))
	f.Add([]byte(`{"platform":{"kind":"spider","spider":{"legs":[]}},"op":"max_tasks","n":1,"deadline":-1}`))
	f.Add([]byte(`{"op":"min_makespan","n":1}`))
	svc := New(Config{MaxN: 1 << 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) != nil {
			return
		}
		q, err := svc.parse(&req)
		dec, readErr := platform.Read(bytes.NewReader(req.Platform))
		if readErr == nil && decodedHorizon(dec, max(req.N, 1)) != nil && err == nil {
			t.Fatalf("parse accepted a platform whose horizon overflows at n=%d", req.N)
		}
		if err != nil {
			return
		}
		if readErr != nil {
			t.Fatalf("parse accepted a platform platform.Read rejects: %v", readErr)
		}
		if q.key.hash != dec.Hash() {
			t.Fatalf("cache key hash %v, platform.Read gives %v", q.key.hash, dec.Hash())
		}
	})
}

// decodedHorizon is the overflow check of whichever platform dec holds.
func decodedHorizon(dec platform.Decoded, n int) error {
	switch {
	case dec.Chain != nil:
		return dec.Chain.CheckHorizon(n)
	case dec.Spider != nil:
		return dec.Spider.CheckHorizon(n)
	case dec.Fork != nil:
		return dec.Fork.Spider().CheckHorizon(n)
	default:
		return dec.Tree.CheckHorizon(n)
	}
}
