package main

import (
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
)

// stack is the service under test, in process on loopback listeners:
// one or more service shards, optionally a cluster.Router in front, and
// the client the load generator drives.
type stack struct {
	svcs   []*service.Service
	shards []string // shard base URLs
	base   string   // URL the client targets: the router, or the only shard
	cl     *client.Client

	servers    []*http.Server
	transports []*http.Transport
	wg         sync.WaitGroup
}

type stackConfig struct {
	shards, cacheSize int
	routed            bool
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     time.Minute,
	}
}

// startStack starts the stack. A non-nil recorder wraps every handler
// in span middleware and every outgoing transport in id propagation.
func startStack(sc stackConfig, rec *recorder) (*stack, error) {
	st := &stack{}
	for k := 0; k < sc.shards; k++ {
		svc := service.New(service.Config{
			CacheSize: sc.cacheSize,
			// The open loop may queue more than the default 16 per
			// worker behind a slow construction; a shed would be a
			// failed request, and this benchmark measures answers.
			QueueMax: 1 << 12,
			SlowLog:  io.Discard,
		})
		st.svcs = append(st.svcs, svc)
		addr, err := st.serve(rec.middleware("handler", svc.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, addr)
	}
	st.base = st.shards[0]
	if sc.routed {
		rt, err := cluster.NewRouter(st.shards, cluster.DefaultVnodes, &http.Client{Transport: st.transport(rec)})
		if err != nil {
			st.close()
			return nil, err
		}
		if st.base, err = st.serve(rec.middleware("router", rt.Handler())); err != nil {
			st.close()
			return nil, err
		}
	}
	st.cl = client.New(st.base, &http.Client{Transport: st.transport(rec)})
	return st, nil
}

func (st *stack) transport(rec *recorder) http.RoundTripper {
	t := newTransport()
	st.transports = append(st.transports, t)
	if rec == nil {
		return t
	}
	return &transport{rec: rec, base: t}
}

func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		// Serve returns ErrServerClosed on close; any other failure
		// shows up as failed requests.
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for their goroutines.
func (st *stack) close() {
	for _, srv := range st.servers {
		_ = srv.Close() // closing listeners and connections; nothing to report
	}
	st.wg.Wait()
	for _, t := range st.transports {
		t.CloseIdleConnections()
	}
}

// stats sums the shards' counters that the traced run reports.
func (st *stack) stats() service.Stats {
	var sum service.Stats
	for _, svc := range st.svcs {
		s := svc.Stats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Coalesced += s.Coalesced
		sum.MemoHits += s.MemoHits
		sum.Constructions += s.Constructions
		sum.Evictions += s.Evictions
	}
	return sum
}
