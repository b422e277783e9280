package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Synthetic marks a span rebuilt from response meta (solve_ns,
	// phase_ns): only its length was measured, so it is placed at the
	// end of its parent.
	Synthetic bool `json:"synthetic,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while on is set. Wrappers are
// installed for the whole traced run and check on at every request, so
// the same stack serves the untraced and the traced phase.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh set.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// Request ids and parent span ids cross HTTP hops in these headers,
// set by the benchmark's own RoundTripper and read by its middleware.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

type traceKey struct{}

// traceCtx rides the request context: the request id, the span that
// outgoing hops should name as parent, and (client side only) where to
// count response body bytes.
type traceCtx struct {
	req, parent uint64
	respBytes   *int64
}

func withTrace(ctx context.Context, tc *traceCtx) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// middleware records one span named name around every request h
// serves, parented on the span named in the request's headers, and
// hands its own span id on through the context so requests h sends
// (the router's forwards) name it as their parent. A nil recorder
// returns h unwrapped.
func (r *recorder) middleware(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseUint(req.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseUint(req.Header.Get(hdrParent), 10, 64)
		s := span{ID: r.newID(), Parent: parent, Req: id, Name: name, Start: r.now()}
		h.ServeHTTP(w, req.WithContext(withTrace(req.Context(), &traceCtx{req: id, parent: s.ID})))
		s.End = r.now()
		r.add(s)
	})
}

// transport stamps the context's request and parent ids onto outgoing
// requests and counts response body bytes for the client.
type transport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, _ := req.Context().Value(traceKey{}).(*traceCtx)
	if tc == nil || !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify its request
	req.Header.Set(hdrReq, strconv.FormatUint(tc.req, 10))
	req.Header.Set(hdrParent, strconv.FormatUint(tc.parent, 10))
	resp, err := t.base.RoundTrip(req)
	if err == nil && tc.respBytes != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: tc.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// selfNs is the part of parent's interval that none of kids covers.
// Children are clipped to the parent; overlapping and nested children
// count their covered time once.
func selfNs(parent span, kids []span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, end int64
	for i, v := range ivs {
		switch {
		case i == 0 || v.s >= end:
			covered += v.e - v.s
			end = v.e
		case v.e > end:
			covered += v.e - end
			end = v.e
		}
	}
	return parent.dur() - covered
}

// selfTimes groups every span's self time (its duration minus its
// direct children's coverage) by span name.
func selfTimes(spans []span) map[string][]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], selfNs(s, kids[s.ID]))
	}
	return out
}

// phaseOrder is the solve-path phase order of meta.cost.phase_ns.
var phaseOrder = []string{"construct", "dedup", "merge", "pack", "extract"}

// addSolveSpans turns each answered request's meta.solve_ns into a
// "solve" child of its handler span and meta.cost.phase_ns into
// "phase.*" children of that, laid end to end from the solve's start.
func addSolveSpans(rec *recorder, spans []span, outs []outcome) []span {
	handler := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == "handler" && s.Req != 0 {
			handler[s.Req] = s
		}
	}
	for _, o := range outs {
		h, ok := handler[o.req]
		if !ok || o.solveNs <= 0 {
			continue
		}
		sv := span{ID: rec.newID(), Parent: h.ID, Req: o.req, Name: "solve",
			Start: h.End - o.solveNs, End: h.End, Synthetic: true}
		spans = append(spans, sv)
		if o.cost == nil {
			continue
		}
		at := sv.Start
		for _, p := range phaseOrder {
			if ns := o.cost.PhaseNs[p]; ns > 0 {
				spans = append(spans, span{ID: rec.newID(), Parent: sv.ID, Req: o.req,
					Name: "phase." + p, Start: at, End: at + ns, Synthetic: true})
				at += ns
			}
		}
	}
	return spans
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints per-layer self time, one line per span name.
func printSelfTimes(w io.Writer, workload string, self map[string][]int64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		us := usOf(self[n])
		fmt.Fprintf(w, "self %s %-16s n=%-7d p50=%9.1fus p99=%9.1fus\n",
			workload, n, len(us), quantile(us, 0.5), quantile(us, 0.99))
	}
}
