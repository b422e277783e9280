// Command perfbench is the serving benchmark: it generates seeded
// inputs, starts the scheduling service in process on loopback
// listeners, drives it with two clients through the service client,
// checks every answer against an oracle, and prints one JSON result
// line last.
//
//	perfbench --workload warm-sweep --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints the per-layer metrics. The exit code is 0 only
// when every answer was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// clients is the closed-loop client count, one per core of the
// two-core machine the benchmark was defined on.
const clients = 2

// setupRepeats is how many times an untraced run sets up the stack;
// setup_s is the median. Set-up takes 30–200 ms, so single timings vary
// by a third between runs on a shared host.
const setupRepeats = 7

// rounds is how many closed-then-open rounds an untraced run measures.
const rounds = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // span dumps and scratch plan-cache directories
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "traffic mix: repeat-hot, warm-sweep, cold-churn or routed-mix")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run that prints per-layer metrics")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for span dumps and scratch plan caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := run(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func run(opt options, log io.Writer) (result, error) {
	wd, err := findWorkload(opt.workload)
	if err != nil {
		return result{}, err
	}
	in := wd.build(opt.seed, opt.seconds)
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(opt.out, wd.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{wd: wd, in: in, or: newOracle(in), opt: opt, tmp: tmp, log: log,
		res: result{Metrics: make(map[string]metricValue)}}
	if opt.trace {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return result{}, err
	}
	b.res.Correct = b.res.Failed == 0
	fmt.Fprintf(log, "check %s attempted=%d failed=%d fail_ratio=%g\n",
		wd.name, b.res.Attempted, b.res.Failed, ratio(float64(b.res.Failed), float64(b.res.Attempted)))
	return b.res, nil
}

// bench is one run's state.
type bench struct {
	wd  workloadDef
	in  *inputs
	or  *oracle
	opt options
	tmp string
	log io.Writer
	res result
}

func (b *bench) set(name string, v float64) {
	b.res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// phase returns a share of the run's measured seconds.
func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.opt.seconds * float64(time.Second))
}

// verify checks every group of outcomes against the oracle in one
// pass, counts them into the result and returns each outcome's failure
// ("" when correct), group by group.
func (b *bench) verify(groups ...[]outcome) [][]string {
	var all []outcome
	for _, g := range groups {
		all = append(all, g...)
	}
	bad := b.or.check(all)
	failed := countBad(bad)
	b.res.Attempted += len(all)
	b.res.Failed += failed
	for i, msg := range bad {
		if msg != "" {
			fmt.Fprintf(b.log, "check %s: %d of %d failed; first: %s: %+v\n", b.wd.name, failed, len(all), msg, all[i].q)
			break
		}
	}
	out := make([][]string, len(groups))
	for i, g := range groups {
		out[i], bad = bad[:len(g)], bad[len(g):]
	}
	return out
}

func countBad(bad []string) int {
	n := 0
	for _, msg := range bad {
		if msg != "" {
			n++
		}
	}
	return n
}

// setUp starts a stack and sends the workload's warm-up through it.
func (b *bench) setUp(rec *recorder) (*runner, []outcome, time.Duration, error) {
	sc := stackConfig{shards: b.in.shards, cacheSize: b.in.cacheSize, routed: b.in.routed}
	start := time.Now()
	st, err := startStack(sc, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	r := &runner{in: b.in, st: st, rec: rec}
	warm := r.sendAll(b.in.warmup, clients)
	return r, warm, time.Since(start), nil
}

// endToEnd is the untraced run: set-up, repeated, then rounds of a
// closed loop with two clients followed by an open loop at the
// workload's fixed rate.
func (b *bench) endToEnd() error {
	var r *runner
	var warm []outcome
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			r.st.close()
		}
		var d time.Duration
		var err error
		if r, warm, d, err = b.setUp(nil); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	// The measured time is split into rounds, each a closed loop then
	// an open loop; every metric is the median over rounds, so a CPU
	// stall on the shared host spoils one round, not the run. Answers
	// are checked after each round, outside the timed phases, so the
	// benchmark holds one round's answers at a time.
	b.verify(warm)
	var thr, cpu, p50, p99 []float64
	for j := 0; j < rounds; j++ {
		cpu0 := cpuTime()
		closed, elapsed := r.closedLoop(b.phase(0.35/rounds), clients)
		cpuUsed := cpuTime() - cpu0
		open, lat, lag, err := r.openLoop(b.phase(0.65/rounds), b.wd.rate)
		if err != nil {
			r.st.close()
			return err
		}
		bad := b.verify(closed, open)
		// A failed request misses every latency limit.
		for i, msg := range bad[1] {
			if msg != "" {
				lat[i] = math.MaxInt64
			}
		}
		latUs := usOf(lat)
		thr = append(thr, float64(len(closed)-countBad(bad[0]))/elapsed.Seconds())
		cpu = append(cpu, float64(cpuUsed.Microseconds())/float64(max(len(closed), 1)))
		p50 = append(p50, quantile(latUs, 0.5))
		p99 = append(p99, quantile(latUs, 0.99))
		fmt.Fprintf(b.log, "round %s %d: closed requests=%d elapsed=%.2fs; open rate=%.0f/s samples=%d beyond_p99=%d lag_p99=%.1fus\n",
			b.wd.name, j, len(closed), elapsed.Seconds(), b.wd.rate, len(latUs),
			len(latUs)-int(math.Ceil(0.99*float64(len(latUs)))), quantile(usOf(lag), 0.99))
		fmt.Fprintf(b.log, "round %s %d: throughput_rps=%.1f cpu_us_per_req=%.1f latency_p50_us=%.1f latency_p99_us=%.1f\n",
			b.wd.name, j, thr[j], cpu[j], p50[j], p99[j])
	}
	r.st.close()
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	b.set("throughput_rps", median(thr))
	b.set("latency_p50_us", median(p50))
	// The open-loop p99 is printed but not among the gated metrics: on
	// the shared two-core host, CPU stalls set it and it moved by more
	// than the largest allowed bound between runs. The traced run
	// reports it as loadgen.latency_p99_us.
	fmt.Fprintf(b.log, "e2e %s latency_p99_us=%.1f us (median of %d rounds, not gated)\n", b.wd.name, median(p99), rounds)
	b.set("cpu_us_per_req", median(cpu))
	b.set("rss_peak_mb", rss)
	b.set("setup_s", median(setups))
	b.printMetrics(endToEnd)
	return nil
}

func (b *bench) printMetrics(defs []metricDef) {
	for _, m := range defs {
		v := b.res.Metrics[m.name]
		fmt.Fprintf(b.log, "metric %s %s %g %s\n", b.wd.name, m.name, v.Value, v.Unit)
	}
}

// traced is the per-layer run: an untraced closed loop (process
// counters and the overhead baseline), a traced closed loop (spans,
// service counters, queue depth), a short open loop (generator lag),
// then the layer ladder on its own stacks.
func (b *bench) traced() error {
	rec := newRecorder()
	r, warm, _, err := b.setUp(rec)
	if err != nil {
		return err
	}
	defer r.st.close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced, elU := r.closedLoop(b.phase(0.3), clients)
	runtime.ReadMemStats(&ms1)
	nU := float64(max(len(untraced), 1))
	b.set("process.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/nU)
	b.set("process.alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/nU)
	b.set("process.gc_per_kreq", float64(ms1.NumGC-ms0.NumGC)*1000/nU)

	before, fw0, err := b.counters(r.st)
	if err != nil {
		return err
	}
	depth := sampleQueueDepth(r.st)
	rec.on.Store(true)
	tracedOuts, elT := r.closedLoop(b.phase(0.3), clients)
	rec.on.Store(false)
	b.set("service.queue_depth_max", float64(depth()))
	after, fw1, err := b.counters(r.st)
	if err != nil {
		return err
	}
	spans := addSolveSpans(rec, rec.take(), tracedOuts)

	open, lat, lag, err := r.openLoop(b.phase(0.2), b.wd.rate)
	if err != nil {
		return err
	}
	b.set("loadgen.lag_p99_us", quantile(usOf(lag), 0.99))
	b.set("trace.overhead_ratio", ratio(float64(len(untraced))/elU.Seconds(), float64(len(tracedOuts))/elT.Seconds()))

	lay, err := b.layers(rec)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	routerSelf, forwards := self["router"], fw1.sub(fw0)
	if !b.in.routed {
		routerSelf, forwards = selfTimes(lay.routerSpans)["router"], lay.forwards
	}
	b.set("service.handler_self_us_p50", quantile(usOf(self["handler"]), 0.5))
	b.set("service.handler_self_us_p99", quantile(usOf(self["handler"]), 0.99))
	b.set("client.self_us_p50", quantile(usOf(self["client"]), 0.5))
	b.set("cluster.self_us_p50", quantile(usOf(routerSelf), 0.5))
	b.set("cluster.self_us_p99", quantile(usOf(routerSelf), 0.99))
	b.set("cluster.forwards", forwards.total())
	b.set("cluster.failovers", forwards.failovers)
	b.set("cluster.owner_share_max", forwards.maxShare())
	var respBytes int64
	for _, o := range tracedOuts {
		respBytes += o.respBytes
	}
	b.set("client.resp_bytes_mean", float64(respBytes)/float64(max(len(tracedOuts), 1)))

	issued := float64(len(tracedOuts))
	d := subStats(after, before)
	b.set("service.memo_hit_ratio", ratio(float64(d.MemoHits), issued))
	b.set("service.cache_hit_ratio", ratio(float64(d.Hits), float64(d.Hits+d.Misses)))
	b.set("service.coalesced_ratio", ratio(float64(d.Coalesced), issued))
	b.set("service.constructions", float64(d.Constructions))
	b.set("service.evictions", float64(d.Evictions))
	b.solveCosts(append(tracedOuts, lay.serviceOuts...))

	b.set("plancache.get_us_p50", median(storeGets(lay.store, b.in)))

	bad := b.verify(warm, untraced, tracedOuts, open, lay.checked)
	// A failed request misses every latency limit.
	for i, msg := range bad[3] {
		if msg != "" {
			lat[i] = math.MaxInt64
		}
	}
	b.set("loadgen.latency_p99_us", quantile(usOf(lat), 0.99))
	fmt.Fprintf(b.log, "open %s: rate=%.0f/s samples=%d latency_p99_us=%.1f\n", b.wd.name, b.wd.rate, len(lat), b.res.Metrics["loadgen.latency_p99_us"].Value)

	printSelfTimes(b.log, b.wd.name, self)
	path := filepath.Join(b.opt.out, fmt.Sprintf("spans-%s-%d.jsonl", b.wd.name, b.opt.seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "spans %s %d written to %s\n", b.wd.name, len(spans), path)
	b.printMetrics(perLayer)
	return nil
}

// solveCosts averages the solver work the service reported in
// meta.cost and meta.solve_ns over every request that ran a solve.
func (b *bench) solveCosts(outs []outcome) {
	var solved, misses, constructed, probes, pack, rewind float64
	phase := make(map[string]float64)
	var solveNs []int64
	for _, o := range outs {
		if o.err != nil || o.memo || o.coalesced || o.cost == nil {
			continue
		}
		solved++
		solveNs = append(solveNs, o.solveNs)
		probes += float64(o.cost.Probes)
		pack += float64(o.cost.PackProbes)
		rewind += float64(o.cost.RewindHits)
		if o.cache == "miss" {
			misses++
			constructed += float64(o.cost.Constructed)
		}
		for p, ns := range o.cost.PhaseNs {
			phase[p] += float64(ns)
		}
	}
	b.set("spider.probes_per_solve", ratio(probes, solved))
	b.set("spider.pack_probes_per_solve", ratio(pack, solved))
	b.set("fork.rewind_hit_ratio", ratio(rewind, probes))
	b.set("core.constructed_per_miss", ratio(constructed, misses))
	for _, p := range phaseOrder {
		b.set("solver.phase_"+p+"_us_mean", ratio(phase[p]/1e3, solved))
	}
	b.set("service.solve_us_p50", quantile(usOf(solveNs), 0.5))
	b.set("service.solve_us_p99", quantile(usOf(solveNs), 0.99))
	fmt.Fprintf(b.log, "solves %s %d requests ran the solver\n", b.wd.name, int(solved))
}

// routerCounters are the router's forward and failover counters.
type routerCounters struct {
	forwards  map[string]float64
	failovers float64
}

func (c routerCounters) sub(o routerCounters) routerCounters {
	out := routerCounters{forwards: make(map[string]float64), failovers: c.failovers - o.failovers}
	for k, v := range c.forwards {
		out.forwards[k] = v - o.forwards[k]
	}
	return out
}

func (c routerCounters) total() float64 {
	t := 0.0
	for _, v := range c.forwards {
		t += v
	}
	return t
}

func (c routerCounters) maxShare() float64 {
	m := 0.0
	for _, v := range c.forwards {
		m = max(m, v)
	}
	return ratio(m, c.total())
}

// counters snapshots the shards' counters and, behind a router, the
// router's own from its /metrics exposition.
func (b *bench) counters(st *stack) (service.Stats, routerCounters, error) {
	s := st.stats()
	if !b.in.routed {
		return s, routerCounters{}, nil
	}
	rc, err := scrapeRouter(st.base)
	return s, rc, err
}

func scrapeRouter(base string) (routerCounters, error) {
	resp, err := newHTTPClient().Get(base + "/metrics")
	if err != nil {
		return routerCounters{}, fmt.Errorf("scraping the router: %w", err)
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return routerCounters{}, fmt.Errorf("parsing the router exposition: %w", err)
	}
	rc := routerCounters{forwards: make(map[string]float64)}
	for _, s := range exp.Find("repro_router_forwards_total") {
		rc.forwards[s.Labels["shard"]] = s.Value
	}
	for _, s := range exp.Find("repro_router_failovers_total") {
		rc.failovers += s.Value
	}
	return rc, nil
}
