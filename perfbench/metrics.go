package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step); moves records,
// before any optimisation is measured, which end-to-end metric a change
// in this layer metric should move and on which workload.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd is what a user of the service sees, printed by every
// untraced run. fail_ratio is not among them: it is zero on every run
// the benchmark accepts, so it travels as the result line's failed
// count and a printed line instead. Nor is the open-loop p99, which
// host CPU stalls set on a shared two-core machine; the traced run
// reports it as loadgen.latency_p99_us.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "latency_p50_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_req", unit: "us", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is printed by every traced run; names are shared across
// workloads.
var perLayer = []metricDef{
	{"platform.read_us_p50", "us", "lower", "latency_p50_us and cpu_us_per_req on repeat-hot; no change on cold-churn"},
	{"platform.hash_us_p50", "us", "lower", "latency_p50_us and cpu_us_per_req on repeat-hot; no change on cold-churn"},
	{"platform.read_allocs", "count", "lower", "latency_p50_us and cpu_us_per_req on repeat-hot; no change on cold-churn"},

	{"solver.min_makespan_us_p50", "us", "lower", "throughput_rps and latency_p50_us on warm-sweep; no change on repeat-hot"},
	{"solver.max_tasks_us_p50", "us", "lower", "throughput_rps and latency_p50_us on warm-sweep; no change on repeat-hot"},
	{"solver.schedule_within_us_p50", "us", "lower", "throughput_rps and latency_p50_us on warm-sweep; no change on repeat-hot"},
	{"solver.new_ms_p50", "ms", "lower", "throughput_rps and loadgen.latency_p99_us on cold-churn; no change on repeat-hot"},
	{"solver.allocs_per_query", "count", "lower", "throughput_rps and latency_p50_us on warm-sweep; no change on repeat-hot"},

	{"spider.probes_per_solve", "count", "lower", "throughput_rps on warm-sweep"},
	{"spider.pack_probes_per_solve", "count", "lower", "throughput_rps on warm-sweep"},
	{"fork.rewind_hit_ratio", "ratio", "higher", "throughput_rps on warm-sweep"},
	{"core.constructed_per_miss", "count", "lower", "throughput_rps and loadgen.latency_p99_us on cold-churn"},
	{"solver.phase_construct_us_mean", "us", "lower", "throughput_rps and loadgen.latency_p99_us on cold-churn"},
	{"solver.phase_dedup_us_mean", "us", "lower", "throughput_rps and loadgen.latency_p99_us on cold-churn"},
	{"solver.phase_merge_us_mean", "us", "lower", "throughput_rps on warm-sweep and cold-churn"},
	{"solver.phase_pack_us_mean", "us", "lower", "throughput_rps and loadgen.latency_p99_us on cold-churn"},
	{"solver.phase_extract_us_mean", "us", "lower", "throughput_rps and latency_p50_us on warm-sweep"},

	{"service.call_memo_us_p50", "us", "lower", "latency_p50_us and throughput_rps on repeat-hot"},
	{"service.call_warm_us_p50", "us", "lower", "latency_p50_us and throughput_rps on warm-sweep"},
	{"service.call_cold_us_p50", "us", "lower", "throughput_rps and loadgen.latency_p99_us on cold-churn"},
	{"service.call_rehydrate_us_p50", "us", "lower", "no end-to-end metric: no gated workload runs a plan cache"},
	{"service.solve_us_p50", "us", "lower", "latency_p50_us on warm-sweep"},
	{"service.solve_us_p99", "us", "lower", "loadgen.latency_p99_us on warm-sweep and cold-churn"},
	{"service.memo_hit_ratio", "ratio", "higher", "latency_p50_us on repeat-hot; stays below 0.1 on warm-sweep"},
	{"service.cache_hit_ratio", "ratio", "higher", "throughput_rps on cold-churn"},
	{"service.coalesced_ratio", "ratio", "higher", "loadgen.latency_p99_us on routed-mix"},
	{"service.constructions", "count", "lower", "throughput_rps on cold-churn"},
	{"service.evictions", "count", "lower", "throughput_rps on cold-churn"},
	{"service.queue_depth_max", "count", "lower", "loadgen.latency_p99_us on cold-churn"},
	{"service.handler_self_us_p50", "us", "lower", "latency_p50_us on repeat-hot"},
	{"service.handler_self_us_p99", "us", "lower", "loadgen.latency_p99_us on cold-churn and routed-mix"},

	{"client.self_us_p50", "us", "lower", "latency_p50_us on repeat-hot"},
	{"client.resp_bytes_mean", "bytes", "lower", "cpu_us_per_req on warm-sweep"},

	{"cluster.self_us_p50", "us", "lower", "latency_p50_us and throughput_rps on routed-mix only"},
	{"cluster.self_us_p99", "us", "lower", "loadgen.latency_p99_us on routed-mix only"},
	{"cluster.forwards", "count", "higher", "throughput_rps on routed-mix only"},
	{"cluster.failovers", "count", "lower", "must stay 0 on every workload"},
	{"cluster.owner_share_max", "ratio", "lower", "throughput_rps on routed-mix only"},

	// The plan cache is measured behind the ladder's cold calls only: its
	// spill and rehydrate are disk-bound, and on the shared host the
	// disk moved cold-churn's throughput by a third between runs.
	{"plancache.rehydrate_ratio", "ratio", "higher", "service.call_rehydrate_us_p50 on every workload; strictly between 0 and 1"},
	{"plancache.spilled_legs", "count", "lower", "service.call_cold_us_p50 on every workload"},
	{"plancache.rehydrated_legs", "count", "higher", "service.call_rehydrate_us_p50 on every workload"},
	{"plancache.get_us_p50", "us", "lower", "service.call_rehydrate_us_p50 on every workload"},

	{"process.allocs_per_req", "count", "lower", "cpu_us_per_req and loadgen.latency_p99_us on repeat-hot"},
	{"process.alloc_kb_per_req", "KB", "lower", "cpu_us_per_req and loadgen.latency_p99_us on repeat-hot"},
	{"process.gc_per_kreq", "count", "lower", "cpu_us_per_req and loadgen.latency_p99_us on repeat-hot"},

	{"loadgen.latency_p99_us", "us", "lower", "open-loop tail at the fixed rate, on cold-churn and routed-mix; not gated: host CPU stalls dominate it"},
	{"loadgen.lag_p99_us", "us", "lower", "diagnostic: how late the open-loop sender ran; loadgen.latency_p99_us includes it"},
	{"trace.overhead_ratio", "ratio", "lower", "diagnostic: untraced over traced throughput_rps"},

	{"ladder.solver_us_p50", "us", "lower", "latency_p50_us on warm-sweep; lowest rung of the ladder"},
	{"ladder.handler_us_p50", "us", "lower", "latency_p50_us on warm-sweep; above service.call_warm_us_p50"},
	{"ladder.loopback_us_p50", "us", "lower", "latency_p50_us on warm-sweep; above ladder.handler_us_p50"},
	{"ladder.router_us_p50", "us", "lower", "latency_p50_us on routed-mix; above ladder.loopback_us_p50"},
}

// unitOf returns a metric's unit from the tables.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usOf converts nanosecond samples to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
