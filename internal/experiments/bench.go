package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/spider"
)

// This file is the benchmark-regression tooling behind msbench -json:
// it measures the E5 (chain) and E5c (spider) hot-path families, the
// wide, probe-loop and cold-construction spider families and the SVC
// service-layer families with a noise-robust min-of-reps harness, dumps
// them as a JSON baseline, and compares a fresh measurement against a
// stored baseline. BENCH_seed.json at the repo root is the frozen bar:
// numbers taken with the solver paths each optimisation replaced (the
// unmemoized reference spider solver, the slice packer, from-scratch
// probing, per-leg construction and a cold service per tree query),
// all since retired from the program. Comparisons
// scale by a calibration workload measured in both runs, so a baseline
// recorded on one machine still yields meaningful ratios on another.

// BenchPoint is one measured (family, size) cell. ProbesPerSolve, where
// present, is the solver's packing-probe telemetry for one cold
// min-makespan solve of the cell — the deadline-search work the
// two-sided seeding exists to shrink. PhaseNs, where present, is the
// phase-by-phase wall-time breakdown (construct, dedup, merge, pack,
// extract) of one untraced-equivalent extra run of the cell, taken with
// an obs.SolveTrace OUTSIDE the timed reps so the timed numbers stay
// hook-free. The regression comparison ignores both (they are context,
// not timings).
type BenchPoint struct {
	Family         string           `json:"family"`
	Size           int              `json:"size"`
	NsPerOp        int64            `json:"ns_per_op"`
	ProbesPerSolve int64            `json:"probes_per_solve,omitempty"`
	PhaseNs        map[string]int64 `json:"phase_ns,omitempty"`
}

// BenchBaseline is a dump of the regression families plus a calibration
// measurement taken in the same run.
type BenchBaseline struct {
	// Note records how the dump was taken.
	Note string `json:"note"`
	// CalibrationNs is the fixed calibration workload's time in this
	// run; comparing two baselines scales by the calibration ratio to
	// absorb machine-speed differences.
	CalibrationNs int64        `json:"calibration_ns"`
	Points        []BenchPoint `json:"points"`
}

// benchReps is the number of repetitions per cell; the minimum is kept,
// which is the standard robust estimator for wall-clock microbenchmarks.
const benchReps = 9

// chainPhases is solvePhases for the chain family: one traced
// incremental plan build + materialisation.
func chainPhases(ch platform.Chain, n int) (map[string]int64, error) {
	inc, err := core.NewIncremental(ch)
	if err != nil {
		return nil, err
	}
	tr := &obs.SolveTrace{}
	inc.SetTrace(tr)
	if _, err := inc.Schedule(n); err != nil {
		return nil, err
	}
	return tr.Snapshot().Map(), nil
}

// coldSolve is one cold min-makespan solve on a fresh solver — plan
// construction, deadline search and schedule extraction — returning
// the solve's packing probes.
func coldSolve(sp platform.Spider, n int) (int64, error) {
	s, err := spider.NewSolver(sp)
	if err != nil {
		return 0, err
	}
	_, _, err = s.MinMakespan(n)
	return int64(s.Stats().PackProbes), err
}

// solvePhases runs one extra cold min-makespan solve of a cell with a
// trace attached and returns its phase breakdown. It runs outside the
// timed reps: the dump's ns_per_op stays a measurement of the untraced
// path, and the breakdown is representative context next to it.
func solvePhases(sp platform.Spider, n int) (map[string]int64, error) {
	s, err := spider.NewSolver(sp)
	if err != nil {
		return nil, err
	}
	tr := &obs.SolveTrace{}
	s.SetTrace(tr)
	if _, _, err := s.MinMakespan(n); err != nil {
		return nil, err
	}
	return tr.Snapshot().Map(), nil
}

// minTime returns the minimum wall time of reps runs of fn.
func minTime(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// calibrate measures the fixed calibration workload: the unchanged
// chain algorithm on a deterministic mid-size instance.
func calibrate() (int64, error) {
	g := platform.MustGenerator(17, 1, 9, platform.Uniform)
	ch := g.Chain(12)
	d, err := minTime(benchReps, func() error {
		_, err := core.Schedule(ch, 1024)
		return err
	})
	return d.Nanoseconds(), err
}

// chainSizes and spiderSizes are the regression grid; spiderSizes match
// BenchmarkSpiderMinMakespan so the Go benchmark and the JSON baseline
// describe the same cells. svcSizes are the service-layer warm-query
// task counts and svcFanIn the concurrent identical requests of the
// coalesced-throughput cell. wideLegs/wideSizes are the E5w-wide cells:
// min-makespan on a spider with hundreds of legs, where the packing
// inner loop dominates and the streaming tree packer earns its keep.
// probeLoopLegs/probeLoopN are the E5p-loop cells: the warm probe loop
// (a binary-search deadline walk against a warmed solver) at two widths,
// keyed by leg count — the workload the probe-persistent packer and
// tournament merge amortise. coldLegs/coldN are the E6-cold cells: one
// cold min-makespan solve including plan construction, on the E6c
// experiment's duplicate-heavy and all-distinct platforms, keyed by leg
// count — the workload isomorphic-leg dedup collapses. (The E5w and E5p
// experiments these family names come from are retired; the names stay
// so the cells keep matching BENCH_seed.json.)
var (
	chainSizes    = []int{512, 2048}
	spiderSizes   = []int{32, 128, 512}
	svcSizes      = []int{128, 512}
	svcFanIn      = 32
	wideLegs      = 256
	wideSizes     = []int{512, 1024}
	probeLoopLegs = []int{256, 1024}
	probeLoopN    = 512
	coldLegs      = []int{256, 1024}
	coldN         = 512
)

// wideSpider draws the wide-platform family: spiders with hundreds of
// short legs under strong heterogeneity (Bimodal, values 1..30), the
// regime where the lower-bound seeding is loose enough that the
// deadline binary search actually probes, and each probe's candidate
// stream is wide enough that the admit-one-candidate inner loop
// dominates.
func wideSpider(legs int) platform.Spider {
	g := platform.MustGenerator(2025, 1, 30, platform.Bimodal)
	return g.Spider(legs, 3)
}

// probeWalk is the warm probe-loop workload: the deadline sequence of a
// binary search bracketing the optimum, replayed against a warmed
// solver. It isolates exactly the per-probe cost the persistent packer
// amortises — the leg plans are grown, only the merge+packing runs.
func probeWalk(opt platform.Time) []platform.Time {
	var walk []platform.Time
	lo, hi := max(opt-40, 1), opt+40
	for lo < hi {
		mid := lo + (hi-lo)/2
		walk = append(walk, mid)
		if mid >= opt {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return walk
}

// MeasureBenchBaseline measures every regression family with the
// production solver and service.
func MeasureBenchBaseline() (*BenchBaseline, error) {
	calBefore, err := calibrate()
	if err != nil {
		return nil, err
	}
	b := &BenchBaseline{Note: "fast solver (probe-persistent packer + tournament merge + leg dedup)", CalibrationNs: calBefore}

	g := platform.MustGenerator(2024, 1, 9, platform.Uniform)
	ch := g.Chain(16)
	for _, n := range chainSizes {
		d, err := minTime(benchReps, func() error {
			_, err := core.Schedule(ch, n)
			return err
		})
		if err != nil {
			return nil, err
		}
		phases, err := chainPhases(ch, n)
		if err != nil {
			return nil, err
		}
		b.Points = append(b.Points, BenchPoint{Family: "E5-chain", Size: n, NsPerOp: d.Nanoseconds(), PhaseNs: phases})
	}

	// E5c-spider: min-makespan on a narrow spider, and E5w-wide: the
	// same on a spider with hundreds of legs.
	sp := g.Spider(4, 3)
	wide := wideSpider(wideLegs)
	for _, cell := range []struct {
		family string
		sp     platform.Spider
		sizes  []int
	}{
		{"E5c-spider", sp, spiderSizes},
		{"E5w-wide", wide, wideSizes},
	} {
		for _, n := range cell.sizes {
			var probes int64
			d, err := minTime(benchReps, func() (err error) {
				probes, err = coldSolve(cell.sp, n)
				return err
			})
			if err != nil {
				return nil, err
			}
			pt := BenchPoint{Family: cell.family, Size: n, NsPerOp: d.Nanoseconds(), ProbesPerSolve: probes}
			if pt.PhaseNs, err = solvePhases(cell.sp, n); err != nil {
				return nil, err
			}
			b.Points = append(b.Points, pt)
		}
	}
	// E5p-loop: the warm probe loop.
	for _, legs := range probeLoopLegs {
		s, err := spider.NewSolver(wideSpider(legs))
		if err != nil {
			return nil, err
		}
		mk, _, err := s.MinMakespan(probeLoopN)
		if err != nil {
			return nil, err
		}
		probes := int64(s.Stats().PackProbes)
		walk := probeWalk(mk)
		d, err := minTime(benchReps, func() error {
			for _, dl := range walk {
				if _, err := s.MaxTasks(probeLoopN, dl); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// One extra untimed walk with a trace attached gives the warm
		// loop's own phase breakdown (the timed reps stay hook-free).
		tr := &obs.SolveTrace{}
		s.SetTrace(tr)
		before := tr.Snapshot()
		for _, dl := range walk {
			if _, err := s.MaxTasks(probeLoopN, dl); err != nil {
				return nil, err
			}
		}
		b.Points = append(b.Points, BenchPoint{
			Family: "E5p-loop", Size: legs,
			NsPerOp:        d.Nanoseconds() / int64(len(walk)),
			ProbesPerSolve: probes,
			PhaseNs:        tr.Snapshot().Sub(before).Map(),
		})
	}
	// E6-cold: cold construction — one min-makespan solve on a fresh
	// solver, plan construction included, at the E6c experiment's cells.
	for _, cell := range []struct {
		family string
		build  func(int) platform.Spider
	}{
		{"E6-cold-dup", dupHeavySpider},
		{"E6-cold-distinct", distinctSpider},
	} {
		for _, legs := range coldLegs {
			csp := cell.build(legs)
			d, err := minTime(benchReps, func() error {
				_, err := coldSolve(csp, coldN)
				return err
			})
			if err != nil {
				return nil, err
			}
			pt := BenchPoint{Family: cell.family, Size: legs, NsPerOp: d.Nanoseconds()}
			if pt.PhaseNs, err = solvePhases(csp, coldN); err != nil {
				return nil, err
			}
			b.Points = append(b.Points, pt)
		}
	}
	// SVC-tree draws its platform from a dedicated generator so the
	// existing cells' instances stay byte-identical to earlier dumps.
	tg := platform.MustGenerator(77, 1, 9, platform.Uniform)
	if err := measureServiceFamilies(b, sp, tg.Tree(3, 3)); err != nil {
		return nil, err
	}
	// Calibrate again after the families: if the machine picked up load
	// mid-run, the slower of the two calibrations keeps the comparison
	// lenient — this is a regression guard, not a precision benchmark.
	calAfter, err := calibrate()
	if err != nil {
		return nil, err
	}
	b.CalibrationNs = max(calBefore, calAfter)
	return b, nil
}

// measureServiceFamilies measures the scheduling-service layer over
// loopback HTTP on the same spider as the E5c family:
//
//   - SVC-warm: latency of one min-makespan query against a warmed
//     solver — the steady-state cost a caller pays once the service
//     holds the platform's plans (HTTP round trip plus, since the
//     result memo, an O(1) lookup: exact scalar repeats never re-solve);
//   - SVC-coalesce: per-request latency when svcFanIn concurrent
//     identical queries hit the service at once, which exercises the
//     singleflight path under contention;
//   - SVC-tree: warm max-tasks latency for a general tree — the
//     solver-factory registry path where the warmed entry is a cached
//     §8 cover plus its inner spider solver. Every timed rep probes a
//     DISTINCT deadline, so each is a memo miss that runs the warm
//     solver (the O(1) scalar-memo path is SVC-warm's job), without
//     the schedule-encode noise a schedule-bearing query would add.
func measureServiceFamilies(b *BenchBaseline, sp platform.Spider, tr platform.Tree) error {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	for _, n := range svcSizes {
		// One cold query warms the solver past this size; the measured
		// reps are all warm-path.
		if _, err := cl.MinMakespanSpider(ctx, sp, n, false); err != nil {
			return err
		}
		d, err := minTime(benchReps, func() error {
			_, err := cl.MinMakespanSpider(ctx, sp, n, false)
			return err
		})
		if err != nil {
			return err
		}
		b.Points = append(b.Points, BenchPoint{Family: "SVC-warm", Size: n, NsPerOp: d.Nanoseconds()})
	}

	for _, n := range svcSizes {
		// The deadline walk descends from the optimum, one distinct
		// value per rep — the same solver work the frozen baseline's
		// cold-service queries did.
		opt, err := cl.MinMakespanTree(ctx, tr, n, false)
		if err != nil {
			return err
		}
		rep := 0
		d, err := minTime(benchReps, func() error {
			dl := max(opt.Makespan-platform.Time(rep), 1)
			rep++
			_, err := cl.MaxTasksTree(ctx, tr, n, dl)
			return err
		})
		if err != nil {
			return err
		}
		b.Points = append(b.Points, BenchPoint{Family: "SVC-tree", Size: n, NsPerOp: d.Nanoseconds()})
	}

	n := svcSizes[len(svcSizes)-1]
	d, err := minTime(benchReps, func() error {
		var wg sync.WaitGroup
		errs := make([]error, svcFanIn)
		wg.Add(svcFanIn)
		for i := 0; i < svcFanIn; i++ {
			go func(i int) {
				defer wg.Done()
				_, errs[i] = cl.MinMakespanSpider(ctx, sp, n, false)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.Points = append(b.Points, BenchPoint{Family: "SVC-coalesce", Size: n, NsPerOp: d.Nanoseconds() / int64(svcFanIn)})
	return nil
}

// WriteJSON dumps the baseline.
func (b *BenchBaseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBenchBaseline parses a baseline dump.
func ReadBenchBaseline(r io.Reader) (*BenchBaseline, error) {
	var b BenchBaseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench baseline: %w", err)
	}
	if b.CalibrationNs <= 0 {
		return nil, fmt.Errorf("experiments: bench baseline has no calibration measurement")
	}
	return &b, nil
}

// CompareBenchBaselines flags cells of cur slower than tolerance times
// the stored baseline (tolerance 1.2 flags >20% regressions). A cell is
// flagged only when it regresses under BOTH readings of the baseline —
// raw, and scaled by the runs' calibration ratio: machine-speed noise
// moves the two readings in opposite directions and rarely trips both,
// while a genuine algorithmic slowdown trips both. (The flip side:
// on a machine much faster than the baseline's, a real regression can
// hide under the raw reading — acceptable for a guard whose job is
// catching the severalfold blowups of a reverted optimisation.) Cells
// missing from either side are ignored: the grid may grow over time.
func CompareBenchBaselines(baseline, cur *BenchBaseline, tolerance float64) []string {
	base := map[string]int64{}
	for _, p := range baseline.Points {
		base[fmt.Sprintf("%s/n=%d", p.Family, p.Size)] = p.NsPerOp
	}
	scale := max(float64(cur.CalibrationNs)/float64(baseline.CalibrationNs), 1)
	var regressions []string
	for _, p := range cur.Points {
		key := fmt.Sprintf("%s/n=%d", p.Family, p.Size)
		b, ok := base[key]
		if !ok {
			continue
		}
		allowed := float64(b) * scale * tolerance
		if float64(p.NsPerOp) > allowed {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %dns/op exceeds %.0fns/op (baseline %dns/op × machine scale %.2f × tolerance %.2f)",
				key, p.NsPerOp, allowed, b, scale, tolerance))
		}
	}
	return regressions
}
