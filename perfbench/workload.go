package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro"
	"repro/internal/platform"
	"repro/internal/service"
)

// workloadDef is one traffic mix. rate is the open-loop request rate,
// fixed so later changes are compared at equal load. It is a fifth to a
// third of the closed-loop throughput measured when the benchmark was
// defined: at half, short CPU stalls on a shared two-core host grew
// queues whose tails did not repeat from run to run.
type workloadDef struct {
	name, why string
	rate      float64
	build     func(seed int64, seconds float64) *inputs
}

var workloads = []workloadDef{
	{"repeat-hot", "Memo hits on 16 warm platforms: parse, hashing, the memo lock, encoding and HTTP are the whole cost. Its latency_p50_us takes over from msbench's flaky SVC-warm cell.",
		2000, buildRepeatHot},
	{"warm-sweep", "Fresh (n, deadline) on 16 warm platforms grown to n=1024: the memo misses, so the probe loop, bounds and schedule extraction dominate; 1/8 of requests carry a schedule.",
		700, buildWarmSweep},
	{"cold-churn", "Wide spiders through an 8-entry cache, Zipf-popular with 1 request in 4 on a never-seen one: solver construction, leg dedup, LRU eviction and cold admission dominate.",
		400, buildColdChurn},
	{"routed-mix", "The only mix through cluster.Router over two shards: the hop's second body decode, platform.Read and copy, plus coalesced identical requests and waits on hot entries.",
		900, buildRoutedMix},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// plat is one generated platform. body is its serialized envelope, made
// once before timing: the service only ever sees these bytes.
type plat struct {
	p       repro.Platform
	body    json.RawMessage
	perTask float64 // 1/throughput: the steady-state time per task
}

// query is one request tuple; plat indexes inputs.plats.
type query struct {
	plat     int32
	op       service.Op
	n        int
	deadline platform.Time
	sched    bool // include_schedule
}

// inputs is everything one run sends, generated from the seed.
type inputs struct {
	plats []*plat
	// fixed is how many leading plats are the workload's standing set;
	// the rest are never-seen platforms, each drawn by few requests.
	fixed int
	// warmup is issued, in order, during set-up.
	warmup []query
	// draw returns request i of the run's sequence.
	draw func(i uint64) query
	// stack shape.
	shards, cacheSize int
	routed            bool
	// ladder: warm platforms for fresh scalar draws, and never-seen
	// platforms of the workload's shape for cold construction.
	ladderWarm []int32
	ladderCold []int32
	scalar     func(s *stream, p int32) query
	nLo, nHi   int // scalar task-count range; plans are grown to nHi
}

// stream is a splitmix64 generator: cheap to seed per request, so
// request i of a run is a pure function of (seed, i).
type stream struct{ s uint64 }

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func newStream(seed int64, salt, i uint64) *stream {
	return &stream{s: mix(uint64(seed)) ^ mix(salt<<32^i)}
}

func (s *stream) next() uint64 { s.s = mix(s.s); return s.s }

func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// between returns a uniform int in [lo, hi].
func (s *stream) between(lo, hi int) int { return lo + s.intn(hi-lo+1) }

func (s *stream) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func newPlat(p repro.Platform) *plat {
	var buf bytes.Buffer
	var err error
	switch v := p.(type) {
	case repro.Chain:
		err = platform.WriteChain(&buf, v)
	case repro.Spider:
		err = platform.WriteSpider(&buf, v)
	case repro.Fork:
		err = platform.WriteFork(&buf, v)
	case repro.Tree:
		err = platform.WriteTree(&buf, v)
	}
	var body bytes.Buffer
	if err == nil {
		// Compact, as the client puts it on the wire, so in-process calls
		// parse the same bytes as HTTP ones.
		err = json.Compact(&body, buf.Bytes())
	}
	if err != nil {
		panic(fmt.Sprintf("encoding a generated platform: %v", err)) // generated platforms are valid
	}
	rate, err := p.Throughput()
	if err != nil {
		panic(fmt.Sprintf("throughput of a generated platform: %v", err))
	}
	f, _ := rate.Float64()
	return &plat{p: p, body: body.Bytes(), perTask: 1 / f}
}

// deadline draws a deadline around the steady-state time of n tasks,
// so max_tasks answers spread over [0, n].
func (s *stream) deadline(p *plat, n int) platform.Time {
	return platform.Time(math.Ceil(float64(n)*p.perTask*(0.3+0.9*s.float()))) + platform.Time(s.between(1, 40))
}

// hotSet draws the 16 warm platforms shared by repeat-hot, warm-sweep
// and routed-mix: spiders of 4, 8, ..., 32 legs, forks of 4, 10 and 16
// slaves, chains of 2, 5 and 8 processors, and two trees of fixed
// shape. Sizes are fixed and only link and processor times come from
// the seed, so every seed offers the same amount of work.
func hotSet(seed int64) []*plat {
	g := platform.MustGenerator(seed, 1, 20, platform.Uniform)
	var out []*plat
	for legs := 4; legs <= 32; legs += 4 {
		out = append(out, newPlat(g.Spider(legs, 3)))
	}
	for _, n := range []int{4, 10, 16} {
		out = append(out, newPlat(g.Fork(n)))
	}
	for _, n := range []int{2, 5, 8} {
		out = append(out, newPlat(g.Chain(n)))
	}
	out = append(out, newPlat(fixedTree(g, 2, 2, 2)), newPlat(fixedTree(g, 3, 2)))
	return out
}

// fixedTree draws node times for a tree whose level k nodes each have
// fanout[k] children (fanout[0] roots).
func fixedTree(g *platform.Generator, fanout ...int) platform.Tree {
	var level func(k int) []platform.TreeNode
	level = func(k int) []platform.TreeNode {
		if k == len(fanout) {
			return nil
		}
		nodes := make([]platform.TreeNode, fanout[k])
		for i := range nodes {
			nd := g.Node()
			nodes[i] = platform.TreeNode{Comm: nd.Comm, Work: nd.Work, Children: level(k + 1)}
		}
		return nodes
	}
	return platform.Tree{Roots: level(0)}
}

// zipfCDF is the cumulative popularity of ranks 0..n-1 under Zipf(z).
func zipfCDF(n int, z float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), z)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// rank draws a rank from a popularity CDF.
func (s *stream) rank(cdf []float64) int {
	return min(sort.SearchFloat64s(cdf, s.float()), len(cdf)-1)
}

// hotPool is repeat-hot's fixed pool of 512 scalar tuples with a
// Zipf(1.1) popularity CDF over it.
func hotPool(seed int64, plats []*plat) ([]query, []float64) {
	s := newStream(seed, 2, 0)
	pool := make([]query, 512)
	for i := range pool {
		// Round robin over the platforms, so the most popular tuples
		// land on platforms of the same size whatever the seed.
		p := int32(i % len(plats))
		n := s.between(16, 256)
		q := query{plat: p, op: service.OpMinMakespan, n: n}
		if s.intn(2) == 0 {
			q.op, q.deadline = service.OpMaxTasks, s.deadline(plats[p], n)
		}
		pool[i] = q
	}
	return pool, zipfCDF(len(pool), 1.1)
}

func zipfPick(s *stream, pool []query, cdf []float64) query { return pool[s.rank(cdf)] }

// sweepQuery draws a warm-sweep tuple: 1/4 min_makespan, 5/8
// max_tasks, 1/8 schedule-bearing (min_makespan with its schedule, or
// schedule_within).
func sweepQuery(s *stream, plats []*plat, p int32) query {
	if s.intn(4) == 0 {
		return query{plat: p, op: service.OpMinMakespan, n: s.between(64, 1024)}
	}
	return sweepOther(s, plats, p)
}

// sweepOther draws the rest of warm-sweep's mix: 5/6 max_tasks, 1/6
// schedule-bearing.
func sweepOther(s *stream, plats []*plat, p int32) query {
	n := s.between(64, 1024)
	if s.intn(6) < 5 {
		return query{plat: p, op: service.OpMaxTasks, n: n, deadline: s.deadline(plats[p], n)}
	}
	n = s.between(64, 256)
	if s.intn(2) == 0 {
		return query{plat: p, op: service.OpMinMakespan, n: n, sched: true}
	}
	return query{plat: p, op: service.OpScheduleWithin, n: n, deadline: s.deadline(plats[p], n), sched: true}
}

// scalarQuery draws a scalar tuple on p with n in the workload's range:
// 2/7 min_makespan and 5/7 max_tasks, warm-sweep's scalar ratio.
func scalarQuery(in *inputs) func(s *stream, p int32) query {
	return func(s *stream, p int32) query {
		n := s.between(in.nLo, in.nHi)
		if s.intn(7) < 2 {
			return query{plat: p, op: service.OpMinMakespan, n: n}
		}
		return query{plat: p, op: service.OpMaxTasks, n: n, deadline: s.deadline(in.plats[p], n)}
	}
}

func indices(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// grow issues min_makespan(n) on every listed platform.
func grow(ps []int32, n int) []query {
	out := make([]query, len(ps))
	for i, p := range ps {
		out[i] = query{plat: p, op: service.OpMinMakespan, n: n}
	}
	return out
}

// spread returns the k-th of a fixed sequence of sizes covering
// [lo, hi], so every seed draws the same mix of sizes.
func spread(k, lo, hi int) int { return lo + k*61%(hi-lo+1) }

// smallSpiders draws never-seen spiders of the hot set's sizes.
func smallSpiders(seed int64, salt uint64, count int) []*plat {
	g := platform.MustGenerator(seed^int64(mix(salt)), 1, 20, platform.Uniform)
	out := make([]*plat, count)
	for i := range out {
		out[i] = newPlat(g.Spider(spread(i, 4, 32), 3))
	}
	return out
}

// request builds the request for q around the platform's serialized
// bytes.
func (in *inputs) request(q query) *service.Request {
	return &service.Request{Platform: in.plats[q.plat].body, Op: q.op, N: q.n,
		Deadline: q.deadline, IncludeSchedule: q.sched}
}

// addPlats appends never-seen platforms and returns their indices.
func (in *inputs) addPlats(ps []*plat) []int32 {
	out := make([]int32, len(ps))
	for i, p := range ps {
		out[i] = int32(len(in.plats))
		in.plats = append(in.plats, p)
	}
	return out
}

func hotInputs(seed int64) *inputs {
	plats := hotSet(seed)
	in := &inputs{plats: plats, fixed: len(plats), shards: 1, cacheSize: 64,
		ladderWarm: indices(len(plats)), nLo: 64, nHi: 1024}
	in.scalar = scalarQuery(in)
	in.ladderCold = in.addPlats(smallSpiders(seed, 90, 24))
	return in
}

func buildRepeatHot(seed int64, _ float64) *inputs {
	in := hotInputs(seed)
	pool, cdf := hotPool(seed, in.plats)
	in.warmup = pool
	in.draw = func(i uint64) query { return zipfPick(newStream(seed, 3, i), pool, cdf) }
	return in
}

// buildWarmSweep sends every fourth request as min_makespan on the next
// (platform, n) pair of a seeded permutation of all of them, so the
// scalar memo cannot answer it within a run; the others draw max_tasks
// with a random deadline or a schedule-bearing query.
func buildWarmSweep(seed int64, _ float64) *inputs {
	in := hotInputs(seed)
	in.warmup = grow(indices(in.fixed), 1024)
	const lo, hi = 64, 1024
	s := newStream(seed, 10, 0)
	pairs := make([]int, in.fixed*(hi-lo+1))
	for i := range pairs {
		j := s.intn(i + 1)
		pairs[i], pairs[j] = pairs[j], i
	}
	in.draw = func(i uint64) query {
		if i%4 == 0 {
			c := pairs[int(i/4)%len(pairs)]
			return query{plat: int32(c / (hi - lo + 1)), op: service.OpMinMakespan, n: lo + c%(hi-lo+1)}
		}
		s := newStream(seed, 4, i)
		return sweepOther(s, in.plats, int32(s.intn(in.fixed)))
	}
	return in
}

// buildColdChurn draws 128 wide spiders (16–64 legs) whose legs are
// half drawn from a shared alphabet of 48 leg shapes, so LegKeys repeat
// across platforms, plus never-seen spiders of the same sizes for every
// fourth request. It runs without a plan cache: spill and rehydrate are
// measured behind the ladder's cold calls instead (see coldLayer).
func buildColdChurn(seed int64, seconds float64) *inputs {
	g := platform.MustGenerator(seed, 1, 20, platform.Uniform)
	s := newStream(seed, 5, 0)
	alphabet := make([]platform.Chain, 48)
	for i := range alphabet {
		alphabet[i] = g.Chain(s.between(1, 3))
	}
	wide := func(k int) *plat {
		legs := make([]platform.Chain, spread(k, 16, 64))
		for i := range legs {
			if i%2 == 0 {
				legs[i] = alphabet[s.intn(len(alphabet))]
			} else {
				legs[i] = g.Chain(s.between(1, 3))
			}
		}
		return newPlat(platform.Spider{Legs: legs})
	}
	const pool = 128
	// One never-seen platform per four requests, at up to 400 requests
	// a second; beyond that they are reused, evicted long before.
	fresh := int(math.Ceil(seconds * 400 / 4))
	in := &inputs{fixed: pool, shards: 1, cacheSize: 8,
		ladderWarm: indices(16), nLo: 64, nHi: 256}
	in.scalar = scalarQuery(in)
	for k := 0; k < pool+fresh; k++ {
		in.plats = append(in.plats, wide(k))
	}
	ladderCold := make([]*plat, 24)
	for i := range ladderCold {
		ladderCold[i] = wide(i)
	}
	in.ladderCold = in.addPlats(ladderCold)
	in.warmup = grow(indices(pool), 256)
	// Pool popularity is Zipf(1): a head that an 8-entry cache can keep
	// warm and a tail that churns through eviction and rehydrate.
	cdf := zipfCDF(pool, 1)
	in.draw = func(i uint64) query {
		s := newStream(seed, 6, i)
		p := int32(s.rank(cdf))
		if i%4 == 3 {
			p = int32(pool + int(i/4)%fresh)
		}
		return in.scalar(s, p)
	}
	return in
}

// buildRoutedMix mixes, per pair of consecutive requests, 80% repeat-hot
// tuples, 15% warm-sweep tuples and 5% never-seen spiders. A
// warm-sweep or never-seen pair sends the same tuple twice, so the two
// clients often issue it back to back and the second joins the first.
func buildRoutedMix(seed int64, seconds float64) *inputs {
	in := hotInputs(seed)
	in.shards, in.routed = 2, true
	pool, cdf := hotPool(seed, in.plats)
	fresh := in.addPlats(smallSpiders(seed, 7, int(math.Ceil(seconds*4000*0.05/2))))
	in.warmup = append(append([]query(nil), pool...), grow(indices(in.fixed), 1024)...)
	in.draw = func(i uint64) query {
		pair := newStream(seed, 8, i/2)
		switch u := pair.intn(100); {
		case u < 80:
			return zipfPick(newStream(seed, 9, i), pool, cdf)
		case u < 95:
			return sweepQuery(pair, in.plats, int32(pair.intn(in.fixed)))
		default:
			return in.scalar(pair, fresh[int(i/2)%len(fresh)])
		}
	}
	return in
}
