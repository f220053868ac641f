package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"repro/internal/serve"
)

// sizing is what separates the committed workloads from the smoke-scale
// copies the tests drive: which mesh the "large" workload solves on, how
// tight the solves are, and where in a solve the faults land.
type sizing struct {
	large          string  // scenario of warm_large
	tol            float64 // tolerance of the warm and faulted solves
	killLo, killHi int     // kernel-iteration range a kill is drawn from
	reviveAfter    int     // kernel iterations between a kill and its revive
}

// fullSize is the sizing BENCHMARK.json is measured at, chosen for a
// 2-core host (see README.md for the layer shares each one produces).
var fullSize = sizing{large: "sf5", tol: 1e-8, killLo: 20, killHi: 150, reviveAfter: 40}

// op is one generated request and what its answer must look like.
type op struct {
	index int
	req   serve.SolveRequest
	body  []byte
	// wantHit, when non-nil, is the cache_hit the response must carry.
	wantHit *bool
	// rehit marks a re-reference of a tuple requested earlier whose
	// cache_hit is measured (serve.rehit_miss_share), not asserted.
	rehit bool
	// kill, when non-nil, is the planned fault and its expected outcome.
	kill *killPlan
	// untraced marks a control request of a traced window: sent without
	// client-side tracing, to measure what the tracing costs.
	untraced bool
}

type killPlan struct {
	pe      int
	migrate bool // recovery "migrate" instead of the elastic supervisor
	revive  bool // the plan revives the PE later (elastic only)
}

// tupleKey names the cache tuple of a request the way serve keys it.
func (o *op) tupleKey() string {
	method, nodesize := o.req.Method, o.req.NodeSize
	if method == "" {
		method = "rcb"
	}
	if nodesize < 1 {
		nodesize = 1
	}
	return fmt.Sprintf("%s/p%d/%s/node%d", o.req.Scenario, o.req.PEs, method, nodesize)
}

func newOp(index int, req serve.SolveRequest) *op {
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return &op{index: index, req: req, body: body}
}

// workload is one traffic mix: how quaked is started, what is sent
// before timing starts, and the endless seeded request list the clients
// draw from. quaked itself never sees the seed.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count wanted; the driver caps
	// it at nproc.
	clients int
	// flags, when non-nil, returns the extra quaked flags; dir is a
	// fresh scratch directory for anything the server persists.
	flags func(dir string) []string
	// warmup is the request that makes the server warm for this
	// workload; setup sends it once alone and then once per client
	// concurrently, so every pool worker the window will use exists.
	warmup func(seed int64) *op
	// ops returns the request list for a seed as a function of the
	// request's position, so any prefix is reproducible.
	ops func(seed int64) func(i int) (*op, error)
	// rate is the nominal request rate on the reference host; a traced
	// run sends rate × seconds requests so that its counts are exact.
	rate float64
	// rssMark is the request count after which peak RSS is read, fixed
	// so that the figure does not grow with how many requests a faster
	// build fits into the window.
	rssMark int
	// shadow is the tuple the traced run's in-process pipeline replays.
	shadow serve.SolveRequest
}

// mix is splitmix64 over (seed, stream, i): per-position randomness
// without generator state, so op i does not depend on who asked first.
func mix(seed int64, stream, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i) + 1
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rhsSeed draws a non-zero right-hand-side seed (0 is serve's canonical
// two-point load, which the cold workload uses).
func rhsSeed(seed int64, stream, i int) int64 {
	return 1 + int64(mix(seed, stream, i)%(1<<40))
}

var yes, no = true, false

// reissueEvery makes every n-th warm_large request repeat the first
// one, so "equal request ⇒ equal solution" is checked inside the window.
const reissueEvery = 6

// workloads builds the four workloads at the given sizing.
func workloads(sz sizing) []*workload {
	large := serve.SolveRequest{Scenario: sz.large, PEs: 2, Tol: sz.tol}
	durable := serve.SolveRequest{Scenario: "sf10", PEs: 4, NodeSize: 2, Tol: sz.tol}
	faulted := serve.SolveRequest{Scenario: "sf10", PEs: 4, Tol: sz.tol}
	withSeed := func(req serve.SolveRequest, i int, rhs int64) *op {
		req.RHSSeed = rhs
		o := newOp(i, req)
		o.wantHit = &yes
		return o
	}
	warmupOf := func(req serve.SolveRequest) func(int64) *op {
		return func(seed int64) *op {
			r := req
			r.RHSSeed = rhsSeed(seed, 0, -1)
			return newOp(-1, r)
		}
	}

	return []*workload{
		{
			name:    "warm_large",
			why:     "CG-bound: one client, cached sf5/p2 solves of ~600 iterations; par+sparse+solver do nearly all the work, build, journal and recovery none",
			clients: 1,
			warmup:  warmupOf(large),
			ops: func(seed int64) func(int) (*op, error) {
				return func(i int) (*op, error) {
					if i%reissueEvery == reissueEvery-1 {
						return withSeed(large, i, rhsSeed(seed, 1, 0)), nil
					}
					return withSeed(large, i, rhsSeed(seed, 1, i)), nil
				}
			},
			rate:    0.6,
			rssMark: 6,
			shadow:  large,
		},
		{
			name:    "warm_small_durable",
			why:     "write-path-bound: nproc clients, cached sf10/p4/node2 solves with the journal on; fsync'd WAL records and ~28 durable checkpoints per solve, aggregated exchange, 8 PE goroutines on 2 cores",
			clients: 2,
			flags: func(dir string) []string {
				return []string{"-journal", filepath.Join(dir, "journal"), "-warm", "2"}
			},
			warmup: warmupOf(durable),
			ops: func(seed int64) func(int) (*op, error) {
				return func(i int) (*op, error) { return withSeed(durable, i, rhsSeed(seed, 1, i)), nil }
			},
			rate:    4.8,
			rssMark: 40,
			shadow:  durable,
		},
		{
			name:    "cold_build",
			why:     "build-bound: one client, three never-seen sf10 tuples then one re-reference of the oldest, tol 1e-2; partition, analyze, schedule, assemble and NewDist dominate and the cache only grows",
			clients: 1,
			warmup: func(int64) *op {
				// A tuple outside the drawn space: it heats the
				// process-wide mesh cache and nothing the window reuses.
				return newOp(-1, serve.SolveRequest{Scenario: "sf10", PEs: coldMaxPEs + 1, Tol: coldTol})
			},
			ops:     coldOps,
			rate:    5,
			rssMark: 48,
			shadow:  serve.SolveRequest{Scenario: "sf10", PEs: 16, NodeSize: 2, Tol: coldTol},
		},
		{
			name:    "faulted",
			why:     "recovery-bound: one client, cached sf10/p4 solves that each lose a PE mid-solve, cycling elastic shrink / shrink+regrow / migrate; shrink, grow, supervisor and pool respawn cost shows only here",
			clients: 1,
			flags:   func(string) []string { return []string{"-warm", "2"} },
			warmup:  warmupOf(faulted),
			ops: func(seed int64) func(int) (*op, error) {
				return func(i int) (*op, error) {
					req := faulted
					req.RHSSeed = rhsSeed(seed, 1, i)
					k := &killPlan{pe: int(mix(seed, 2, i) % uint64(req.PEs))}
					at := sz.killLo + int(mix(seed, 3, i)%uint64(sz.killHi-sz.killLo))
					req.Faults = fmt.Sprintf("kill:pe=%d,iter=%d", k.pe, at)
					switch i % 3 {
					case 1:
						k.revive = true
						req.Faults += fmt.Sprintf(";revive:pe=%d,iter=%d", k.pe, at+sz.reviveAfter)
					case 2:
						k.migrate = true
						req.Recovery = serve.RecoveryMigrate
					}
					o := newOp(i, req)
					o.wantHit = &yes
					o.kill = k
					return o, nil
				}
			},
			rate:    2.2,
			rssMark: 24,
			shadow:  faulted,
		},
	}
}

// The cold workload draws tuples without replacement from
// sf10 × {rcb, inertial} × pes 1..coldMaxPEs × nodesize {1,2,4,8}: 234
// tuples, about three times what the reference host builds in a
// 20-second window, so a much faster build still finds unseen tuples.
const (
	coldMaxPEs = 32
	coldTol    = 1e-2
)

func coldSpace() []serve.SolveRequest {
	var space []serve.SolveRequest
	for _, method := range []string{"rcb", "inertial"} {
		for pes := 1; pes <= coldMaxPEs; pes++ {
			for _, nodesize := range []int{1, 2, 4, 8} {
				if nodesize > pes {
					continue
				}
				space = append(space, serve.SolveRequest{
					Scenario: "sf10", PEs: pes, Method: method, NodeSize: nodesize, Tol: coldTol})
			}
		}
	}
	return space
}

// coldOps keeps the mix stationary whatever the window length: of every
// four requests three name a tuple never seen before and the fourth
// re-references the oldest tuple not yet re-referenced — the access an
// eviction policy pays for.
func coldOps(seed int64) func(int) (*op, error) {
	space := coldSpace()
	order := rand.New(rand.NewSource(seed)).Perm(len(space))
	return func(i int) (*op, error) {
		if i%4 == 3 {
			o := newOp(i, space[order[i/4]])
			o.rehit = true
			return o, nil
		}
		next := i - i/4
		if next >= len(order) {
			return nil, fmt.Errorf("cold_build: all %d tuples used; widen coldSpace", len(order))
		}
		o := newOp(i, space[order[next]])
		o.wantHit = &no
		return o, nil
	}
}

// generator hands the request list to the clients in order.
type generator struct {
	mu   sync.Mutex
	next int
	ops  func(i int) (*op, error)
}

// take returns the next request, or nil once stop (evaluated under the
// lock with the number already issued) says the window is over.
func (g *generator) take(stop func(issued int) bool) (*op, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if stop(g.next) {
		return nil, nil
	}
	o, err := g.ops(g.next)
	g.next++
	return o, err
}
