package serve

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	iq "repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/regress"
)

// The serving metrics. Resolved once at package init (the obs registry
// is process-global); all are documented in docs/OBSERVABILITY.md and
// covered by the doc-drift guard.
var (
	cacheHits       = obs.GetCounter("serve.cache.hits")
	cacheMisses     = obs.GetCounter("serve.cache.misses")
	admitRejected   = obs.GetCounter("serve.admit.rejected")
	queueDepth      = obs.GetGauge("serve.queue.depth")
	inflight        = obs.GetGauge("serve.inflight")
	solvesOK        = obs.GetCounter("serve.solves.ok")
	solvesCanceled  = obs.GetCounter("serve.solves.canceled")
	solvesFailed    = obs.GetCounter("serve.solves.failed")
	poolSpawns      = obs.GetCounter("serve.pool.spawns")
	poolReuses      = obs.GetCounter("serve.pool.reuses")
	poolDiscards    = obs.GetCounter("serve.pool.discards")
	poolSpawnNs     = obs.GetHistogram("serve.pool.spawn_ns")
	streamEvents    = obs.GetCounter("serve.stream.events")
	solvesSupervise = obs.GetCounter("serve.solves.supervised")

	// The cold path, stage by stage (nanoseconds per build), and the
	// tuples that found their scenario's products already built.
	buildMeshNs      = obs.GetHistogram("serve.build.mesh_ns")
	buildPartitionNs = obs.GetHistogram("serve.build.partition_ns")
	buildAnalyzeNs   = obs.GetHistogram("serve.build.analyze_ns")
	buildScheduleNs  = obs.GetHistogram("serve.build.schedule_ns")
	buildNewDistNs   = obs.GetHistogram("serve.build.newdist_ns")
	buildMeshShared  = obs.GetCounter("serve.build.mesh_shared")
)

// Key is the cache key of a solve's setup artifacts: everything the
// expensive pipeline stages depend on, and nothing they don't. Two
// requests with equal keys share one mesh, partition, schedule,
// assembly, and warm-worker pool.
type Key struct {
	Scenario string `json:"scenario"`
	P        int    `json:"pes"`
	Method   string `json:"method"`
	NodeSize int    `json:"nodesize"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/p%d/%s/node%d", k.Scenario, k.P, k.Method, k.NodeSize)
}

// Fingerprint is the FNV-1a hash of the canonical key encoding — the
// same hash family the regress golden file uses for the artifacts the
// key names.
func (k Key) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.String())) // fnv.Write never errors
	return h.Sum64()
}

// Fingerprints are the deterministic identities of one cache entry's
// artifacts: the key hash plus the regress FNV-1a fingerprints of the
// built mesh, partition, and exchange schedule. Equal fingerprints
// mean bit-identical artifacts — the same hashes the golden regression
// suite pins, so a client can correlate a served solve with the exact
// pinned pipeline state.
type Fingerprints struct {
	Key       uint64 `json:"key"`
	Mesh      uint64 `json:"mesh"`
	Partition uint64 `json:"partition"`
	Schedule  uint64 `json:"schedule"`
}

// onceCache is one level of the engine's build cache: each key's value
// is built at most once at a time and shared by every request that names
// the key. A failed build is not cached — its slot is dropped, so the
// requests already waiting on it get the error and the next one retries.
type onceCache[K comparable, V any] struct {
	mu    sync.Mutex
	slots map[K]*onceSlot[V]
}

type onceSlot[V any] struct {
	once sync.Once
	val  V
	err  error
	// built is set, under the cache's mutex, once val holds a value.
	built bool
}

// get returns k's value, calling build if no slot holds it yet. built
// reports whether this call ran the build.
func (c *onceCache[K, V]) get(k K, build func() (V, error)) (val V, built bool, err error) {
	c.mu.Lock()
	if c.slots == nil {
		c.slots = make(map[K]*onceSlot[V])
	}
	sl, ok := c.slots[k]
	if !ok {
		sl = &onceSlot[V]{}
		c.slots[k] = sl
	}
	c.mu.Unlock()

	sl.once.Do(func() {
		built = true
		sl.val, sl.err = build()
		c.mu.Lock()
		if sl.err == nil {
			sl.built = true
		} else if c.slots[k] == sl {
			delete(c.slots, k)
		}
		c.mu.Unlock()
	})
	return sl.val, built, sl.err
}

// values returns every built value; builds in flight are not waited for.
func (c *onceCache[K, V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals := make([]V, 0, len(c.slots))
	for _, sl := range c.slots {
		if sl.built {
			vals = append(vals, sl.val)
		}
	}
	return vals
}

// scenarioProducts is everything a build needs that depends on the
// scenario alone: built once per scenario and shared, immutable, by
// every tuple of it.
type scenarioProducts struct {
	mesh *mesh.Mesh
	// meshID is the recover-layer checkpoint identity of the mesh; a
	// durable checkpoint written against a different mesh is refused at
	// resume.
	meshID uint64
	// meshFP is the regress fingerprint of the mesh.
	meshFP uint64
	mat    *material.Model
	// massNode is the lumped mass (per mesh node), the diagonal the
	// shifted CG operator adds.
	massNode []float64
}

// artifact is everything a (scenario, p, method, nodesize) tuple needs
// to solve, built once and kept warm: the immutable setup products and
// a bounded pool of idle workers.
type artifact struct {
	key Key
	fp  Fingerprints
	*scenarioProducts
	part *partition.Partition
	prof *partition.Profile
	// nodeOf is the PE→node map of the exchange plan installed on every
	// worker's Dist (nil, every PE its own node, when nodesize ≤ 1).
	nodeOf func(pe int32) int32
	// ops are the per-PE operators of part, assembled by the build's
	// first worker and shared by every worker spawned after it. They are
	// values, not a worker: holding them pins no Dist's runtime.
	ops par.Operators

	// idle is the warm pool: persistent-PE operators whose workspaces also
	// hold the CG vectors of the one solve each serves at a time.
	mu     sync.Mutex
	idle   []*par.Dist
	warm   int
	closed bool
}

// artifact returns the cache entry for k, building it on first use.
// hit reports whether the artifacts already existed. Concurrent first
// requests for one key build once; the losers of the race block on the
// build and then count as hits (the setup they skipped is exactly the
// point).
func (e *Engine) artifact(k Key) (a *artifact, hit bool, err error) {
	if e.closingNow() {
		return nil, false, ErrClosed
	}
	a, built, err := e.entries.get(k, func() (*artifact, error) {
		cacheMisses.Add(1)
		return e.build(k)
	})
	if err != nil {
		return nil, false, err
	}
	if !built {
		cacheHits.Add(1)
	}
	return a, !built, nil
}

// scenario returns the per-scenario products of name, building them on
// the first tuple that names it.
func (e *Engine) scenario(name string) (*scenarioProducts, error) {
	sp, built, err := e.scenarios.get(name, func() (*scenarioProducts, error) {
		start := time.Now()
		scen, err := e.cfg.Scenarios(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		m, err := scen.Mesh()
		if err != nil {
			return nil, fmt.Errorf("serve: meshing %s: %w", name, err)
		}
		// The mesh caches its edge list on first use without locking;
		// asking here, under the scenario's once, leaves concurrent tuple
		// builds only reading it.
		m.Edges()
		mat := iq.Material()
		massNode, err := fem.LumpedMass(m, mat)
		if err != nil {
			return nil, fmt.Errorf("serve: lumping mass of %s: %w", name, err)
		}
		sp := &scenarioProducts{mesh: m, meshID: rec.MeshID(m), meshFP: regress.Mesh(m), mat: mat, massNode: massNode}
		buildMeshNs.Observe(int64(time.Since(start)))
		return sp, nil
	})
	if err == nil && !built {
		buildMeshShared.Add(1)
	}
	return sp, err
}

// build runs the setup pipeline for a key — the scenario's shared
// products, then partition, analysis, schedule, fingerprints — and
// pre-spawns one warm worker so the first solve pays no Dist
// construction either.
func (e *Engine) build(k Key) (*artifact, error) {
	span := obs.StartSpan(obs.TrackDriver, "serve", "serve.build")
	defer span.End()
	heap := markHeap()

	sp, err := e.scenario(k.Scenario)
	if err != nil {
		return nil, err
	}
	method, err := partition.MethodByName(k.Method)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	start := time.Now()
	// stage observes the time since the previous stage ended.
	stage := func(h *obs.Histogram) {
		now := time.Now()
		h.Observe(int64(now.Sub(start)))
		start = now
	}
	pt, err := partition.PartitionMesh(sp.mesh, k.P, method, 1)
	if err != nil {
		return nil, fmt.Errorf("serve: partitioning %s: %w", k, err)
	}
	stage(buildPartitionNs)
	pr, err := partition.Analyze(sp.mesh, pt)
	if err != nil {
		return nil, fmt.Errorf("serve: analyzing %s: %w", k, err)
	}
	stage(buildAnalyzeNs)
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		return nil, fmt.Errorf("serve: scheduling %s: %w", k, err)
	}
	a := &artifact{
		key:              k,
		scenarioProducts: sp,
		part:             pt,
		prof:             pr,
		warm:             e.cfg.WarmPool,
		fp: Fingerprints{
			Key:       k.Fingerprint(),
			Mesh:      sp.meshFP,
			Partition: regress.Partition(pt),
			Schedule:  regress.Schedule(sched),
		},
	}
	if k.NodeSize > 1 {
		a.nodeOf = comm.ContiguousNodes(k.NodeSize)
	}
	stage(buildScheduleNs)
	w, err := a.spawn()
	if err != nil {
		return nil, err
	}
	a.ops = w.Operators(pt)
	stage(buildNewDistNs)
	a.mu.Lock()
	a.idle = append(a.idle, w)
	a.mu.Unlock()
	heap.settle()
	return a, nil
}

// heapMark is the heap as a build starts: the bytes allocated so far
// and the live heap the last collection left.
type heapMark struct{ allocs, live uint64 }

func markHeap() heapMark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return heapMark{allocs: s[0].Value.Uint64(), live: s[1].Value.Uint64()}
}

// settle collects after a build that allocated more than the live heap
// it started from, and reports whether it did. Such a build is mostly
// transients (assembly, folding), and the collector's next target was
// set mid-build from a heap still holding them: the first solves would
// refill the heap up to that target, by an amount that depends on when
// the last cycle happened to run, and so would the process's peak
// resident size. Collecting here starts the first solve from the
// settled heap every time. A build into a cache larger than itself is
// left to the pacer, so what a collection marks stays in proportion to
// what the build allocated.
func (m heapMark) settle() bool {
	if markHeap().allocs-m.allocs <= m.live {
		return false
	}
	runtime.GC()
	return true
}

// spawn builds a fresh worker from the canonical artifacts: fresh
// runtime and workspaces, every operator shared with the artifact's
// (the build's first spawn, with none yet, assembles them).
func (a *artifact) spawn() (*par.Dist, error) {
	start := time.Now()
	d, err := par.NewDistSharing(a.mesh, a.mat, a.part, a.prof, a.ops)
	if err != nil {
		return nil, fmt.Errorf("serve: building Dist for %s: %w", a.key, err)
	}
	if err := d.SetAggregation(a.nodeOf); err != nil {
		d.Close()
		return nil, fmt.Errorf("serve: aggregating %s: %w", a.key, err)
	}
	poolSpawns.Add(1)
	poolSpawnNs.Observe(int64(time.Since(start)))
	return d, nil
}

// checkout takes an idle warm worker, or spawns a transient one when
// the pool is empty (concurrent solves beyond WarmPool).
func (a *artifact) checkout() (*par.Dist, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(a.idle); n > 0 {
		w := a.idle[n-1]
		a.idle = a.idle[:n-1]
		a.mu.Unlock()
		poolReuses.Add(1)
		return w, nil
	}
	a.mu.Unlock()
	return a.spawn()
}

// release returns a worker to the pool. Unhealthy workers (poisoned or
// superseded Dists) and overflow beyond the warm bound are closed
// instead; Dist.Close is idempotent, so a Dist the recovery supervisor
// already closed is safe here.
func (a *artifact) release(w *par.Dist, healthy bool) {
	if healthy {
		a.mu.Lock()
		if !a.closed && len(a.idle) < a.warm {
			a.idle = append(a.idle, w)
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
	}
	poolDiscards.Add(1)
	w.Close()
}

// Warm reports the idle warm workers currently pooled.
func (a *artifact) Warm() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.idle)
}

// close releases the pooled workers and refuses further checkouts.
func (a *artifact) close() {
	a.mu.Lock()
	idle := a.idle
	a.idle = nil
	a.closed = true
	a.mu.Unlock()
	for _, w := range idle {
		w.Close()
	}
}
