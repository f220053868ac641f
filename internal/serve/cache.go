package serve

import (
	"fmt"
	"hash/fnv"
	"sync"

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
	sessionsOpened  = obs.GetCounter("serve.sessions.opened")
	sessionsClosed  = obs.GetCounter("serve.sessions.closed")
	streamEvents    = obs.GetCounter("serve.stream.events")
	solvesSupervise = obs.GetCounter("serve.solves.supervised")
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

// entry is one cache slot: built at most once, shared by every
// request that hashes to its key.
type entry struct {
	once sync.Once
	art  *artifact
	err  error
}

// worker is one warm pool member: a persistent-PE distributed operator,
// whose PE workspaces also hold the iteration vectors of the CG solve it
// is serving. A worker serves one solve at a time.
type worker struct {
	dist *par.Dist
}

// artifact is everything a (scenario, p, method, nodesize) tuple needs
// to solve, built once and kept warm: the immutable setup products and
// a bounded pool of idle workers.
type artifact struct {
	key  Key
	fp   Fingerprints
	mesh *mesh.Mesh
	// meshID is the recover-layer checkpoint identity of the mesh; a
	// durable checkpoint written against a different mesh is refused at
	// resume.
	meshID uint64
	mat    *material.Model
	// massNode is the assembled lumped mass (per mesh node), the
	// diagonal the shifted CG operator adds.
	massNode []float64
	part     *partition.Partition
	prof     *partition.Profile
	sched    *comm.Schedule
	// nodeOf is the two-level aggregation map (nil when nodesize ≤ 1);
	// it is installed on every worker's Dist.
	nodeOf func(pe int32) int32

	mu     sync.Mutex
	idle   []*worker
	warm   int
	closed bool
}

// artifact returns the cache entry for k, building it on first use.
// hit reports whether the artifacts already existed. Concurrent first
// requests for one key build once; the losers of the race block on the
// build and then count as hits (the setup they skipped is exactly the
// point).
func (e *Engine) artifact(k Key) (a *artifact, hit bool, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, false, ErrClosed
	}
	en, ok := e.entries[k]
	if !ok {
		en = &entry{}
		e.entries[k] = en
	}
	e.mu.Unlock()

	built := false
	en.once.Do(func() {
		built = true
		cacheMisses.Add(1)
		en.art, en.err = e.build(k)
	})
	if en.err != nil {
		return nil, false, en.err
	}
	if !built {
		cacheHits.Add(1)
	}
	return en.art, !built, nil
}

// build runs the full setup pipeline for a key — mesh, partition,
// analysis, schedule, assembly, fingerprints — and pre-spawns one warm
// worker so the first solve pays no Dist construction either.
func (e *Engine) build(k Key) (*artifact, error) {
	sp := obs.StartSpan(obs.TrackDriver, "serve", "serve.build")
	defer sp.End()

	scen, err := e.cfg.Scenarios(k.Scenario)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	m, err := scen.Mesh()
	if err != nil {
		return nil, fmt.Errorf("serve: meshing %s: %w", k.Scenario, err)
	}
	method, err := partition.MethodByName(k.Method)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	pt, err := partition.PartitionMesh(m, k.P, method, 1)
	if err != nil {
		return nil, fmt.Errorf("serve: partitioning %s: %w", k, err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return nil, fmt.Errorf("serve: analyzing %s: %w", k, err)
	}
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		return nil, fmt.Errorf("serve: scheduling %s: %w", k, err)
	}
	mat := iq.Material()
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		return nil, fmt.Errorf("serve: assembling %s: %w", k.Scenario, err)
	}
	a := &artifact{
		key:    k,
		mesh:   m,
		meshID: rec.MeshID(m),
		mat:    mat,
		// The mesh and massNode are shared across all workers and
		// solves; both are treated as immutable from here on.
		massNode: sys.MassNode,
		part:     pt,
		prof:     pr,
		sched:    sched,
		warm:     e.cfg.WarmPool,
		fp: Fingerprints{
			Key:       k.Fingerprint(),
			Mesh:      regress.Mesh(m),
			Partition: regress.Partition(pt),
			Schedule:  regress.Schedule(sched),
		},
	}
	if k.NodeSize > 1 {
		a.nodeOf = comm.ContiguousNodes(k.NodeSize)
	}
	w, err := a.spawn()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.idle = append(a.idle, w)
	a.mu.Unlock()
	return a, nil
}

// spawn builds a fresh worker from the canonical artifacts.
func (a *artifact) spawn() (*worker, error) {
	d, err := par.NewDist(a.mesh, a.mat, a.part, a.prof)
	if err != nil {
		return nil, fmt.Errorf("serve: building Dist for %s: %w", a.key, err)
	}
	if a.nodeOf != nil {
		if err := d.SetAggregation(a.nodeOf); err != nil {
			d.Close()
			return nil, fmt.Errorf("serve: aggregating %s: %w", a.key, err)
		}
	}
	poolSpawns.Add(1)
	return &worker{dist: d}, nil
}

// checkout takes an idle warm worker, or spawns a transient one when
// the pool is empty (concurrent solves beyond WarmPool).
func (a *artifact) checkout() (*worker, error) {
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
func (a *artifact) release(w *worker, healthy bool) {
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
	w.dist.Close()
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
		w.dist.Close()
	}
}
