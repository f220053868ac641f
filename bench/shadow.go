package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/regress"
	"repro/internal/serve"
	"repro/internal/solver"
)

// spanOp times every operator application of a CG solve as a child span
// of the solve. It deliberately does not implement ApplyDot, so CG takes
// the same unfused path through par.Operator.Apply that serve takes.
type spanOp struct {
	op     par.Operator
	tr     *tracer
	parent int
}

func (o *spanOp) Apply(y, x []float64) error {
	id := o.tr.begin(o.parent, 0, "par", "par.apply")
	err := o.op.Apply(y, x)
	o.tr.end(id)
	return err
}

func (o *spanOp) Dim() int { return o.op.Dim() }

func unitNormal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// shadow replays the workload's pipeline stage by stage inside the bench
// process, with a span around each call into a layer's public function,
// and returns the per-layer numbers that can only be had that way. It
// solves its own seeded right-hand side (serve's is unexported), so the
// solver figures are per-iteration costs and shares; iteration counts
// come from quaked's responses.
func (r *runner) shadow(ctx context.Context, tr *tracer, w *workload, dir string) (map[string]float64, error) {
	req := w.shadow
	root := tr.begin(-1, 0, "bench", "shadow")
	defer tr.end(root)
	open := func(layer, name string) func() {
		id := tr.begin(root, 0, layer, name)
		return func() { tr.end(id) }
	}
	fail := func(stage string, err error) (map[string]float64, error) {
		return nil, fmt.Errorf("shadow pipeline of %s: %s: %w", w.name, stage, err)
	}

	// Build stages, in serve's order.
	scen, err := quake.ByName(req.Scenario)
	if err != nil {
		return fail("scenario", err)
	}
	done := open("mesh", "mesh.build")
	m, err := scen.Build()
	done()
	if err != nil {
		return fail("mesh", err)
	}
	methodName := req.Method
	if methodName == "" {
		methodName = "rcb"
	}
	method, err := partition.MethodByName(methodName)
	if err != nil {
		return fail("method", err)
	}
	done = open("partition", "partition.partition")
	pt, err := partition.PartitionMesh(m, req.PEs, method, 1)
	done()
	if err != nil {
		return fail("partition", err)
	}
	done = open("partition", "partition.analyze")
	pr, err := partition.Analyze(m, pt)
	done()
	if err != nil {
		return fail("analyze", err)
	}
	done = open("comm", "comm.schedule")
	sched, err := comm.FromMatrix(pr.Msg)
	done()
	if err != nil {
		return fail("schedule", err)
	}
	nodeOf := comm.ContiguousNodes(max(req.NodeSize, 1))
	done = open("comm", "comm.aggregate")
	_, err = comm.Aggregate(sched, nodeOf)
	done()
	if err != nil {
		return fail("aggregate", err)
	}
	mat := quake.Material()
	done = open("fem", "fem.assemble")
	sys, err := fem.Assemble(m, mat)
	done()
	if err != nil {
		return fail("assemble", err)
	}
	done = open("regress", "regress.fingerprint")
	regress.Mesh(m)
	regress.Partition(pt)
	regress.Schedule(sched)
	done()
	done = open("recover", "recover.mesh_id")
	meshID := rec.MeshID(m)
	done()
	done = open("par", "par.newdist")
	d, err := par.NewDist(m, mat, pt, pr)
	if err == nil && req.NodeSize > 1 {
		err = d.SetAggregation(nodeOf)
	}
	done()
	if err != nil {
		return fail("NewDist", err)
	}
	defer d.Close()

	// The distributed kernel and its single-threaded baseline on the
	// assembled global K.
	n := 3 * m.NumNodes()
	x, y := unitNormal(1, n), make([]float64, n)
	var compute, exchange, lambda []float64
	for i := 0; i < 3; i++ { // warm the buffers, unrecorded
		if _, err := d.SMVP(y, x); err != nil {
			return fail("SMVP", err)
		}
		sys.K.MulVec(y, x)
	}
	for i := 0; i < r.smvpReps; i++ {
		id := tr.begin(root, 0, "par", "par.smvp")
		tm, err := d.SMVP(y, x)
		tr.end(id)
		if err != nil {
			return fail("SMVP", err)
		}
		compute = append(compute, tm.MaxCompute().Seconds())
		exchange = append(exchange, tm.MaxComm().Seconds())
		var sum float64
		for _, c := range tm.Compute {
			sum += c.Seconds()
		}
		if sum > 0 {
			lambda = append(lambda, tm.MaxCompute().Seconds()*float64(len(tm.Compute))/sum)
		}
	}
	for i := 0; i < r.smvpReps; i++ {
		done = open("sparse", "sparse.mulvec")
		sys.K.MulVec(y, x)
		done()
	}

	// One CG solve as serve runs it (checkpoint every 10 iterations,
	// snapshot retained), capped so the large mesh stays affordable:
	// first unrecorded to warm up, then with a span per Apply, then bare
	// and under an idle supervisor for the supervisor's overhead.
	tol := req.Tol
	b := unitNormal(2, n)
	var last *solver.State
	cfg := solver.Config{MaxIter: r.shadowCap, Tol: tol, CheckpointEvery: 10,
		OnCheckpoint: func(st *solver.State) { last = st }, Workspace: solver.NewWorkspace(n)}
	op := par.Operator{D: d, Shift: 20, MassNode: sys.MassNode}
	zero := func() {
		for i := range x {
			x[i] = 0
		}
	}
	zero()
	if _, err := solver.CG(op, b, x, cfg); err != nil {
		return fail("warm-up CG", err)
	}
	zero()
	cgID := tr.begin(root, 0, "solver", "solver.cg")
	res, err := solver.CG(&spanOp{op: op, tr: tr, parent: cgID}, b, x, cfg)
	tr.end(cgID)
	if err != nil {
		return fail("CG", err)
	}
	for i := 0; i < 3; i++ { // alternated, so drift hits both alike
		zero()
		done = open("solver", "solver.cg_bare")
		_, err = solver.CG(op, b, x, cfg)
		done()
		if err != nil {
			return fail("bare CG", err)
		}
		zero()
		done = open("recover", "recover.supervise")
		_, err = rec.Supervise(d, &rec.System{Mesh: m, Material: mat, Part: pt, Shift: 20, MassNode: sys.MassNode},
			b, x, rec.SuperviseConfig{Solver: cfg})
		done()
		if err != nil {
			return fail("Supervise", err)
		}
	}

	// What serve does after the solve: certify with one independent
	// operator application, fingerprint the solution.
	ax := make([]float64, n)
	done = open("serve", "serve.certify")
	err = op.Apply(ax, x)
	var rr float64
	for i := range ax {
		diff := b[i] - ax[i]
		rr += diff * diff
	}
	done()
	if err != nil {
		return fail("certify", err)
	}
	for i := 0; i < 5; i++ {
		done = open("regress", "regress.vector")
		regress.Vector(x)
		done()
	}

	// Recovery building blocks on the same tuple.
	ck := &rec.Checkpoint{MeshID: meshID, P: int32(pt.P), ElemPE: pt.ElemPE,
		Iter: int64(last.Iter), Rho: last.Rho, X: last.X, R: last.R, PDir: last.P}
	var ckptBytes int
	store, err := rec.NewStore(filepath.Join(dir, "shadow-ckpt"))
	if err != nil {
		return fail("checkpoint store", err)
	}
	for i := 0; i < 10; i++ {
		done = open("recover", "recover.ckpt_encode")
		ckptBytes = len(ck.Encode())
		done()
		ck.Iter = int64(i) // a file of its own each time, as in a solve
		done = open("recover", "recover.ckpt_save")
		_, err = store.Save(ck)
		done()
		if err != nil {
			return fail("checkpoint save", err)
		}
	}
	if pt.P >= 2 {
		dead := pt.P - 1
		done = open("recover", "recover.shrink")
		sh, err := rec.Shrink(m, mat, pt, dead)
		done()
		if err != nil {
			return fail("Shrink", err)
		}
		done = open("recover", "recover.grow")
		gr, err := rec.Grow(m, mat, sh.Partition, dead)
		done()
		sh.Dist.Close()
		if err != nil {
			return fail("Grow", err)
		}
		gr.Dist.Close()
	}

	// serve itself, in process: the request decoder, and Engine.Solve
	// cold, cached, and cached with the journal on. The mesh cache is
	// heated first, as quaked's is after set-up.
	sreq := req
	sreq.RHSSeed = 1
	body := newOp(0, sreq).body
	for i := 0; i < 200; i++ {
		done = open("serve", "serve.decode")
		_, err = serve.DecodeSolveRequest(bytes.NewReader(body))
		done()
		if err != nil {
			return fail("decode", err)
		}
	}
	if _, err := scen.Mesh(); err != nil {
		return fail("mesh cache", err)
	}
	for _, e := range []struct{ journal, cold, cached string }{
		{"", "serve.engine_cold", "serve.engine_cached"},
		{filepath.Join(dir, "shadow-journal"), "", "serve.engine_durable"},
	} {
		eng, err := serve.NewEngine(serve.Config{JournalDir: e.journal})
		if err != nil {
			return fail("engine", err)
		}
		for _, name := range []string{e.cold, e.cached} {
			done = func() {}
			if name != "" {
				done = open("serve", name)
			}
			_, err = eng.Solve(ctx, &sreq)
			done()
			if err != nil {
				eng.Close()
				return fail("Engine.Solve", err)
			}
		}
		eng.Close()
	}

	ms := func(name string) float64 { total, _ := tr.durations(name); return 1e3 * median(total) }
	us := func(name string) float64 { return 1e3 * ms(name) }
	_, cgSelf := tr.durations("solver.cg")
	iters := float64(max(res.Iterations, 1))
	var flops float64
	for _, f := range d.FlopsPerPE() {
		flops += float64(f)
	}
	kFlops := float64(2 * sys.K.NNZ())
	kBytes := float64(8*len(sys.K.Val) + 4*len(sys.K.Col) + 8*len(sys.K.RowOff) + 2*8*n)
	smvpUS, computeUS, exchangeUS := us("par.smvp"), 1e6*median(compute), 1e6*median(exchange)
	v := map[string]float64{
		"mesh.build_ms":            ms("mesh.build"),
		"mesh.nodes":               float64(m.NumNodes()),
		"mesh.elems":               float64(m.NumElems()),
		"partition.partition_ms":   ms("partition.partition"),
		"partition.analyze_ms":     ms("partition.analyze"),
		"partition.cmax_words":     float64(pr.Cmax()),
		"partition.bmax_blocks":    float64(pr.Bmax()),
		"partition.load_imbalance": pr.LoadImbalance(),
		"comm.schedule_ms":         ms("comm.schedule"),
		"comm.aggregate_ms":        ms("comm.aggregate"),
		"fem.assemble_ms":          ms("fem.assemble"),
		"regress.fingerprint_ms":   ms("regress.fingerprint"),
		"regress.vector_us":        us("regress.vector"),
		"recover.mesh_id_ms":       ms("recover.mesh_id"),
		"par.newdist_ms":           ms("par.newdist"),
		"par.smvp_us":              smvpUS,
		"par.smvp_compute_us":      computeUS,
		"par.smvp_exchange_us":     exchangeUS,
		"par.smvp_dispatch_us":     max(0, smvpUS-computeUS-exchangeUS),
		"par.lambda_compute":       median(lambda),
		"par.flops_per_smvp":       flops,
		"par.mflops":               flops / smvpUS,
		"sparse.mulvec_us":         us("sparse.mulvec"),
		"sparse.flops":             kFlops,
		"sparse.bytes_computed":    kBytes,
		"sparse.flops_per_byte":    kFlops / kBytes,
		"sparse.mflops":            kFlops / us("sparse.mulvec"),
		// Per-iteration costs of the shadow's own solve; layers() scales
		// them to the iteration count quaked reported.
		"solver.cg_ms":                  ms("solver.cg") / iters,
		"solver.vector_ms":              1e3 * cgSelf[0] / iters,
		"recover.ckpt_encode_us":        us("recover.ckpt_encode"),
		"recover.ckpt_save_us":          us("recover.ckpt_save"),
		"recover.ckpt_bytes":            float64(ckptBytes),
		"recover.shrink_ms":             ms("recover.shrink"),
		"recover.grow_ms":               ms("recover.grow"),
		"recover.supervise_overhead_ms": ms("recover.supervise") - ms("solver.cg_bare"),
		"serve.decode_us":               us("serve.decode"),
		"serve.engine_solve_ms":         ms("serve.engine_cached"),
		"serve.durable_overhead_ms":     ms("serve.engine_durable") - ms("serve.engine_cached"),
		"serve.build_ms":                ms("serve.engine_cold") - ms("serve.engine_cached"),
		"serve.certify_ms":              ms("serve.certify"),
	}
	v["solver.apply_ms"] = v["solver.cg_ms"] - v["solver.vector_ms"]
	v["solver.apply_share"] = v["solver.apply_ms"] / v["solver.cg_ms"]
	return v, nil
}
