package regress

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/solver"
)

// TestResumeBitIdenticalThroughDisk certifies the durable restart
// guarantee end to end: a distributed CG solve that checkpoints to
// disk, is "interrupted" (a second process simulated by fresh state),
// and resumes from the store's latest snapshot produces a solution
// vector whose fingerprint is bit-identical to the uninterrupted run.
// This is the same store/resume path `quakesim -checkpoint/-resume`
// drives from the CLI. Fingerprints are compared in-process — the
// golden file pins only integer artifacts (see Vector).
func TestResumeBitIdenticalThroughDisk(t *testing.T) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	mat := quake.Material()
	pt, err := partition.PartitionMesh(m, 4, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * m.NumNodes()
	rng := rand.New(rand.NewSource(77))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	meshID := rec.MeshID(m)
	cfg := solver.Config{MaxIter: 6 * n, Tol: 1e-10}

	// Uninterrupted run, checkpointing every 5 iterations to disk.
	store, err := rec.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := par.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, n)
	out, err := rec.Supervise(d1, &rec.System{Mesh: m, Material: mat, Part: pt, Shift: 20, MassNode: sys.MassNode},
		b, ref, rec.SuperviseConfig{Solver: withCkpt(cfg, 5), Store: store, MeshID: meshID})
	d1.Close()
	if err != nil || !out.Result.Converged {
		t.Fatalf("uninterrupted solve: err=%v", err)
	}

	// "Crash": all in-memory state is discarded; only the store
	// survives. Resume from its latest snapshot on a fresh Dist.
	ck, path, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.MeshID != meshID {
		t.Fatalf("checkpoint %s carries mesh id %x, want %x", path, ck.MeshID, meshID)
	}
	if int(ck.P) != pt.P {
		t.Fatalf("checkpoint width %d, want %d", ck.P, pt.P)
	}
	d2, err := par.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]float64, n)
	rcfg := cfg
	rcfg.Resume = ck.State()
	res, err := solver.CG(par.Operator{D: d2, Shift: 20, MassNode: sys.MassNode}, b, got, rcfg)
	if err != nil || !res.Converged {
		t.Fatalf("resumed solve: err=%v", err)
	}

	if rf, gf := Vector(ref), Vector(got); rf != gf {
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("resumed run diverged at scalar %d: %x vs %x (fingerprints %016x vs %016x)",
					i, got[i], ref[i], gf, rf)
			}
		}
		t.Fatalf("fingerprints differ (%016x vs %016x) with no differing scalar", gf, rf)
	}
	if math.Float64bits(res.Residual) != math.Float64bits(out.Result.Residual) {
		t.Fatalf("final residuals differ: %x vs %x", res.Residual, out.Result.Residual)
	}
}

func withCkpt(cfg solver.Config, every int) solver.Config {
	cfg.CheckpointEvery = every
	return cfg
}
