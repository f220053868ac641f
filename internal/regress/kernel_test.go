package regress

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/solver"
)

// TestResidentCGLeavesPipelineUntouched is the golden guard of the
// PE-resident CG: hosting a solve on the PEs is a pure scheduling
// change, so (1) the plain SMVP must produce the bit-identical product
// vector before and after a resident solve has used the same PE
// workspaces (and the canonical-order exchange it shares), and (2) the
// solve must not perturb any pipeline product upstream of the kernel —
// the mesh, the partition, and the re-derived exchange schedule hash
// exactly as before. Combined with TestGoldenFingerprints (which pins
// those hashes and the SMVP vectors against the golden file), this
// proves a kernel change cannot silently leak into the partitioning or
// communication layers.
func TestResidentCGLeavesPipelineUntouched(t *testing.T) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 8, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		t.Fatal(err)
	}
	meshFP, partFP, schedFP := Mesh(m), Partition(pt), Schedule(sched)

	dist, err := par.NewDist(m, quake.Material(), pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	n := 3 * m.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)) * 0.5
	}
	y := make([]float64, n)
	yf := make([]float64, n)
	if _, err := dist.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
	sys, err := fem.Assemble(m, quake.Material())
	if err != nil {
		t.Fatal(err)
	}
	sol := make([]float64, n)
	res, err := solver.CG(par.Operator{D: dist, Shift: 20, MassNode: sys.MassNode}, x, sol,
		solver.Config{MaxIter: n, Tol: 1e-8})
	if err != nil || !res.Converged {
		t.Fatalf("resident solve: %+v, err=%v", res, err)
	}
	if _, err := dist.SMVP(yf, x); err != nil {
		t.Fatal(err)
	}
	if Vector(y) != Vector(yf) {
		t.Error("SMVP after a resident solve is not bit-identical to the one before")
	}

	// Re-derive the schedule from a fresh analysis after the kernels ran:
	// every upstream fingerprint must be exactly what it was.
	pr2, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := comm.FromMatrix(pr2.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if Mesh(m) != meshFP {
		t.Error("mesh fingerprint drifted after kernel runs")
	}
	if Partition(pt) != partFP {
		t.Error("partition fingerprint drifted after kernel runs")
	}
	if Schedule(sched2) != schedFP {
		t.Error("re-derived schedule fingerprint drifted after kernel runs")
	}
}
