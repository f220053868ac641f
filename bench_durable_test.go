// Durable-path benchmarks: what one cached quaked solve pays for
// surviving its process, each term alone, on the benchmark's
// write-path-bound tuple (sf10, 4 PEs, nodes of 2 — an 834 KB snapshot
// every 10 iterations). benchjson collects them in the report's durable
// section; the sixth term, journal_append, is BenchmarkDurable in
// internal/serve, next to the journal it times.
package quake_test

import (
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	iq "repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/solver"
)

func BenchmarkDurable(b *testing.B) {
	const p = 4
	m, err := iq.SF10.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	mat := iq.Material()
	massNode, err := fem.LumpedMass(m, mat)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		b.Fatal(err)
	}
	d, err := par.NewDist(m, mat, pt, pr)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
		b.Fatal(err)
	}
	n := 3 * m.NumNodes()
	rhs := make([]float64, n)
	rhs[2], rhs[n-1] = 50, -20
	sys := &rec.System{Mesh: m, Material: mat, Part: pt, Shift: 20, MassNode: massNode}
	meshID := rec.MeshID(m)

	// supervise runs one solve as serve runs it and returns the last
	// snapshot it took.
	supervise := func(b *testing.B, store *rec.Store) *solver.State {
		var last *solver.State
		out, err := rec.Supervise(d, sys, rhs, make([]float64, n), rec.SuperviseConfig{
			Solver: solver.Config{MaxIter: 4 * n, Tol: 1e-8, CheckpointEvery: 10,
				OnCheckpoint: func(st *solver.State) { last = st }},
			Store: store, MeshID: meshID,
		})
		if err != nil || !out.Result.Converged {
			b.Fatalf("supervised solve: %+v, %v", out.Result, err)
		}
		return last
	}
	newStore := func(b *testing.B, keep int) *rec.Store {
		store, err := rec.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		store.Keep = keep
		return store
	}
	st := supervise(b, nil)
	ck := &rec.Checkpoint{MeshID: meshID, P: p, ElemPE: pt.ElemPE,
		Iter: int64(st.Iter), Rho: st.Rho, X: st.X, R: st.R, PDir: st.P}

	b.Run("ckpt_encode", func(b *testing.B) {
		b.ReportAllocs()
		size := 0
		for i := 0; i < b.N; i++ {
			size = len(ck.Encode())
		}
		b.SetBytes(int64(size))
	})
	// A snapshot into a file of its own: encode, create, write, fsync,
	// rename. The directory is held to a window outside the timer.
	b.Run("ckpt_save_new", func(b *testing.B) {
		store := newStore(b, 0)
		var window []string
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ck.Iter++
			path, err := store.Save(ck)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if window = append(window, path); len(window) > 3 {
				if err := os.Remove(window[0]); err != nil {
					b.Fatal(err)
				}
				window = window[1:]
			}
			b.StartTimer()
		}
	})
	// The steady state of a windowed store: the snapshot overwrites the
	// file that leaves the window.
	b.Run("ckpt_save_recycled", func(b *testing.B) {
		store := newStore(b, 3)
		for i := 0; i < 3; i++ {
			ck.Iter++
			if _, err := store.Save(ck); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ck.Iter++
			if _, err := store.Save(ck); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One whole solve without and with a checkpoint store: the
	// difference is what durability costs the solve's critical path.
	b.Run("supervise_bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			supervise(b, nil)
		}
	})
	b.Run("supervise_durable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			supervise(b, newStore(b, 3))
		}
	})
}
