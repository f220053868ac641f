// Setup-layer benchmarks: the stages of one cold quaked build on the
// benchmark's build-bound tuple shape (sf10, 16 PEs), each timed alone.
// benchjson collects them in the report's setup section.
package quake_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	iq "repro/internal/quake"
	rec "repro/internal/recover"
)

func BenchmarkSetup(b *testing.B) {
	const p = 16
	m, err := iq.SF10.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	m.Edges() // cached on the mesh; not a per-build cost
	mat := iq.Material()
	pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		b.Fatal(err)
	}
	// The operators a respawn shares and a shrink copies rows from: one
	// assembly of the same partition.
	src, err := par.NewDist(m, mat, pt, pr)
	if err != nil {
		b.Fatal(err)
	}
	src.Close()
	ops := src.Operators(pt)
	// The 15 survivors of PE 0, what a supervised shrink builds.
	spt, err := rec.ShrinkPartition(m, pt, 0)
	if err != nil {
		b.Fatal(err)
	}
	spr, err := partition.Analyze(m, spt)
	if err != nil {
		b.Fatal(err)
	}
	stages := []struct {
		name string
		run  func() error
	}{
		{"partition_rcb", func() error { _, err := partition.PartitionMesh(m, p, partition.RCB, 1); return err }},
		{"partition_inertial", func() error { _, err := partition.PartitionMesh(m, p, partition.Inertial, 1); return err }},
		{"analyze", func() error { _, err := partition.Analyze(m, pt); return err }},
		{"schedule", func() error { _, err := comm.FromMatrix(pr.Msg); return err }},
		{"lumped_mass", func() error { _, err := fem.LumpedMass(m, mat); return err }},
		{"assemble", func() error { _, err := fem.Assemble(m, mat); return err }},
		{"newdist", func() error {
			d, err := par.NewDist(m, mat, pt, pr)
			if err == nil {
				d.Close()
			}
			return err
		}},
		{"respawn", func() error {
			d, err := par.NewDistSharing(m, mat, pt, pr, ops)
			if err == nil {
				d.Close()
			}
			return err
		}},
		{"shrink", func() error {
			d, err := par.NewDistSharing(m, mat, spt, spr, ops)
			if err == nil {
				d.Close()
			}
			return err
		}},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
