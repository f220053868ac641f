// Package recover turns the runtime's fault containment into
// availability. PR 3 made a PE panic detectable — the Dist poisons
// itself and every kernel fails fast — but recovery then meant
// rebuilding from scratch and losing all solver progress. The paper's
// observation that the SMVP exchange structure (F, C_max, B_max) is a
// static property of the partition is exactly what makes graceful
// degradation possible: when a PE dies, its element assignment can be
// folded into the surviving subdomains, the communication schedule
// re-derived for p−1 PEs, a fresh Dist constructed, and the solve
// resumed from its last consistent checkpoint.
//
// The package has three parts: the partition transitions —
// shrink-to-survivors (this file), regrowth (grow.go) and straggler
// rebalancing (rebalance.go) — the durable checkpoint codec and store
// (checkpoint.go), and the supervisor that ties them to solver.CG
// (supervise.go): the one loop that re-runs a solve after an
// interruption. The recovery guarantees and the p−1 remap procedure are
// documented in docs/RELIABILITY.md.
package recover

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
)

// DeadPE inspects a kernel error and reports the PE lost to a kill
// fault. It returns ok=false for every other error — including PE
// panics from software faults (*fault.Injected), which a caller may
// retry at full width rather than shrink over.
func DeadPE(err error) (pe int, ok bool) {
	var pf *par.PEFaultError
	if !errors.As(err, &pf) {
		return 0, false
	}
	if _, killed := pf.Val.(*fault.Killed); !killed {
		return 0, false
	}
	return pf.PE, true
}

// ShrinkPartition remaps the dead PE's elements onto the survivors and
// compacts the PE numbering to 0..P−2. Orphaned elements are absorbed
// by node-sharing neighbors — each round assigns every orphan adjacent
// to a survivor region to the least-loaded candidate (ties to the
// lowest PE id), then recomputes adjacency, so the orphan region is
// consumed inward from its boundary and the survivors' subdomains
// grow contiguously instead of being scattered by a full re-partition.
// The procedure is deterministic: identical inputs produce an
// identical partition, which is what lets internal/regress fingerprint
// the shrink.
func ShrinkPartition(m *mesh.Mesh, pt *partition.Partition, dead int) (*partition.Partition, error) {
	if pt.P < 2 {
		return nil, fmt.Errorf("recover: cannot shrink a %d-PE partition", pt.P)
	}
	if dead < 0 || dead >= pt.P {
		return nil, fmt.Errorf("recover: dead PE %d out of range [0,%d)", dead, pt.P)
	}
	if len(pt.ElemPE) != m.NumElems() {
		return nil, fmt.Errorf("recover: partition covers %d elements, mesh has %d", len(pt.ElemPE), m.NumElems())
	}

	pe := make([]int32, len(pt.ElemPE))
	copy(pe, pt.ElemPE)

	// Node → incident elements, built once; adjacency queries then walk
	// short per-node lists instead of rescanning the mesh every round.
	elemsOfNode := elementsOfNodes(m)
	load := make([]int, pt.P)
	var orphans []int32
	for e, p := range pe {
		load[p]++
		if int(p) == dead {
			orphans = append(orphans, int32(e))
		}
	}

	for len(orphans) > 0 {
		// Candidates are evaluated against the assignment entering the
		// round (BFS layers); loads update live so a big orphan region
		// spreads over several neighbors instead of piling onto one.
		assigned := make(map[int32]int32, len(orphans))
		for _, e := range orphans {
			best := int32(-1)
			for _, v := range m.Tets[e] {
				for _, ne := range elemsOfNode[v] {
					q := pe[ne]
					if int(q) == dead {
						continue
					}
					if best == -1 || load[q] < load[best] || (load[q] == load[best] && q < best) {
						best = q
					}
				}
			}
			if best >= 0 {
				assigned[e] = best
				load[best]++
			}
		}
		if len(assigned) == 0 {
			// No orphan touches a survivor region (a disconnected orphan
			// component): fall back to the globally least-loaded survivor.
			best := -1
			for q := 0; q < pt.P; q++ {
				if q == dead {
					continue
				}
				if best == -1 || load[q] < load[best] {
					best = q
				}
			}
			for _, e := range orphans {
				assigned[e] = int32(best)
				load[best]++
			}
		}
		next := orphans[:0]
		for _, e := range orphans {
			if q, ok := assigned[e]; ok {
				pe[e] = q
			} else {
				next = append(next, e)
			}
		}
		orphans = next
	}

	// Compact the numbering past the dead PE.
	out := &partition.Partition{P: pt.P - 1, ElemPE: pe}
	for e, p := range pe {
		if int(p) > dead {
			pe[e] = p - 1
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("recover: shrunk partition invalid: %w", err)
	}
	return out, nil
}

// ShrinkNodeOf composes a PE→node mapping past a dead PE: the returned
// function answers for the compacted numbering (0..P−2) by translating
// back to the pre-shrink PE id. Repeated shrinks compose by repeated
// application. Node ids keep their pre-shrink values; a node left
// empty by the death is simply never asked for. A nil map — every PE
// its own node — stays nil.
func ShrinkNodeOf(nodeOf func(pe int32) int32, dead int) func(pe int32) int32 {
	if nodeOf == nil {
		return nil
	}
	return func(pe int32) int32 {
		if pe >= int32(dead) {
			pe++
		}
		return nodeOf(pe)
	}
}

// Rebuilt is the outcome of one transition — a shrink (width p−1), a
// grow (width p+1) or a rebalance (width p) — carrying the new operator
// with its partition and analysis profile.
type Rebuilt struct {
	Dist      *par.Dist
	Partition *partition.Partition
	Profile   *partition.Profile
	// Donor is the PE (grown numbering) that seeded a revived PE's
	// region, the natural physical placement for the replacement; −1
	// when the transition is not a grow.
	Donor int
}

// rebuild is the tail every transition ends in: re-analyze the
// communication structure of the new partition and construct a fresh
// Dist on it, copying from src — the operators of the Dist it replaces,
// empty when there are none — every row the transition left interior
// (par.NewDistSharing). The old Dist is untouched and remains the
// caller's to Close; a closed one's operators stay readable.
func rebuild(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, src par.Operators) (*Rebuilt, error) {
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return nil, fmt.Errorf("recover: re-analyzing %d-PE partition: %w", pt.P, err)
	}
	d, err := par.NewDistSharing(m, mat, pt, pr, src)
	if err != nil {
		return nil, fmt.Errorf("recover: rebuilding Dist: %w", err)
	}
	return &Rebuilt{Dist: d, Partition: pt, Profile: pr, Donor: -1}, nil
}

// Shrink rebuilds the distributed operator on the survivors of dead:
// remap the dead PE's elements (ShrinkPartition), then rebuild at p−1,
// integrating every element. Supervise shrinks from the poisoned Dist's
// operators instead, which is the same operator for less work.
func Shrink(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, dead int) (*Rebuilt, error) {
	return shrink(m, mat, pt, dead, par.Operators{})
}

// shrink is Shrink copying from src, the operators built on pt. The
// poisoned Dist is untouched — the caller closes it once the
// checkpointed state has been scattered onto the replacement.
func shrink(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, dead int, src par.Operators) (*Rebuilt, error) {
	sp := obs.StartSpan(obs.TrackDriver, "recover", "recover.shrink")
	obs.GetCounter("recover.shrinks").Add(1)
	obs.RecordFlight(obs.FlightRecovery, "recover.shrink", dead, 0, 0)
	// A shrink means a PE is confirmed dead — preserve the ring now, so
	// the dump holds the final kernels of the full-width run.
	obs.DumpFlight("shrink to survivors")
	spt, err := ShrinkPartition(m, pt, dead)
	if err != nil {
		sp.End()
		return nil, err
	}
	reb, err := rebuild(m, mat, spt, src)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndWith(map[string]any{"dead_pe": dead, "survivors": spt.P})
	return reb, nil
}
