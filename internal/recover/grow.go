package recover

import (
	"fmt"
	"slices"

	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
)

// GrowPartition is the dual of ShrinkPartition: it inserts a recovered
// PE at slot revived (existing PEs ≥ revived renumber up) and grows its
// region toward the balanced share ne/(P+1) by peeling whole BFS
// boundary layers off overloaded neighbors. The region is seeded with
// the lowest-indexed element of the most-loaded donor (ties to the
// lowest PE id); each round then claims every element node-adjacent to
// the region as it stood entering the round, ascending by element id,
// skipping donors already at or below the target so no neighbor is
// drained past balance. Like the shrink, the procedure is deterministic
// — identical inputs produce an identical partition — which is what
// lets internal/regress fingerprint the regrowth. The returned donor is
// the seed's PE in the grown numbering; callers co-locating the revived
// PE use it to pick a physical placement.
func GrowPartition(m *mesh.Mesh, pt *partition.Partition, revived int) (*partition.Partition, int, error) {
	if pt.P < 1 {
		return nil, -1, fmt.Errorf("recover: cannot grow a %d-PE partition", pt.P)
	}
	if revived < 0 || revived > pt.P {
		return nil, -1, fmt.Errorf("recover: revived slot %d out of range [0,%d]", revived, pt.P)
	}
	if len(pt.ElemPE) != m.NumElems() {
		return nil, -1, fmt.Errorf("recover: partition covers %d elements, mesh has %d", len(pt.ElemPE), m.NumElems())
	}
	newP := pt.P + 1
	ne := m.NumElems()
	if newP > ne {
		return nil, -1, fmt.Errorf("recover: growing to %d PEs with only %d elements", newP, ne)
	}

	pe := make([]int32, len(pt.ElemPE))
	for e, p := range pt.ElemPE {
		if int(p) >= revived {
			p++
		}
		pe[e] = p
	}
	load := make([]int, newP)
	for _, p := range pe {
		load[p]++
	}

	// The balanced share the revived PE grows toward. Donors above it
	// may give; donors at or below it are left alone.
	target := ne / newP
	if target < 1 {
		target = 1
	}

	// Seed: the lowest-indexed element of the most-loaded donor, so the
	// region starts in the thick of the imbalance the death created.
	donor := -1
	for q := 0; q < newP; q++ {
		if q == revived {
			continue
		}
		if donor == -1 || load[q] > load[donor] {
			donor = q
		}
	}
	seed := int32(slices.Index(pe, int32(donor)))
	pe[seed] = int32(revived)
	load[donor]--
	load[revived]++

	// The frontier: every element outside the region node-adjacent to
	// it. A round claims from it against the region as it stood entering
	// the round (BFS layers), ascending; the claimed elements then leave
	// it and their outside neighbors join, so a round walks the
	// frontier, not the mesh.
	elemsOfNode := elementsOfNodes(m)
	inFront := make([]bool, ne)
	var front []int32
	widen := func(e int32) {
		for _, v := range m.Tets[e] {
			for _, nb := range elemsOfNode[v] {
				if int(pe[nb]) != revived && !inFront[nb] {
					inFront[nb] = true
					front = append(front, nb)
				}
			}
		}
	}
	widen(seed)
	var claimed []int32
	for load[revived] < target {
		// Loads update live so the claim stops the moment a donor
		// reaches the target.
		slices.Sort(front)
		claimed = claimed[:0]
		for _, e := range front {
			if load[revived] >= target {
				break
			}
			q := pe[e]
			if load[q] <= target {
				continue
			}
			pe[e] = int32(revived)
			load[q]--
			load[revived]++
			claimed = append(claimed, e)
		}
		if len(claimed) == 0 {
			// Every adjacent donor is at the target already; growing
			// further would just relocate the imbalance.
			break
		}
		front = slices.DeleteFunc(front, func(e int32) bool { return int(pe[e]) == revived })
		for _, e := range claimed {
			widen(e)
		}
	}

	out := &partition.Partition{P: newP, ElemPE: pe}
	if err := out.Validate(); err != nil {
		return nil, -1, fmt.Errorf("recover: grown partition invalid: %w", err)
	}
	return out, donor, nil
}

// GrowNodeOf composes a PE→node mapping across an insertion at slot
// revived: the revived PE takes the physical node of its donor (a
// post-grow PE id), PEs past the slot translate back to their pre-grow
// ids. The exact inverse of ShrinkNodeOf, and repeated grows compose by
// repeated application. A nil map — every PE its own node — stays nil:
// the revived PE gets a node of its own.
func GrowNodeOf(nodeOf func(pe int32) int32, revived, donor int) func(pe int32) int32 {
	if nodeOf == nil {
		return nil
	}
	return func(pe int32) int32 {
		if pe == int32(revived) {
			pe = int32(donor)
		}
		if pe > int32(revived) {
			pe--
		}
		return nodeOf(pe)
	}
}

// Grow rebuilds the distributed operator at width P+1 with a recovered
// PE at slot revived: regrow the partition (GrowPartition), then
// rebuild, integrating every element. The mirror of Shrink; Supervise
// grows from the superseded Dist's operators instead.
func Grow(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, revived int) (*Rebuilt, error) {
	return grow(m, mat, pt, revived, par.Operators{})
}

// grow is Grow copying from src, the operators built on pt.
func grow(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, revived int, src par.Operators) (*Rebuilt, error) {
	sp := obs.StartSpan(obs.TrackDriver, "recover", "recover.grow")
	obs.GetCounter("recover.grows").Add(1)
	obs.RecordFlight(obs.FlightRecovery, "recover.grow", revived, 0, 0)
	gpt, donor, err := GrowPartition(m, pt, revived)
	if err != nil {
		sp.End()
		return nil, err
	}
	reb, err := rebuild(m, mat, gpt, src)
	if err != nil {
		sp.End()
		return nil, err
	}
	reb.Donor = donor
	sp.EndWith(map[string]any{"revived_pe": revived, "width": gpt.P})
	return reb, nil
}

// elementsOfNodes lists every node's incident elements, ascending, in
// one backing array.
func elementsOfNodes(m *mesh.Mesh) [][]int32 {
	off := make([]int32, m.NumNodes()+1)
	for _, t := range m.Tets {
		for _, v := range t {
			off[v+1]++
		}
	}
	for v := range m.NumNodes() {
		off[v+1] += off[v]
	}
	all := make([]int32, off[m.NumNodes()])
	out := make([][]int32, m.NumNodes())
	for v := range out {
		out[v] = all[off[v]:off[v]:off[v+1]]
	}
	for e, t := range m.Tets {
		for _, v := range t {
			out[v] = append(out[v], int32(e))
		}
	}
	return out
}
