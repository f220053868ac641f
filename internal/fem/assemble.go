package fem

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// System holds the assembled spatial discretization: the global
// stiffness matrix K (3n×3n in 3×3-block CSR form) and the lumped mass
// vector (one positive scalar per node, shared by its three DOF).
type System struct {
	Mesh *mesh.Mesh
	K    *sparse.BCSR
	// MassNode[i] is the lumped mass at node i; the scalar mass matrix
	// diagonal is MassNode repeated three times per node.
	MassNode []float64
	// MaxVp is the largest compressional wave speed encountered during
	// assembly, used for the stability estimate.
	MaxVp float64
	// MinEdge is the shortest element edge encountered, used for the
	// stability estimate.
	MinEdge float64
}

// Assemble builds the global stiffness and lumped mass for the mesh,
// sampling the material model at each element centroid (constant
// properties per element, the usual choice for constant-strain tets):
// AssembleLocal over every node and element, then the scan for the
// stability bounds.
func Assemble(m *mesh.Mesh, mat *material.Model) (*System, error) {
	if err := mat.Validate(); err != nil {
		return nil, err
	}
	if m.NumElems() == 0 {
		return nil, fmt.Errorf("fem: empty mesh")
	}
	nodes, elems := iota32(m.NumNodes()), iota32(m.NumElems())
	k, err := AssembleLocal(m, mat, nodes, elems, &AssemblyScratch{})
	if err != nil {
		return nil, fmt.Errorf("fem: %w", err)
	}
	sys := &System{Mesh: m, K: k, MinEdge: inf()}
	for e := range m.NumElems() {
		v := elemVerts(m, e)
		vs := mat.ShearVelocity(m.Centroid(e))
		if vp := vs * mat.VpVsRatio; vp > sys.MaxVp {
			sys.MaxVp = vp
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if d := v[i].Dist(v[j]); d < sys.MinEdge {
					sys.MinEdge = d
				}
			}
		}
	}
	if sys.MassNode, err = LumpedMass(m, mat); err != nil {
		return nil, err
	}
	return sys, nil
}

// iota32 returns 0, 1, …, n−1.
func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// AssemblyScratch is AssembleLocal's reusable memory; the zero value is
// ready. One scratch serves one assembly at a time.
type AssemblyScratch struct {
	// g2l maps a global node id to its local index in the assembly under
	// way. It is dense over the whole mesh and never cleared: only nodes
	// resident in the current assembly are looked up, and those were all
	// just written, so entries left by the previous one are harmless.
	g2l    []int32
	packed []uint64
	edges  [][2]int32
}

// AssembleLocal builds the stiffness of the elements elems (ascending)
// in the local numbering of nodes (sorted global ids covering every
// vertex of those elements): the global K when both are everything, one
// PE's local operator when they are its subdomain (package par). Blocks
// are added in ascending element order, so every sum is independent of
// who else assembles. A degenerate element is an error naming it,
// "degenerate element N", without a package prefix: each caller adds
// its own.
func AssembleLocal(m *mesh.Mesh, mat *material.Model, nodes, elems []int32, sc *AssemblyScratch) (*sparse.BCSR, error) {
	if len(sc.g2l) < m.NumNodes() {
		sc.g2l = make([]int32, m.NumNodes())
	}
	g2l := sc.g2l
	for l, g := range nodes {
		g2l[g] = int32(l)
	}
	// Local edge set: every element's six node pairs packed into one
	// word each, sorted, duplicates dropped.
	packed := sc.packed[:0]
	for _, e := range elems {
		t := m.Tets[e]
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				la, lb := g2l[t[a]], g2l[t[b]]
				if la > lb {
					la, lb = lb, la
				}
				packed = append(packed, uint64(la)<<32|uint64(lb))
			}
		}
	}
	slices.Sort(packed)
	packed = slices.Compact(packed)
	edges := sc.edges[:0]
	for _, pk := range packed {
		edges = append(edges, [2]int32{int32(pk >> 32), int32(pk & 0xffffffff)})
	}
	sc.packed, sc.edges = packed, edges

	k := sparse.NewBCSRStructure(len(nodes), edges)
	for _, e := range elems {
		t := m.Tets[e]
		var v [4]geom.Vec3
		var l [4]int32
		for a := 0; a < 4; a++ {
			v[a] = m.Coords[t[a]]
			l[a] = g2l[t[a]]
		}
		lambda, mu, _ := mat.Elastic(m.Centroid(int(e)))
		blocks, _, ok := ElementStiffness(v, lambda, mu)
		if !ok {
			return nil, fmt.Errorf("degenerate element %d", e)
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				k.AddBlock(l[a], l[b], &blocks[a][b])
			}
		}
	}
	return k, nil
}

// LumpedMass returns the lumped mass at every mesh node — System.MassNode
// without the stiffness: each element's mass, sampled at its centroid,
// is split evenly over its four vertices, elements in ascending order.
// It depends on the mesh and the material alone, so callers that
// assemble their stiffness elsewhere (the per-PE matrices of package
// par) need not build a global K to get it.
func LumpedMass(m *mesh.Mesh, mat *material.Model) ([]float64, error) {
	if err := mat.Validate(); err != nil {
		return nil, err
	}
	if m.NumElems() == 0 {
		return nil, fmt.Errorf("fem: empty mesh")
	}
	massNode := make([]float64, m.NumNodes())
	for e := 0; e < m.NumElems(); e++ {
		_, _, rho := mat.Elastic(m.Centroid(e))
		mass, err := ElementLumpedMass(elemVerts(m, e), rho)
		if err != nil {
			return nil, fmt.Errorf("fem: element %d: %w", e, err)
		}
		for _, node := range m.Tets[e] {
			massNode[node] += mass
		}
	}
	for i, mss := range massNode {
		if mss <= 0 {
			return nil, fmt.Errorf("fem: node %d has non-positive lumped mass %g", i, mss)
		}
	}
	return massNode, nil
}

// elemVerts returns the vertex coordinates of element e.
func elemVerts(m *mesh.Mesh, e int) (v [4]geom.Vec3) {
	for i, node := range m.Tets[e] {
		v[i] = m.Coords[node]
	}
	return v
}

// NumDOF returns the number of scalar degrees of freedom (3 per node).
func (s *System) NumDOF() int { return 3 * s.Mesh.NumNodes() }

// StableDt estimates the largest stable explicit time step by the CFL
// condition dt ≤ safety · h_min / V_p,max.
func (s *System) StableDt(safety float64) float64 {
	return safety * s.MinEdge / s.MaxVp
}

func inf() float64 { return 1e308 }
