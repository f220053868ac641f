package fem

import (
	"fmt"

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
// properties per element, the usual choice for constant-strain tets).
func Assemble(m *mesh.Mesh, mat *material.Model) (*System, error) {
	if err := mat.Validate(); err != nil {
		return nil, err
	}
	if m.NumElems() == 0 {
		return nil, fmt.Errorf("fem: empty mesh")
	}
	sys := &System{
		Mesh:    m,
		K:       sparse.NewBCSRStructure(m.NumNodes(), m.Edges()),
		MinEdge: inf(),
	}
	for e := 0; e < m.NumElems(); e++ {
		v := elemVerts(m, e)
		t := m.Tets[e]
		lambda, mu, _ := mat.Elastic(m.Centroid(e))
		blocks, _, ok := ElementStiffness(v, lambda, mu)
		if !ok {
			return nil, fmt.Errorf("fem: degenerate element %d", e)
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				sys.K.AddBlock(t[a], t[b], &blocks[a][b])
			}
		}
		// Track stability quantities.
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
	var err error
	if sys.MassNode, err = LumpedMass(m, mat); err != nil {
		return nil, err
	}
	return sys, nil
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
