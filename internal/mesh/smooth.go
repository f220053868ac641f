package mesh

import (
	"sort"

	"repro/internal/geom"
)

// Smooth performs guarded Laplacian smoothing: each interior node is
// pulled toward the centroid of its neighbors by the relaxation factor
// (0 < relax ≤ 1), and a move is applied only if every incident
// tetrahedron keeps a safely positive volume. Boundary nodes never
// move, so the domain shape is preserved exactly; the mesh topology is
// untouched. Returns the number of accepted moves summed over passes.
//
// The native octree fan meshes are already well-shaped, so smoothing
// changes their quality little (the guard keeps any local degradation
// bounded); the feature exists for downstream users deforming meshes.
func (m *Mesh) Smooth(passes int, relax float64) int {
	if passes <= 0 || relax <= 0 || relax > 1 {
		return 0
	}
	n := m.NumNodes()
	adj := m.Adjacency()

	// Node → incident elements.
	cnt := make([]int32, n+1)
	for _, t := range m.Tets {
		for _, v := range t {
			cnt[v+1]++
		}
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	inc := make([]int32, cnt[n])
	cursor := make([]int32, n)
	copy(cursor, cnt[:n])
	for e, t := range m.Tets {
		for _, v := range t {
			inc[cursor[v]] = int32(e)
			cursor[v]++
		}
	}

	boundary := m.boundaryNodes()
	moved := 0
	const volGuard = 0.2 // new min incident volume ≥ 20% of old
	for pass := 0; pass < passes; pass++ {
		for v := 0; v < n; v++ {
			if boundary[v] {
				continue
			}
			nbrs := adj.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			var target geom.Vec3
			for _, u := range nbrs {
				target = target.Add(m.Coords[u])
			}
			target = target.Scale(1 / float64(len(nbrs)))
			old := m.Coords[v]
			candidate := geom.Lerp(old, target, relax)

			minBefore := m.minIncidentVolume(inc[cnt[v]:cnt[v+1]])
			m.Coords[v] = candidate
			minAfter := m.minIncidentVolume(inc[cnt[v]:cnt[v+1]])
			if minAfter <= 0 || minAfter < volGuard*minBefore {
				m.Coords[v] = old // reject
				continue
			}
			moved++
		}
	}
	return moved
}

// minIncidentVolume returns the smallest signed volume among the
// elements listed.
func (m *Mesh) minIncidentVolume(elems []int32) float64 {
	min := 0.0
	for i, e := range elems {
		v := m.Volume(int(e))
		if i == 0 || v < min {
			min = v
		}
	}
	return min
}

// boundaryNodes flags every node that lies on a boundary face (a
// triangle belonging to exactly one element).
func (m *Mesh) boundaryNodes() []bool {
	type tri [3]int32
	count := make(map[tri]int8, 4*len(m.Tets))
	for _, t := range m.Tets {
		for omit := 0; omit < 4; omit++ {
			var f tri
			k := 0
			for i := 0; i < 4; i++ {
				if i != omit {
					f[k] = t[i]
					k++
				}
			}
			sort.Slice(f[:], func(a, b int) bool { return f[a] < f[b] })
			count[f]++
		}
	}
	out := make([]bool, m.NumNodes())
	for f, c := range count {
		if c == 1 {
			out[f[0]] = true
			out[f[1]] = true
			out[f[2]] = true
		}
	}
	return out
}
