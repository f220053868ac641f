// Package partition divides the elements of an unstructured mesh among
// processing elements (PEs) and analyzes the communication structure the
// division induces on the parallel SMVP.
//
// The Quake applications used the recursive geometric bisection
// algorithm of Miller, Teng, Thurston, and Vavasis; this package
// provides the classic geometric family — recursive coordinate bisection
// and recursive inertial bisection on element centroids — together with
// deliberately poor baselines (random, linear, striped) that the
// ablation benchmarks use to show how much partition quality matters to
// C_max and B_max.
package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// Method selects a partitioning algorithm.
type Method int

const (
	// RCB is recursive coordinate bisection: split the element set at
	// the weighted median along the longest axis of its bounding box,
	// recursively.
	RCB Method = iota
	// Inertial is recursive inertial bisection: like RCB but splitting
	// perpendicular to the principal axis of the centroid distribution.
	Inertial
	// Random assigns elements to PEs uniformly at random (a worst-case
	// baseline: interface grows with subdomain volume, not surface).
	Random
	// Linear assigns contiguous ranges of element indices. Element order
	// from the octree mesher is depth-then-space, so this is a weak but
	// not pathological baseline.
	Linear
	// StripesZ slices the domain into p slabs along z by element count.
	StripesZ
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case RCB:
		return "rcb"
	case Inertial:
		return "inertial"
	case Random:
		return "random"
	case Linear:
		return "linear"
	case StripesZ:
		return "stripes-z"
	case Multilevel:
		return "multilevel"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Methods lists every built-in partitioner.
func Methods() []Method {
	return []Method{RCB, Inertial, Random, Linear, StripesZ, Multilevel}
}

// MethodByName returns the method whose String() matches name, for
// command-line -method flags.
func MethodByName(name string) (Method, error) {
	for _, m := range Methods() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("partition: unknown method %q", name)
}

// Partition maps each mesh element to a PE (subdomain).
type Partition struct {
	P      int
	ElemPE []int32
}

// PartitionMesh partitions the elements of m into p subdomains with the
// given method. seed is used only by the Random method.
func PartitionMesh(m *mesh.Mesh, p int, method Method, seed int64) (*Partition, error) {
	sp := obs.StartSpan(obs.TrackDriver, "setup", "partition."+method.String())
	defer sp.End()
	obs.GetCounter("partition.calls").Add(1)
	if p <= 0 {
		return nil, fmt.Errorf("partition: p must be positive, got %d", p)
	}
	ne := m.NumElems()
	if ne == 0 {
		return nil, fmt.Errorf("partition: empty mesh")
	}
	if p > ne {
		return nil, fmt.Errorf("partition: more PEs (%d) than elements (%d)", p, ne)
	}
	out := &Partition{P: p, ElemPE: make([]int32, ne)}
	switch method {
	case RCB, Inertial:
		cents := make([]geom.Vec3, ne)
		for e := 0; e < ne; e++ {
			cents[e] = m.Centroid(e)
		}
		idx := make([]int32, ne)
		for i := range idx {
			idx[i] = int32(i)
		}
		bisect(cents, idx, make([]projKey, ne), 0, p, out.ElemPE, method == Inertial)
	case Random:
		rng := rand.New(rand.NewSource(seed))
		for e := range out.ElemPE {
			out.ElemPE[e] = int32(rng.Intn(p))
		}
	case Linear:
		for e := range out.ElemPE {
			out.ElemPE[e] = int32(int64(e) * int64(p) / int64(ne))
		}
	case Multilevel:
		if err := partitionMultilevel(m, p, out.ElemPE); err != nil {
			return nil, err
		}
	case StripesZ:
		order := make([]int32, ne)
		for i := range order {
			order[i] = int32(i)
		}
		z := make([]float64, ne)
		for e := 0; e < ne; e++ {
			z[e] = m.Centroid(e).Z
		}
		sort.SliceStable(order, func(a, b int) bool { return z[order[a]] < z[order[b]] })
		for rank, e := range order {
			out.ElemPE[e] = int32(int64(rank) * int64(p) / int64(ne))
		}
	default:
		return nil, fmt.Errorf("partition: unknown method %v", method)
	}
	return out, nil
}

// projKey is one element's sort key at one bisection level: its
// centroid's projection onto the level's axis, and the element id that
// breaks ties.
type projKey struct {
	proj float64
	elem int32
}

// bisectSpawnMin is the smallest element set whose left half is worth a
// goroutine of its own; below it a bisection level takes less time than
// handing it to another core.
const bisectSpawnMin = 4096

// bisect recursively splits idx (element indices) into parts PEs,
// assigning PE numbers starting at base. Splits are proportional so
// non-power-of-two part counts stay balanced. keys is scratch as long as
// idx. The two halves of a split own disjoint sub-slices of idx and keys
// and write disjoint entries of out, so large halves recurse
// concurrently and the result does not depend on how they are scheduled.
func bisect(cents []geom.Vec3, idx []int32, keys []projKey, base, parts int, out []int32, inertial bool) {
	if parts == 1 {
		for _, e := range idx {
			out[e] = int32(base)
		}
		return
	}
	left := parts / 2
	// Elements going to the left side, proportional to PE counts.
	nLeft := int(int64(len(idx)) * int64(left) / int64(parts))
	if nLeft < 1 {
		nLeft = 1
	}
	if nLeft > len(idx)-1 {
		nLeft = len(idx) - 1
	}

	var axisDir geom.Vec3
	if inertial {
		axisDir = principalAxis(cents, idx)
	} else {
		// Longest axis of the centroid bounding box.
		box := geom.Box{Lo: cents[idx[0]], Hi: cents[idx[0]]}
		for _, e := range idx {
			box.Lo = geom.Min(box.Lo, cents[e])
			box.Hi = geom.Max(box.Hi, cents[e])
		}
		axisDir = geom.Vec3{}.WithComponent(box.LongestAxis(), 1)
	}
	// Partial selection: order by projection onto the axis, each
	// projection computed once. Sorting is O(n log n) but keeps the code
	// simple and deterministic: ties are broken by element index, so the
	// order is total and the sorted sequence unique.
	for i, e := range idx {
		keys[i] = projKey{cents[e].Dot(axisDir), e}
	}
	slices.SortFunc(keys, func(a, b projKey) int {
		switch {
		case a.proj < b.proj:
			return -1
		case a.proj > b.proj:
			return 1
		}
		return int(a.elem) - int(b.elem)
	})
	for i, k := range keys {
		idx[i] = k.elem
	}
	if len(idx) < bisectSpawnMin {
		bisect(cents, idx[:nLeft], keys[:nLeft], base, left, out, inertial)
		bisect(cents, idx[nLeft:], keys[nLeft:], base+left, parts-left, out, inertial)
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bisect(cents, idx[:nLeft], keys[:nLeft], base, left, out, inertial)
	}()
	bisect(cents, idx[nLeft:], keys[nLeft:], base+left, parts-left, out, inertial)
	wg.Wait()
}

// principalAxis returns the dominant eigenvector of the covariance of
// the selected centroids, computed by power iteration. Falls back to the
// x axis for degenerate distributions.
func principalAxis(cents []geom.Vec3, idx []int32) geom.Vec3 {
	var mean geom.Vec3
	for _, e := range idx {
		mean = mean.Add(cents[e])
	}
	mean = mean.Scale(1 / float64(len(idx)))
	// 3×3 covariance (symmetric).
	var cxx, cxy, cxz, cyy, cyz, czz float64
	for _, e := range idx {
		d := cents[e].Sub(mean)
		cxx += d.X * d.X
		cxy += d.X * d.Y
		cxz += d.X * d.Z
		cyy += d.Y * d.Y
		cyz += d.Y * d.Z
		czz += d.Z * d.Z
	}
	v := geom.V(1, 1, 1).Normalize()
	for iter := 0; iter < 50; iter++ {
		w := geom.V(
			cxx*v.X+cxy*v.Y+cxz*v.Z,
			cxy*v.X+cyy*v.Y+cyz*v.Z,
			cxz*v.X+cyz*v.Y+czz*v.Z)
		n := w.Norm()
		if n == 0 {
			return geom.V(1, 0, 0)
		}
		w = w.Scale(1 / n)
		if w.Sub(v).Norm() < 1e-12 {
			return w
		}
		v = w
	}
	return v
}

// Sizes returns the number of elements assigned to each PE.
func (pt *Partition) Sizes() []int {
	sizes := make([]int, pt.P)
	for _, pe := range pt.ElemPE {
		sizes[pe]++
	}
	return sizes
}

// Validate checks that every element is assigned to a PE in range and
// that no PE is empty.
func (pt *Partition) Validate() error {
	sizes := make([]int, pt.P)
	for e, pe := range pt.ElemPE {
		if pe < 0 || int(pe) >= pt.P {
			return fmt.Errorf("partition: element %d assigned to PE %d of %d", e, pe, pt.P)
		}
		sizes[pe]++
	}
	for pe, s := range sizes {
		if s == 0 {
			return fmt.Errorf("partition: PE %d has no elements", pe)
		}
	}
	return nil
}
