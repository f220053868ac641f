// Package quake is a reproduction, as a reusable Go library, of the
// system described in "Architectural Implications of a Family of
// Irregular Applications" (O'Hallaron, Shewchuk, Gross; HPCA 1998).
//
// The paper characterizes a family of unstructured finite element
// earthquake simulations — the Quake applications sf10, sf5, sf2, sf1 —
// whose running time is dominated by a repeated sparse matrix-vector
// product (SMVP), and derives from them the bandwidth and latency that
// the communication systems of parallel machines must deliver as
// processors get faster.
//
// This module rebuilds the full pipeline:
//
//   - graded unstructured tetrahedral meshes of a layered basin model
//     (internal/octree, internal/mesh, internal/material),
//   - geometric partitioning onto processing elements and the induced
//     communication profile F, C_max, B_max, M_avg, m_ij, β
//     (internal/partition),
//   - sparse 3×3-block stiffness matrices and Spark98-style SMVP
//     kernels (internal/sparse, internal/fem),
//   - a real parallel SMVP runtime on goroutine PEs and a
//     discrete-event machine simulator (internal/par, internal/comm,
//     internal/machine),
//   - the paper's performance models, Equations (1) and (2), and the
//     derived requirement sweeps of Figures 8-11 (internal/model,
//     internal/quake).
//
// The root package re-exports what the examples and benchmarks use, and
// nothing else (TestFacadeHasCallers holds it to that); the cmd/ tools
// and examples/ programs exercise the pipeline end to end, and the
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation (see EXPERIMENTS.md).
package quake
