package quake

import (
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/partition"
	iq "repro/internal/quake"
	"repro/internal/report"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Geometry and substrate types.
type (
	// Vec3 is a 3D point or direction (km).
	Vec3 = geom.Vec3
	// Mesh is an unstructured tetrahedral mesh.
	Mesh = mesh.Mesh
	// Material is the layered rock/basin velocity model.
	Material = material.Model
	// BCSR is a 3×3-block sparse matrix (the stiffness format).
	BCSR = sparse.BCSR
	// SymBCSR is the symmetric upper-triangle storage variant, the
	// operator each PE of a Dist holds.
	SymBCSR = sparse.SymBCSR
)

// Partitioning and analysis types.
type (
	// Partition maps mesh elements to processing elements.
	Partition = partition.Partition
	// Profile is the communication analysis of a partition: per-PE F,
	// C, B, the message matrix, and the β bound.
	Profile = partition.Profile
	// Method selects a partitioning algorithm.
	Method = partition.Method
)

// Partitioning methods.
const (
	RCB      = partition.RCB
	Inertial = partition.Inertial
	Random   = partition.Random
	Linear   = partition.Linear
	StripesZ = partition.StripesZ
)

// Model and machine types.
type (
	// AppProperties are the model inputs (F, C_max, B_max).
	AppProperties = model.AppProperties
	// MachineParams describe a machine (T_f, T_l, T_w).
	MachineParams = machine.Params
	// Dist is the distributed SMVP operator run on persistent goroutine
	// PEs: created once, the PEs and their exchange buffers are reused
	// by every kernel call (zero steady-state allocations). Call Close
	// to release the goroutines; see docs/PERFORMANCE.md.
	Dist = par.Dist
	// ParTiming holds the per-PE phase durations of a distributed SMVP.
	// The kernels return a Dist-owned ParTiming that the next call
	// overwrites — copy it to keep it.
	ParTiming = par.Timing
	// DistSim is the distributed time-stepping application.
	DistSim = par.DistSim
	// DistSimResult reports a distributed run with phase timings.
	DistSimResult = par.DistSimResult
	// DistOperator adapts the distributed SMVP to solver.Operator, so
	// CG runs with every matrix application on goroutine PEs.
	DistOperator = par.Operator
	// System is the assembled finite element problem (K and mass).
	System = fem.System
	// SimConfig configures an elastodynamic run.
	SimConfig = fem.SimConfig
	// PointSource is a Ricker-wavelet body force.
	PointSource = fem.PointSource
	// AbsorbingDampers are Lysmer viscous boundary dampers.
	AbsorbingDampers = fem.AbsorbingDampers
)

// BuildAbsorbingDampers assembles boundary dampers that keep outgoing
// waves from reflecting off the artificial mesh boundary; surfaceZ
// identifies the free surface, which stays undamped.
func BuildAbsorbingDampers(s *System, mat *Material, surfaceZ float64) (*AbsorbingDampers, error) {
	return fem.BuildAbsorbingDampers(s, mat, surfaceZ)
}

// Scenario and experiment types.
type (
	// Scenario is one member of the sf family.
	Scenario = iq.Scenario
	// PropsRow is one Figure 7 row: the SMVP properties of a scenario
	// at one PE count.
	PropsRow = iq.PropsRow
	// Table is an aligned text/CSV table.
	Table = report.Table
)

// The calibrated scenario family (see Figure 2 of the paper).
var (
	SF10     = iq.SF10
	SF5      = iq.SF5
	SF2      = iq.SF2
	SF1      = iq.SF1
	SF1Small = iq.SF1Small
)

// PECounts is the subdomain sweep used by the paper's tables (4..128).
var PECounts = iq.PECounts

// SanFernando returns the default material model.
func SanFernando() *Material { return material.SanFernando() }

// PartitionMesh divides the mesh elements among p PEs.
func PartitionMesh(m *Mesh, p int, method Method, seed int64) (*Partition, error) {
	return partition.PartitionMesh(m, p, method, seed)
}

// Analyze computes the communication profile of a partition.
func Analyze(m *Mesh, pt *Partition) (*Profile, error) { return partition.Analyze(m, pt) }

// Assemble builds the global stiffness matrix and lumped mass.
func Assemble(m *Mesh, mat *Material) (*System, error) { return fem.Assemble(m, mat) }

// NewDist builds the distributed SMVP operator for a partitioned mesh.
func NewDist(m *Mesh, mat *Material, pt *Partition, pr *Profile) (*Dist, error) {
	return par.NewDist(m, mat, pt, pr)
}

// NewDistSim builds the distributed time-stepping application on top of
// a distributed operator; massNode is the global lumped mass (from
// Assemble) and absorbers may be nil.
func NewDistSim(d *Dist, massNode []float64, absorbers *AbsorbingDampers) (*DistSim, error) {
	return par.NewDistSim(d, massNode, absorbers)
}

// Machine presets from the paper.
var (
	T3D        = machine.T3D
	T3E        = machine.T3E
	Current100 = machine.Current100
	Future200  = machine.Future200
)

// Model functions (Equations 1 and 2 and their derived quantities).
var (
	// RequiredBandwidth is the sustained bandwidth in bytes per second
	// that meets a target efficiency, Equation (1) (Figure 9).
	RequiredBandwidth = model.RequiredBandwidth
	// Efficiency is the modeled E for an application on a machine.
	Efficiency = model.Efficiency
	// HalfBandwidthPoint is the Figure 11 design rule.
	HalfBandwidthPoint = model.HalfBandwidthPoint
	// MFLOPS and MBps convert to reporting units.
	MFLOPS = model.MFLOPS
	MBps   = model.MBps
)

// NewSym converts a block-symmetric BCSR matrix to the Spark98-style
// symmetric upper-triangle storage.
func NewSym(k *BCSR) (*SymBCSR, error) { return sparse.NewSymFromBCSR(k) }

// Implicit (CG) solves.
type (
	// CGConfig and CGResult configure and report conjugate gradient
	// solves (the implicit-method extension).
	CGConfig = solver.Config
	CGResult = solver.Result
	// CGWorkspace preallocates the CG iteration vectors so repeated
	// solves (an implicit time stepper) stop reallocating them; pass it
	// via CGConfig.Workspace.
	CGWorkspace = solver.Workspace
	// ShiftedOperator is K + σ·diag(M), the SPD system an implicit
	// method solves each step.
	ShiftedOperator = solver.Shifted
)

// SolveCG runs (optionally preconditioned) conjugate gradients.
func SolveCG(a solver.Operator, b, x []float64, cfg CGConfig) (*CGResult, error) {
	return solver.CG(a, b, x, cfg)
}

// NewCGWorkspace preallocates a CG workspace for operators of scalar
// dimension n (3·nodes for the stiffness operators).
func NewCGWorkspace(n int) *CGWorkspace { return solver.NewWorkspace(n) }

// AllReduceTime models the cost of a global reduction over p PEs — the
// extra communication implicit methods add per dot product.
var AllReduceTime = model.AllReduceTime

// ImplicitStep models one CG iteration's time and its allreduce share.
var ImplicitStep = model.ImplicitStep

// Properties computes Figure 7 rows for a scenario.
func Properties(s Scenario, pcounts []int, method Method) ([]PropsRow, error) {
	return iq.Properties(s, pcounts, method)
}

// FaultPlan is a parsed fault-injection plan: seeded, ordered fault
// events the distributed runtime executes at its exchange boundary
// (arm one with Dist.InjectFaults). The plan grammar, containment
// contract, and recovery semantics are in docs/RELIABILITY.md.
type FaultPlan = fault.Plan

// ParseFaultPlan parses the fault-plan grammar, e.g.
// "corrupt:pe=2,iter=5;stall:pe=0,dur=10ms;panic:pe=1,iter=12".
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.Parse(s) }

// Experiment tables (one per paper figure).
var (
	Fig2Table  = iq.Fig2Table
	Fig6Table  = iq.Fig6Table
	Fig7Table  = iq.Fig7Table
	Fig8Table  = iq.Fig8Table
	Fig9Table  = iq.Fig9Table
	Fig10Table = iq.Fig10Table
	Fig11Table = iq.Fig11Table
	// MeasuredTfTable regenerates the Eq.(1)/(2) requirements at a
	// measured per-flop time next to the paper-era baseline, showing how
	// the required T_c and bandwidths shift with the real kernel speed.
	MeasuredTfTable = iq.MeasuredTfTable
)
