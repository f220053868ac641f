package quake

import (
	"context"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/export"
	"repro/internal/par"
	"repro/internal/partition"
	iq "repro/internal/quake"
	"repro/internal/report"
	"repro/internal/solver"
	"repro/internal/spark"
	"repro/internal/sparse"
)

// Geometry and substrate types.
type (
	// Vec3 is a 3D point or direction (km).
	Vec3 = geom.Vec3
	// Mesh is an unstructured tetrahedral mesh.
	Mesh = mesh.Mesh
	// MeshStats summarizes mesh size and quality.
	MeshStats = mesh.Stats
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
	// Multilevel is the Chaco/METIS-style multilevel KL/FM partitioner.
	Multilevel = partition.Multilevel
)

// Model and machine types.
type (
	// AppProperties are the model inputs (F, C_max, B_max).
	AppProperties = model.AppProperties
	// MachineParams describe a machine (T_f, T_l, T_w).
	MachineParams = machine.Params
	// NetworkConfig configures the discrete-event exchange simulator.
	NetworkConfig = machine.NetworkConfig
	// Schedule is an explicit per-PE block-transfer plan.
	Schedule = comm.Schedule
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
	// SimResult reports a run's outcome and SMVP share of runtime.
	SimResult = fem.SimResult
	// PointSource is a Ricker-wavelet body force.
	PointSource = fem.PointSource
	// AbsorbingDampers are Lysmer viscous boundary dampers.
	AbsorbingDampers = fem.AbsorbingDampers
	// VTKField is one named point-data array for Mesh.WriteVTK.
	VTKField = mesh.VTKField
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
	// HalfPoint is one Figure 11 half-bandwidth design point.
	HalfPoint = iq.HalfPoint
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

// Family returns the scenario sweep; full=true includes the 2.4M-node
// sf1 instead of the reduced sf1s proxy.
func Family(full bool) []Scenario { return iq.Family(full) }

// ScenarioByName looks up sf10, sf5, sf2, sf1, or sf1s.
func ScenarioByName(name string) (Scenario, error) { return iq.ByName(name) }

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
	// RequiredTc solves Equation (1) for the word time meeting a target
	// efficiency.
	RequiredTc = model.RequiredTc
	// RequiredBandwidth is 8/RequiredTc in bytes per second (Figure 9).
	RequiredBandwidth = model.RequiredBandwidth
	// AchievedTc evaluates Equation (2) for a machine on an application.
	AchievedTc = model.AchievedTc
	// Efficiency is the modeled E for an application on a machine.
	Efficiency = model.Efficiency
	// HalfBandwidthPoint is the Figure 11 design rule.
	HalfBandwidthPoint = model.HalfBandwidthPoint
	// BisectionBandwidth is the Figure 8 requirement.
	BisectionBandwidth = model.BisectionBandwidth
	// MFLOPS and MBps convert to reporting units.
	MFLOPS = model.MFLOPS
	MBps   = model.MBps
)

// ScheduleFromProfile builds the maximal-block exchange schedule of a
// communication profile.
func ScheduleFromProfile(pr *Profile) (*Schedule, error) { return comm.FromMatrix(pr.Msg) }

// SimulateExchange runs the discrete-event simulation of one exchange
// phase on the given machine and network.
func SimulateExchange(s *Schedule, p MachineParams, net NetworkConfig) machine.SimResult {
	return machine.Simulate(s, p, net)
}

// MeasureTf times the local SMVP on this host and returns seconds per
// flop (the paper's T_f measurement, Section 3.1).
func MeasureTf(k *BCSR, iters int) float64 { return par.MeasureTf(k, iters) }

// NewSym converts a block-symmetric BCSR matrix to the Spark98-style
// symmetric upper-triangle storage.
func NewSym(k *BCSR) (*SymBCSR, error) { return sparse.NewSymFromBCSR(k) }

// Extension types: overlap modeling, implicit (CG) solves, and the
// Spark98 kernel suite.
type (
	// OverlapModel quantifies what overlapping computation with
	// communication buys (paper footnote 1); see model.Overlap.
	OverlapModel = model.Overlap
	// SparkSuite bundles the Spark98-style SMVP kernel variants.
	SparkSuite = spark.Suite
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

// NewSparkSuite builds the Spark98 kernel suite from a stiffness matrix.
func NewSparkSuite(k *BCSR) (*SparkSuite, error) { return spark.NewSuite(k) }

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

// Torus is a 3D torus interconnect with dimension-ordered routing and
// finite link bandwidth, for checking the infinite-capacity network
// assumption against a contended fabric.
type Torus = network.Torus

// TorusConfig sets link bandwidth and hop latency for SimulateTorus.
type TorusConfig = network.Config

// NewTorus factors a PE count into the most cube-like torus shape.
func NewTorus(p int) (Torus, error) { return network.NewTorus(p) }

// SimulateTorus runs an exchange schedule over a contended torus.
func SimulateTorus(s *Schedule, p MachineParams, t Torus, cfg TorusConfig) (network.Result, error) {
	return network.Simulate(s, p, t, cfg)
}

// Properties computes Figure 7 rows for a scenario.
func Properties(s Scenario, pcounts []int, method Method) ([]PropsRow, error) {
	return iq.Properties(s, pcounts, method)
}

// Reliability: deterministic fault injection on the distributed runtime
// and the convergence gate CG holds every answer to. The plan grammar,
// containment contract, and recovery semantics are in
// docs/RELIABILITY.md.
type (
	// FaultPlan is a parsed fault-injection plan: seeded, ordered fault
	// events the runtime executes at its exchange boundary.
	FaultPlan = fault.Plan
	// FaultEvent is one planned fault (corrupt, drop, dup, delay, stall,
	// or panic) bound to a PE and optionally a kernel invocation.
	FaultEvent = fault.Event
	// FaultKind enumerates the fault event kinds.
	FaultKind = fault.Kind
	// FaultInjector is an armed plan: it injects at the exchange
	// boundary and counts what it injected, per kind. Obtain one from
	// Dist.InjectFaults.
	FaultInjector = fault.Injector
)

// ParseFaultPlan parses the fault-plan grammar, e.g.
// "corrupt:pe=2,iter=5;stall:pe=0,dur=10ms;panic:pe=1,iter=12".
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.Parse(s) }

// ErrDistPoisoned marks every error a Dist returns after one of its PEs
// died mid-kernel: the runtime contains the failure, fails the in-flight
// call, and refuses all later kernels (errors.Is-matchable).
var ErrDistPoisoned = par.ErrPoisoned

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

// TfShift quantifies how the Eq.(1)/(2) requirements move when the
// assumed T_f is replaced by a measured one; build with ShiftTf.
type TfShift = model.TfShift

// ShiftTf evaluates the Eq.(1)/(2) requirements at a baseline and a
// measured per-flop time and returns the shift.
var ShiftTf = model.ShiftTf

// Two-level (node-aware) exchange aggregation: same-node-pair messages
// fuse into one inter-node block plus on-node gather/scatter copies,
// trading copied words for the Eq.(2) block-latency term. The
// transform, its invariants, and the extended model are in
// docs/COMMUNICATION.md.
type (
	// Aggregated is a fused two-level exchange plan (four schedule legs
	// plus the PE→node mapping); build one with AggregateSchedule.
	Aggregated = comm.Aggregated
	// Exchange is the Eq.(2) input of an exchange plan: F, the flat
	// payload C_max, and the inter-node and on-node (C, B) maxima.
	// Build it with PlanExchange or FlatExchange.
	Exchange = model.Exchange
	// AggregationRow is one node size of a blocks-vs-words sweep.
	AggregationRow = report.AggregationRow
)

// AggregateSchedule fuses a flat exchange schedule under a PE→node
// mapping. The aggregated plan moves bit-identical payloads: Dist
// kernels with SetAggregation produce exactly the flat results.
func AggregateSchedule(s *Schedule, nodeOf func(pe int32) int32) (*Aggregated, error) {
	return comm.Aggregate(s, nodeOf)
}

// ContiguousNodes maps PEs to nodes in contiguous blocks of the given
// size — the mapping cluster schedulers produce for packed ranks.
func ContiguousNodes(size int) func(pe int32) int32 { return comm.ContiguousNodes(size) }

// OnNode is the intra-node copy-cost preset: the on-node (T_l, T_w)
// of the gather and scatter legs.
func OnNode() MachineParams { return machine.OnNode() }

// Extended model: Eq.(2) split into an inter-node leg at machine
// (Tl, Tw) and gather/scatter legs at on-node costs, evaluated by the
// methods of Exchange (Tc, PhaseTimes, Efficiency, LatencyBudget). The
// flat exchange is the plan of one PE per node.
var (
	// PlanExchange derives a plan's Exchange from the partition's F
	// and C_max; FlatExchange is the paper's row as one.
	PlanExchange = model.PlanExchange
	FlatExchange = model.FlatExchange
	// BetaOf is the Eq.(2) β load-imbalance bound for any per-PE (C, B)
	// pair, e.g. an Aggregated plan's InterCB.
	BetaOf = model.BetaOf
)

// Replaying a plan: ReplayPlan(a, local, fused) runs its three phases
// (gather ∪ local, fused inter-node leg, scatter; the times add), the
// on-node legs at local's costs on the discrete-event machine simulator
// and the fused leg as fused prices it — FusedOnMachine (PE-side, with
// an optional finite bisection) or FusedOnTorus (a contended torus of
// nodes).
var (
	ReplayPlan     = machine.Replay
	FusedOnMachine = machine.Fused
	FusedOnTorus   = network.Fused
)

// AggSweep evaluates the blocks-vs-words tradeoff of a scenario over a
// range of node sizes (cmd/quakenet -agg).
func AggSweep(s Scenario, p int, method Method, nodeSizes []int, cfg TorusConfig) ([]AggregationRow, error) {
	return iq.AggSweep(s, p, method, nodeSizes, cfg)
}

// AggregationSummary renders a node-size sweep as a table.
func AggregationSummary(title string, rows []AggregationRow) *Table {
	return report.AggregationSummary(title, rows)
}

// Observability: live telemetry, analytics, and the HTTP surface.
type (
	// MetricsSnapshot is a point-in-time copy of the telemetry
	// registry: counters, gauges, log2 histograms, and per-PE phase
	// accumulators. Sub produces the delta between two snapshots.
	MetricsSnapshot = obs.Snapshot
	// FlightEvent is one entry of the always-on flight-recorder ring.
	FlightEvent = obs.FlightEvent
	// AnalysisWindow is a per-PE view of accumulated phase time over a
	// span of kernel iterations.
	AnalysisWindow = analyze.Window
	// AnalysisReport bundles λ, stragglers, the achieved T_f/T_c
	// decomposition, and Eq.(2) drift for one window.
	AnalysisReport = analyze.Report
)

// SetTelemetry enables or disables metric collection process-wide.
// Collection is off by default; the hot paths stay allocation-free
// either way.
func SetTelemetry(enabled bool) { obs.SetEnabled(enabled) }

// MetricsSnapshotNow copies the current state of the default registry.
func MetricsSnapshotNow() *MetricsSnapshot { return obs.Default.Snapshot() }

// ServeMetrics starts the observability HTTP server on addr (":0"
// picks a free port): Prometheus text /metrics, JSON /metrics.json,
// the flight ring at /flight, expvar /debug/vars, and /debug/pprof.
// It returns the bound address and a shutdown function.
func ServeMetrics(addr string) (string, func(context.Context) error, error) {
	return export.Serve(addr)
}

// AnalyzeWindow extracts the per-PE phase window recorded between two
// snapshots (prev may be nil for run-so-far totals) — the input to
// AnalyzeExchange.
func AnalyzeWindow(cur, prev *MetricsSnapshot) (AnalysisWindow, bool) {
	return analyze.FromSnapshots(cur, prev)
}

// AnalyzeExchange computes λ, stragglers, the achieved decomposition,
// and Eq.(2) drift of a window against an Exchange at inter-node
// (tl, tw) and on-node (localTl, localTw) costs.
var AnalyzeExchange = analyze.Analyze

// FlightEvents returns the flight recorder's current ring contents,
// oldest first.
func FlightEvents() []FlightEvent { return obs.FlightRecorder.Events() }
