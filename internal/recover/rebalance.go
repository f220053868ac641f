package recover

import (
	"fmt"

	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/partition"
)

// The straggler-driven rebalancer's three settings. Nothing but tests ever
// chose other values, so they are constants.
const (
	// rebalanceLambda is the hysteresis threshold on measured λ = max/mean
	// per-PE compute time; windows at or below it reset the trigger.
	rebalanceLambda = analyze.StragglerFactor
	// rebalanceWindows is K, the consecutive over-threshold windows required
	// before a rebalance fires — one slow window is noise, K in a row is a
	// partition problem.
	rebalanceWindows = 2
	// rebalanceMaxMoves bounds the boundary layers migrated per rebalance
	// pass: the Bienz–Gropp–Olson observation is that piling migrated work
	// onto receivers is penalized by real networks, so the rebalancer moves
	// incrementally and re-measures.
	rebalanceMaxMoves = 2
)

// Rebalancer accumulates per-window imbalance observations and decides
// when a rebalance is warranted; the zero value is ready. It is not safe
// for concurrent use; the supervisor owns it.
type Rebalancer struct{ hot int }

// Observe feeds one analysis window's compute imbalance and reports
// whether the hysteresis has tripped: true after rebalanceWindows
// consecutive observations above rebalanceLambda, after which the trigger
// re-arms from zero.
// Every observation publishes recover.rebalance.lambda.
func (r *Rebalancer) Observe(im analyze.Imbalance) bool {
	obs.GetGauge("recover.rebalance.lambda").Set(im.Lambda)
	if im.Lambda <= rebalanceLambda {
		r.hot = 0
		return false
	}
	r.hot++
	if r.hot < rebalanceWindows {
		return false
	}
	r.hot = 0
	return true
}

// RebalancePartition migrates up to maxMoves whole boundary layers off
// the hottest PEs onto their least-loaded mesh-adjacent neighbors.
// loads is the measured per-PE cost of the window that tripped the
// trigger (compute nanoseconds); per-element cost is estimated as the
// PE's measured load over its element count, so a move's effect is
// predicted in measured time, not element count. Receiver ties break by
// larger shared boundary word volume (the true-volume score from
// partition.BoundaryWords — a bigger shared surface means the move adds
// less new communication), then by lower PE id for determinism. A move
// is taken only when it strictly lowers the pair's predicted maximum
// and leaves the donor non-empty; the pass stops early when no
// admissible move remains. Returns the rebalanced partition and the
// number of layers moved (0 with the input partition returned when
// nothing admissible exists).
func RebalancePartition(m *mesh.Mesh, pt *partition.Partition, loads []int64, maxMoves int) (*partition.Partition, int, error) {
	if len(loads) != pt.P {
		return nil, 0, fmt.Errorf("recover: %d load entries for %d PEs", len(loads), pt.P)
	}
	cur := pt
	pr, err := partition.Analyze(m, cur)
	if err != nil {
		return nil, 0, err
	}
	load := make([]float64, pt.P)
	for q, v := range loads {
		load[q] = float64(v)
	}
	migrations := obs.GetCounter("recover.migrations")
	moves := 0

	for moves < maxMoves {
		hot := 0
		for q := 1; q < cur.P; q++ {
			if load[q] > load[hot] {
				hot = q
			}
		}
		sizes := cur.Sizes()
		if sizes[hot] == 0 || load[hot] == 0 {
			break
		}
		perElem := load[hot] / float64(sizes[hot])

		// Admissible receivers: mesh-adjacent, and the move of the whole
		// boundary layer must strictly lower max(donor, receiver).
		best := -1
		var bestLayer []int32
		var bestLoad float64
		for _, q := range pr.MeshNeighbors(hot) {
			layer := partition.BoundaryLayer(m, cur, hot, q)
			if len(layer) == 0 || len(layer) >= sizes[hot] {
				continue
			}
			moved := float64(len(layer)) * perElem
			if load[q]+moved >= load[hot] {
				// The receiver would become (at least) the new hottest PE
				// — the move just relocates the straggler.
				continue
			}
			if best == -1 ||
				load[q] < bestLoad ||
				(load[q] == bestLoad && (pr.BoundaryWords(hot, q) > pr.BoundaryWords(hot, best) ||
					(pr.BoundaryWords(hot, q) == pr.BoundaryWords(hot, best) && q < best))) {
				best, bestLayer, bestLoad = q, layer, load[q]
			}
		}
		if best == -1 {
			break
		}
		next, err := partition.Migrate(m, cur, bestLayer, hot, best)
		if err != nil {
			return nil, moves, fmt.Errorf("recover: migrating %d elements %d→%d: %w", len(bestLayer), hot, best, err)
		}
		moved := float64(len(bestLayer)) * perElem
		load[hot] -= moved
		load[best] += moved
		cur = next
		pr, err = partition.Analyze(m, cur)
		if err != nil {
			return nil, moves, err
		}
		migrations.Add(1)
		obs.RecordFlight(obs.FlightRecovery, "recover.migrate", hot, int64(len(bestLayer)), 0)
		moves++
	}
	return cur, moves, nil
}

// Rebalance rebuilds the distributed operator on a rebalanced
// partition, mirroring Shrink and Grow: migrate boundary layers
// (RebalancePartition), then rebuild, copying from src — the operators
// built on pt, or none — every row the moves left interior. When no
// admissible move exists it returns (nil, 0, nil) and the caller keeps
// its current operator — a no-op rebalance must not cost a Dist rebuild.
func Rebalance(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, loads []int64, maxMoves int, src par.Operators) (*Rebuilt, int, error) {
	sp := obs.StartSpan(obs.TrackDriver, "recover", "recover.rebalance")
	rpt, moves, err := RebalancePartition(m, pt, loads, maxMoves)
	if err != nil {
		sp.End()
		return nil, 0, err
	}
	if moves == 0 {
		sp.EndWith(map[string]any{"moves": 0})
		return nil, 0, nil
	}
	reb, err := rebuild(m, mat, rpt, src)
	if err != nil {
		sp.End()
		return nil, moves, err
	}
	sp.EndWith(map[string]any{"moves": moves, "width": rpt.P})
	return reb, moves, nil
}
