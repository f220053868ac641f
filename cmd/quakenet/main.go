// Command quakenet studies the interconnection network: it runs a
// scenario's exchange schedule over a contended 3D torus with
// dimension-ordered routing and compares against the paper's
// infinite-capacity assumption, sweeping per-link bandwidth. With -agg
// it also sweeps the two-level (node-aware) aggregated exchange over a
// range of node sizes, reporting the blocks-vs-words tradeoff.
//
// Usage:
//
//	quakenet                           # sf5 on 64 PEs (4x4x4 torus)
//	quakenet -scenario sf5 -pes 27 -hop 100e-9
//	quakenet -method multilevel        # swap the partitioner
//	quakenet -agg -nodesize 2,4,8,16   # aggregation tradeoff table
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/report"
)

func main() {
	scenario := flag.String("scenario", "sf5", "scenario name")
	pes := flag.Int("pes", 64, "PE count (factored into a torus)")
	hop := flag.Float64("hop", 100e-9, "per-hop router latency (s)")
	method := flag.String("method", "rcb", "partitioner (rcb|inertial|random|linear|stripes-z|multilevel)")
	agg := flag.Bool("agg", false, "also sweep the two-level aggregated exchange")
	nodesize := flag.String("nodesize", "2,4,8,16", "comma-separated node sizes for -agg")
	flag.Parse()

	if err := run(*scenario, *pes, *hop, *method, *agg, *nodesize); err != nil {
		fmt.Fprintln(os.Stderr, "quakenet:", err)
		os.Exit(1)
	}
}

// parseNodeSizes parses the -nodesize list and prepends the flat
// anchor (node size 1) so the tradeoff table is self-contained.
func parseNodeSizes(s string) ([]int, error) {
	sizes := []int{1}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node size %q", f)
		}
		if n != 1 {
			sizes = append(sizes, n)
		}
	}
	return sizes, nil
}

func run(name string, pes int, hop float64, methodName string, agg bool, nodesize string) error {
	s, err := quake.ByName(name)
	if err != nil {
		return err
	}
	method, err := partition.MethodByName(methodName)
	if err != nil {
		return err
	}
	m, err := s.Mesh()
	if err != nil {
		return err
	}
	pt, err := partition.PartitionMesh(m, pes, method, 1)
	if err != nil {
		return err
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return err
	}
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		return err
	}
	tor, err := network.NewTorus(pes)
	if err != nil {
		return err
	}
	t3e := machine.T3E()
	fmt.Printf("%s/%d (%s) on a %dx%dx%d torus (%s PE parameters, %.0f ns/hop)\n\n",
		s.Name, pes, method, tor.DX, tor.DY, tor.DZ, t3e.Name, hop*1e9)

	tor.HopLatency = hop
	free, err := machine.Simulate(sched, t3e, tor)
	if err != nil {
		return err
	}
	tab := report.New("exchange time vs per-link bandwidth",
		"link MB/s", "exchange", "vs infinite", "max link busy", "avg link busy")
	tab.AddRow("inf", report.SI(free.CommTime, "s"), "1.000", "-", "-")
	for _, mbps := range []float64{1000, 600, 300, 100, 30, 10, 3} {
		tor.LinkBytesPerSec = mbps * 1e6
		res, err := machine.Simulate(sched, t3e, tor)
		if err != nil {
			return err
		}
		tab.AddRow(fmt.Sprint(mbps),
			report.SI(res.CommTime, "s"),
			report.F(res.CommTime/free.CommTime, 3),
			report.SI(res.MaxLinkBusy, "s"),
			report.SI(res.AvgLinkBusy, "s"))
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nmax hops used: %d; the PE-side costs (T_l=%s, T_w=%s per word)\n",
		free.MaxHops, report.SI(t3e.Tl, "s"), report.SI(t3e.Tw, "s"))
	fmt.Println("dominate until links are starved — the paper's §3.3 assumption.")

	if !agg {
		return nil
	}
	sizes, err := parseNodeSizes(nodesize)
	if err != nil {
		return err
	}
	rows, err := quake.AggSweep(s, pes, method, sizes, 300e6, hop)
	if err != nil {
		return err
	}
	fmt.Println()
	title := fmt.Sprintf("two-level exchange: blocks vs words (%s/%d, %s, 300 MB/s links, %s intra-node)",
		s.Name, pes, method, machine.OnNode().Name)
	if err := report.AggregationSummary(title, rows).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nfused inter-node blocks pay T_l once per node pair; the copied words ride")
	fmt.Println("the on-node fabric — the node-aware answer to the paper's latency wall.")
	return nil
}
