package report

// AggregationRow is one node size of a two-level exchange sweep: the
// blocks-vs-words tradeoff of comm.Aggregate on one scenario/partition,
// with its replayed exchange times.
type AggregationRow struct {
	NodeSize int // PEs per node (1 = flat exchange)
	Nodes    int
	// FlatBmax / InterBmax are the paper's B_max before aggregation and
	// the max fused inter-node blocks per PE after.
	FlatBmax, InterBmax int64
	// FlatBlocks / FusedBlocks are the directed totals.
	FlatBlocks, FusedBlocks int64
	// PayloadWords is the application's exchange volume; CopiedWords is
	// the extra gather+scatter staging volume aggregation adds.
	PayloadWords, CopiedWords int64
	// Beta is the Eq.(2) error bound evaluated on the fused leg.
	Beta float64
	// FlatComm / AggComm are replayed exchange times in seconds: the
	// node size 1 plan and this one.
	FlatComm, AggComm float64
}

// AggregationSummary renders the tradeoff table of a node-size sweep:
// how many expensive inter-node blocks the two-level exchange removes
// (the paper's latency-bound term) and how many cheap copied words it
// pays for them.
func AggregationSummary(title string, rows []AggregationRow) *Table {
	t := New(title, "node size", "nodes", "B_max", "fused B_max", "blocks", "fused",
		"payload words", "copied words", "copy overhead", "β", "exchange", "vs flat")
	for _, r := range rows {
		overhead := 0.0
		if r.PayloadWords > 0 {
			overhead = float64(r.CopiedWords) / float64(r.PayloadWords)
		}
		ratio := "-"
		if r.FlatComm > 0 {
			ratio = F(r.AggComm/r.FlatComm, 3)
		}
		t.AddRow(
			Int(int64(r.NodeSize)),
			Int(int64(r.Nodes)),
			Int(r.FlatBmax),
			Int(r.InterBmax),
			Int(r.FlatBlocks),
			Int(r.FusedBlocks),
			Int(r.PayloadWords),
			Int(r.CopiedWords),
			F(overhead, 3),
			F(r.Beta, 3),
			SI(r.AggComm, "s"),
			ratio,
		)
	}
	return t
}
