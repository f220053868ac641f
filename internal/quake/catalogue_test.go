package quake

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
)

// TestCatalogueNames: every table has one entry, named as a file, and
// only the two that carry host timings are marked Timed.
func TestCatalogueNames(t *testing.T) {
	seen := map[string]bool{}
	var timed []string
	for _, e := range Catalogue {
		if seen[e.Name] || e.Name == "" || strings.ContainsAny(e.Name, "/. ") {
			t.Errorf("catalogue entry %q is empty, repeated or not a file name", e.Name)
		}
		seen[e.Name] = true
		if e.Timed {
			timed = append(timed, e.Name)
		}
	}
	if fmt.Sprint(timed) != "[ablation_ordering eq12_measured_tf]" {
		t.Errorf("timed tables %v", timed)
	}
}

// TestFixedTables builds every catalogue table that runs its own
// configuration rather than the sweep: each builds — so the checks its
// reading rests on hold — with the rows its configuration asks for, and
// the timed ones carry a measurement. The committed bytes are
// cmd/quakerepro's TestReproMatchesCommitted.
func TestFixedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions sf5 up to 128 PEs and times two kernels")
	}
	rows := map[string]int{
		"model_validation": 6, "validation_torus": 4, "ablation_partitioners": 5,
		"ablation_bisection": 9, "ablation_torus": 7, "ablation_blocksize": 6,
		"ablation_overlap": 6, "ablation_multilevel": 3, "ablation_irregularity": 2,
		"dsm_false_sharing": 8, "sensitivity_ppw": 4, "sensitivity_contrast": 4,
		"exflow_workload": 3, "extension_implicit": 6,
		"ablation_ordering": 3, "eq12_measured_tf": 18,
	}
	for _, e := range Catalogue {
		want, ok := rows[e.Name]
		if !ok {
			continue
		}
		delete(rows, e.Name)
		tab, err := e.Make(Sweep{}) // a fixed table reads no sweep
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(tab.Rows) != want {
			t.Errorf("%s: %d rows, want %d", e.Name, len(tab.Rows), want)
		}
		switch e.Name {
		case "ablation_ordering":
			for _, row := range tab.Rows {
				if mflops, err := strconv.ParseFloat(row[3], 64); err != nil || mflops <= 0 {
					t.Errorf("%s ordering: MFLOPS %q", row[0], row[3])
				}
			}
		case "eq12_measured_tf":
			if !strings.Contains(tab.Title, "kernel speedup") || strings.Contains(tab.Title, "Inf") {
				t.Errorf("eq12 title %q", tab.Title)
			}
		}
	}
	if len(rows) > 0 {
		t.Errorf("not in the catalogue: %v", rows)
	}
}

// TestMeasureSMVP: the measured pass moves 8·C[i] bytes through PE i
// per SMVP and leaves telemetry as it found it.
func TestMeasureSMVP(t *testing.T) {
	const pes, reps = 4, 2
	was := obs.Enabled()
	pass, err := MeasureSMVP(SF10, pes, partition.RCB, reps)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() != was {
		t.Errorf("telemetry left %v, was %v", obs.Enabled(), was)
	}
	for i := 0; i < pes; i++ {
		name := fmt.Sprintf("par.exchange.bytes.pe%d", i)
		if got, want := pass.After.Counters[name]-pass.Before.Counters[name], reps*8*pass.Profile.C[i]; got != want {
			t.Errorf("%s: %d bytes, want %d", name, got, want)
		}
	}
}
