package machine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
)

func mustSchedule(t testing.TB, m [][]int64) *comm.Schedule {
	t.Helper()
	s, err := comm.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// simulate runs Simulate and fails the test on an error.
func simulate(t testing.TB, s *comm.Schedule, p Params, topo Topology) Result {
	t.Helper()
	res, err := Simulate(s, p, topo)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomMatrix builds a random symmetric message matrix on p PEs.
func randomMatrix(rng *rand.Rand, p int) [][]int64 {
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rng.Float64() < 0.4 {
				w := int64(3 * (1 + rng.Intn(200)))
				m[i][j], m[j][i] = w, w
			}
		}
	}
	return m
}

func TestPresets(t *testing.T) {
	for _, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		got, err := PresetByName(p.Name)
		if err != nil || got != p {
			t.Errorf("PresetByName(%q) = %+v, %v", p.Name, got, err)
		}
	}
	if _, err := PresetByName("nonexistent"); err == nil {
		t.Error("unknown preset accepted")
	}
	// Paper-quoted values.
	if T3E().Tf != 14e-9 || T3E().Tl != 22e-6 || T3E().Tw != 55e-9 {
		t.Errorf("T3E = %+v, want paper values", T3E())
	}
	if Current100().Tf != 10e-9 || Future200().Tf != 5e-9 {
		t.Error("hypothetical machines have wrong Tf")
	}
	bad := Params{Tf: 0}
	if bad.Validate() == nil {
		t.Error("invalid params accepted")
	}
}

func TestModelVersusExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := T3E()
	for trial := 0; trial < 30; trial++ {
		s := mustSchedule(t, randomMatrix(rng, 2+rng.Intn(16)))
		exact := ExactCommTime(s, p)
		model := ModelCommTime(s, p)
		if model < exact-1e-15 {
			t.Fatalf("trial %d: model %g < exact %g", trial, model, exact)
		}
		// The paper proves the overestimate is below a factor of two.
		if exact > 0 && model > 2*exact+1e-15 {
			t.Fatalf("trial %d: model %g > 2×exact %g", trial, model, exact)
		}
	}
}

func TestSimulateMatchesClosedFormWithoutContention(t *testing.T) {
	// Two PEs exchanging one block each: PE0 sends (Tl + w·Tw), then
	// receives PE1's block. With zero transit both NIs finish at
	// exactly 2(Tl + w·Tw) = B_i·Tl + C_i·Tw: the closed form is exact.
	s := mustSchedule(t, [][]int64{{0, 100}, {100, 0}})
	p := Params{Name: "test", Tf: 1e-9, Tl: 1e-6, Tw: 10e-9}
	res := simulate(t, s, p, Crossbar{})
	exact := ExactCommTime(s, p)
	if math.Abs(res.CommTime-exact) > 1e-15 {
		t.Errorf("sim %g != exact %g", res.CommTime, exact)
	}
	if res.MaxLinkBusy != 0 || res.AvgLinkBusy != 0 || res.MaxHops != 1 {
		t.Errorf("infinite crossbar: link busy %g/%g, %d hops", res.MaxLinkBusy, res.AvgLinkBusy, res.MaxHops)
	}
}

func TestSimulateNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := T3E()
	for trial := 0; trial < 30; trial++ {
		s := mustSchedule(t, randomMatrix(rng, 2+rng.Intn(24)))
		res := simulate(t, s, p, Crossbar{Transit: 1e-6})
		exact := ExactCommTime(s, p)
		if res.CommTime < exact-1e-12 {
			t.Fatalf("trial %d: sim %g < exact per-PE bound %g", trial, res.CommTime, exact)
		}
		// And the sim should not blow up: the phase is bounded by the
		// sum of everything serialized on one NI plus transit stalls.
		b, c := s.BlocksPerPE(), s.WordsPerPE()
		var btot, ctot int64
		for i := range b {
			btot += b[i]
			ctot += c[i]
		}
		upper := float64(btot)*p.Tl + float64(ctot)*p.Tw + 1e-6*float64(btot+1)
		if res.CommTime > upper {
			t.Fatalf("trial %d: sim %g exceeds serialization bound %g", trial, res.CommTime, upper)
		}
	}
}

func TestSimulatePerPETimes(t *testing.T) {
	s := mustSchedule(t, [][]int64{{0, 30, 0}, {30, 0, 12}, {0, 12, 0}})
	p := Params{Name: "test", Tf: 1e-9, Tl: 1e-6, Tw: 10e-9}
	res := simulate(t, s, p, Crossbar{})
	if len(res.PETime) != 3 {
		t.Fatalf("PETime len %d", len(res.PETime))
	}
	max := 0.0
	for _, v := range res.PETime {
		if v <= 0 {
			t.Error("non-positive PE time")
		}
		if v > max {
			max = v
		}
	}
	if res.CommTime != max {
		t.Errorf("CommTime %g != max PE time %g", res.CommTime, max)
	}
	// PE1 handles the most blocks and words; it must finish last.
	if !(res.PETime[1] >= res.PETime[0] && res.PETime[1] >= res.PETime[2]) {
		t.Errorf("PE times %v: middle PE should dominate", res.PETime)
	}
}

func TestSimulateBisectionContention(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := mustSchedule(t, randomMatrix(rng, 16))
	p := Future200()
	free := simulate(t, s, p, Crossbar{}).CommTime
	// A generous bisection channel should barely matter...
	wide := simulate(t, s, p, Crossbar{BisectionBytesPerSec: 100e9}).CommTime
	if wide > free*1.05 {
		t.Errorf("wide bisection slowed phase: %g vs %g", wide, free)
	}
	// ...a starved one must dominate the phase.
	narrow := simulate(t, s, p, Crossbar{BisectionBytesPerSec: 1e6})
	if narrow.CommTime < 2*free {
		t.Errorf("narrow bisection did not bottleneck: %g vs %g", narrow.CommTime, free)
	}
	if narrow.MaxLinkBusy <= 0 || narrow.AvgLinkBusy != narrow.MaxLinkBusy {
		t.Errorf("bisection busy %g, mean %g: want one busy link", narrow.MaxLinkBusy, narrow.AvgLinkBusy)
	}
}

// TestSimulateDeterministic: repeated runs on equal schedules agree on
// every Result field, bit for bit (%v prints a float64 so that distinct
// values print differently).
func TestSimulateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := randomMatrix(rng, 12)
	net := Crossbar{Transit: 2e-6, BisectionBytesPerSec: 1e9}
	want := fmt.Sprintf("%+v", simulate(t, mustSchedule(t, m), T3E(), net))
	for run := 0; run < 20; run++ {
		if got := fmt.Sprintf("%+v", simulate(t, mustSchedule(t, m), T3E(), net)); got != want {
			t.Fatalf("run %d: %s, want %s", run, got, want)
		}
	}
}

func TestSimulateEmpty(t *testing.T) {
	s := mustSchedule(t, [][]int64{{0}})
	res := simulate(t, s, T3E(), Crossbar{})
	if res.CommTime != 0 {
		t.Errorf("empty schedule CommTime = %g", res.CommTime)
	}
}
