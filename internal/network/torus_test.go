package network

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
)

func TestNewTorusShapes(t *testing.T) {
	cases := map[int][3]int{
		1:   {1, 1, 1},
		8:   {2, 2, 2},
		64:  {4, 4, 4},
		128: {4, 4, 8},
		12:  {2, 2, 3},
		7:   {1, 1, 7}, // prime degenerates to a ring
	}
	for p, want := range cases {
		tor, err := NewTorus(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if tor.PEs() != p {
			t.Errorf("p=%d: PEs = %d", p, tor.PEs())
		}
		got := [3]int{tor.DX, tor.DY, tor.DZ}
		if got != want {
			t.Errorf("p=%d: shape %v, want %v", p, got, want)
		}
	}
	if _, err := NewTorus(0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestCoordIDRoundtrip(t *testing.T) {
	tor, _ := NewTorus(24)
	for pe := 0; pe < tor.PEs(); pe++ {
		x, y, z := tor.Coord(pe)
		if tor.ID(x, y, z) != pe {
			t.Fatalf("roundtrip failed for %d", pe)
		}
		if x < 0 || x >= tor.DX || y < 0 || y >= tor.DY || z < 0 || z >= tor.DZ {
			t.Fatalf("coord out of range for %d", pe)
		}
	}
}

func TestRouteConnectsAndIsShortest(t *testing.T) {
	tor, _ := NewTorus(64) // 4x4x4
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(64), rng.Intn(64)
		path := tor.Route(a, b)
		// Walk the path and confirm it ends at b.
		cur := a
		for _, l := range path {
			if l.Node != cur {
				t.Fatalf("link leaves %d but walker is at %d", l.Node, cur)
			}
			x, y, z := tor.Coord(cur)
			c := [3]int{x, y, z}
			ext := [3]int{tor.DX, tor.DY, tor.DZ}
			step := 1
			if l.Dir == 0 {
				step = -1
			}
			c[l.Dim] = ((c[l.Dim]+step)%ext[l.Dim] + ext[l.Dim]) % ext[l.Dim]
			cur = tor.ID(c[0], c[1], c[2])
		}
		if cur != b {
			t.Fatalf("route %d->%d ends at %d", a, b, cur)
		}
		// Shortest: per-dimension ring distance sums.
		ax, ay, az := tor.Coord(a)
		bx, by, bz := tor.Coord(b)
		want := ringDist(ax, bx, 4) + ringDist(ay, by, 4) + ringDist(az, bz, 4)
		if len(path) != want {
			t.Fatalf("route %d->%d has %d hops, want %d", a, b, len(path), want)
		}
	}
	if got := len(tor.Route(0, 0)); got != 0 {
		t.Errorf("self route %d hops", got)
	}
}

func ringDist(a, b, n int) int {
	d := (b - a + n) % n
	if n-d < d {
		return n - d
	}
	return d
}

func TestNumLinks(t *testing.T) {
	tor, _ := NewTorus(8) // 2x2x2
	if got := tor.NumLinks(); got != 6*8 {
		t.Errorf("NumLinks = %d, want 48", got)
	}
	ring, _ := NewTorus(5) // 1x1x5
	if got := ring.NumLinks(); got != 2*5 {
		t.Errorf("ring NumLinks = %d, want 10", got)
	}
}

// randomSchedule builds a symmetric exchange on p PEs.
func randomSchedule(t *testing.T, rng *rand.Rand, p int) *comm.Schedule {
	t.Helper()
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rng.Float64() < 0.3 {
				w := int64(3 * (1 + rng.Intn(100)))
				m[i][j], m[j][i] = w, w
			}
		}
	}
	s, err := comm.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// simulate runs machine.Simulate over topo, failing the test on error.
func simulate(t *testing.T, s *comm.Schedule, p machine.Params, topo machine.Topology) machine.Result {
	t.Helper()
	res, err := machine.Simulate(s, p, topo)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateRejectsMismatch(t *testing.T) {
	tor, _ := NewTorus(8)
	s := randomSchedule(t, rand.New(rand.NewSource(1)), 16)
	if _, err := machine.Simulate(s, machine.T3E(), tor); err == nil {
		t.Error("PE count mismatch accepted")
	}
}

// TestInfiniteLinksMatchMachineSim: with infinite links and zero hop
// latency the torus reduces exactly to the paper's network, Crossbar{}:
// every PE time bit for bit, on cubes, uneven shapes, rings and prime
// widths.
func TestInfiniteLinksMatchMachineSim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{1, 2, 5, 7, 8, 12, 13, 27, 64} {
		for trial := 0; trial < 3; trial++ {
			s := randomSchedule(t, rng, p)
			tor, err := NewTorus(p)
			if err != nil {
				t.Fatal(err)
			}
			got := simulate(t, s, machine.T3E(), tor)
			want := simulate(t, s, machine.T3E(), machine.Crossbar{})
			if got.CommTime != want.CommTime {
				t.Fatalf("p=%d: torus %g vs crossbar %g", p, got.CommTime, want.CommTime)
			}
			for i := range want.PETime {
				if got.PETime[i] != want.PETime[i] {
					t.Fatalf("p=%d PE %d: torus %g vs crossbar %g", p, i, got.PETime[i], want.PETime[i])
				}
			}
			if got.MaxLinkBusy != 0 || got.AvgLinkBusy != 0 {
				t.Fatalf("p=%d: link busy recorded with infinite links", p)
			}
		}
	}
}

func TestContentionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSchedule(t, rng, 64)
	tor, _ := NewTorus(64)
	tor.HopLatency = 100e-9
	p := machine.T3E()
	prev := math.Inf(1)
	for _, bw := range []float64{1e6, 1e7, 1e8, 1e9, 0} {
		tor.LinkBytesPerSec = bw
		res := simulate(t, s, p, tor)
		// 0 means infinite: must be the fastest of all.
		if bw == 0 {
			if res.CommTime > prev+1e-12 {
				t.Errorf("infinite links slower than finite: %g vs %g", res.CommTime, prev)
			}
			break
		}
		if res.CommTime > prev+1e-12 {
			t.Errorf("more bandwidth slowed exchange: %g -> %g at %g B/s", prev, res.CommTime, bw)
		}
		prev = res.CommTime
		if res.MaxLinkBusy <= 0 || res.AvgLinkBusy <= 0 || res.MaxLinkBusy < res.AvgLinkBusy {
			t.Errorf("implausible link stats: %+v", res)
		}
	}
}

// TestSimulateDeterministic: repeated runs of a contended torus agree
// on every Result field, bit for bit (%v prints a float64 so that
// distinct values print differently) — the mean link occupancy
// included, which must not depend on the order links are visited in.
func TestSimulateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSchedule(t, rng, 64)
	tor, _ := NewTorus(64)
	tor.LinkBytesPerSec, tor.HopLatency = 100e6, 100e-9
	want := fmt.Sprintf("%+v", simulate(t, s, machine.T3E(), tor))
	for run := 0; run < 50; run++ {
		if got := fmt.Sprintf("%+v", simulate(t, s, machine.T3E(), tor)); got != want {
			t.Fatalf("run %d: %s, want %s", run, got, want)
		}
	}
}

func TestHopLatencyAddsUp(t *testing.T) {
	// Two PEs on a 2-ring exchanging one block: hop latency appears in
	// the arrival time.
	m := [][]int64{{0, 30}, {30, 0}}
	s, err := comm.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	tor := Torus{DX: 2, DY: 1, DZ: 1}
	p := machine.Params{Name: "t", Tf: 1e-9, Tl: 1e-6, Tw: 10e-9}
	noHop := simulate(t, s, p, tor)
	tor.HopLatency = 5e-6
	withHop := simulate(t, s, p, tor)
	if withHop.CommTime <= noHop.CommTime {
		t.Errorf("hop latency had no effect: %g vs %g", withHop.CommTime, noHop.CommTime)
	}
	if withHop.MaxHops != 1 {
		t.Errorf("MaxHops = %d, want 1", withHop.MaxHops)
	}
}
