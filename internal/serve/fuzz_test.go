package serve

import (
	"math"
	"strings"
	"testing"
)

// FuzzSolveRequest throws arbitrary bytes at the strict JSON request
// decoder. The invariant is twofold: the decoder never panics, and a
// request it accepts really is inside every documented bound — the
// decoder is the service's trust boundary, so anything that slips
// through here reaches the solver.
func FuzzSolveRequest(f *testing.F) {
	seeds := []string{
		`{"scenario":"sf10","pes":8}`,
		`{"scenario":"sf5","pes":16,"method":"rib","nodesize":4}`,
		`{"scenario":"tiny","pes":2,"tol":1e-9,"max_iters":500,"deadline_ms":1000}`,
		`{"scenario":"sf10","pes":4,"faults":"kill:pe=1,iter=5;revive:pe=1,iter=15"}`,
		`{"scenario":"sf10","pes":4,"rhs_seed":7,"shift":30,"stream":true}`,
		`{"scenario":"","pes":0}`,
		`{"scenario":"sf10","pes":-1}`,
		`{"scenario":"sf10","pes":8,"tol":1}`,
		`{"scenario":"sf10","pes":8,"tol":-0.5}`,
		`{"scenario":"sf10","pes":8,"shift":1e300}`,
		`{"scenario":"sf10","pes":8,"max_iters":999999999999}`,
		`{"scenario":"sf10","pes":8,"deadline_ms":-5}`,
		`{"scenario":"sf10","pes":8,"unknown_field":true}`,
		`{"scenario":"sf10","pes":8}{"trailing":true}`,
		`{"scenario":"sf10","pes":2}]`,
		`{"scenario":"sf10","pes":2}}`,
		`{"scenario":"sf10","pes":8,"faults":"` + strings.Repeat("k", 5000) + `"}`,
		`{"scenario":"sf10","pes":2,"faults":"kill:pe=99,iter=5"}`,
		`{"scenario":"sf10","pes":8,"nodesize":64}`,
		`[1,2,3]`,
		`null`,
		`{`,
		``,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSolveRequest(strings.NewReader(string(data)))
		if err != nil {
			if req != nil {
				t.Fatalf("error %v returned alongside a non-nil request", err)
			}
			return
		}
		// Accepted: every bound must genuinely hold.
		if req.Scenario == "" || len(req.Scenario) > 64 {
			t.Fatalf("accepted scenario %q outside bounds", req.Scenario)
		}
		if req.PEs < 1 || req.PEs > maxRequestPEs {
			t.Fatalf("accepted pes %d outside [1,%d]", req.PEs, maxRequestPEs)
		}
		if req.NodeSize < 0 || (req.NodeSize > 1 && req.NodeSize > req.PEs) {
			t.Fatalf("accepted nodesize %d with pes %d", req.NodeSize, req.PEs)
		}
		if math.IsNaN(req.Shift) || math.IsInf(req.Shift, 0) || req.Shift < 0 || req.Shift > 1e12 {
			t.Fatalf("accepted shift %g", req.Shift)
		}
		if math.IsNaN(req.Tol) || req.Tol < 0 || req.Tol >= 1 || (req.Tol != 0 && req.Tol < 1e-15) {
			t.Fatalf("accepted tol %g", req.Tol)
		}
		if req.MaxIters < 0 || req.MaxIters > maxRequestIters {
			t.Fatalf("accepted max_iters %d", req.MaxIters)
		}
		if req.DeadlineMS < 0 || req.DeadlineMS > maxRequestDeadlineMS {
			t.Fatalf("accepted deadline_ms %d", req.DeadlineMS)
		}
		if len(req.Faults) > maxFaultPlanLen {
			t.Fatalf("accepted %d-byte fault plan", len(req.Faults))
		}
	})
}
