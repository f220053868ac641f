package par

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/solver"
)

// watchdog is the containment deadline: a PE panic must surface as a
// returned error well within it, never as a hung barrier.
const watchdog = 30 * time.Second

func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func vecs(d *Dist) (y, x []float64) {
	n := 3 * d.GlobalNodes
	y = make([]float64, n)
	x = make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	return y, x
}

// TestPanicContainmentPhased injects a panic into one PE mid-kernel and
// requires the phased SMVP to return an error wrapping ErrPoisoned
// within the watchdog — the other PEs must be released from the phase
// barrier, not left waiting on the dead PE. Every later kernel must
// fail fast with the same sticky error, and Close must still work.
func TestPanicContainmentPhased(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	in, err := d.InjectFaults(mustPlan(t, "panic:pe=2,iter=1"))
	if err != nil {
		t.Fatal(err)
	}
	y, x := vecs(d)

	done := make(chan error, 1)
	go func() {
		_, err := d.SMVP(y, x)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(watchdog):
		t.Fatal("injected PE panic deadlocked the kernel instead of returning an error")
	}
	if err == nil {
		t.Fatal("faulted kernel returned nil error")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("faulted kernel error does not wrap ErrPoisoned: %v", err)
	}
	if got := in.Count(fault.Panic); got != 1 {
		t.Fatalf("injector counted %d panics, want 1", got)
	}

	// Sticky poison: every kernel entry point fails fast.
	if _, err := d.SMVP(y, x); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("SMVP after poison: %v", err)
	}
	s, err := NewDistSim(d, f.sys.MassNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(f.m.Coords, simCfg(f, 3)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("DistSim.Run after poison: %v", err)
	}
	// Re-arming a poisoned Dist is refused too.
	if _, err := d.InjectFaults(nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("InjectFaults after poison: %v", err)
	}

	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(watchdog):
		t.Fatal("Close deadlocked on a poisoned Dist")
	}
}

// TestSelfHealingCGUnderCorruption is the end-to-end robustness check:
// a seeded bit-corruption plan flips exponent bits in exchanged partial
// sums mid-solve, and self-healing CG must detect the damage via its
// true-residual audits, roll back to a certified checkpoint, and still
// converge to the fault-free answer.
func TestSelfHealingCGUnderCorruption(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	n := op.Dim()
	b := make([]float64, n)
	b[5] = 1e2
	b[n-4] = -3e1

	clean := make([]float64, n)
	if res, err := solver.CG(op, b, clean, solver.Config{MaxIter: 6 * n, Tol: 1e-10}); err != nil || !res.Converged {
		t.Fatalf("fault-free solve: converged=%v err=%v", res != nil && res.Converged, err)
	}

	// Directed at PE 0, which owns its shared boundary nodes (owners are
	// the first resident PE), so the flipped partial sums reach the
	// gathered result; bit 62 makes the corruption drastic rather than a
	// transient CG can quietly absorb.
	in, err := d.InjectFaults(mustPlan(t, "seed:3;corrupt:pe=1->0,iter=4,bit=62;corrupt:pe=1->0,iter=40,bit=62"))
	if err != nil {
		t.Fatal(err)
	}
	healed := make([]float64, n)
	res, err := solver.CG(op, b, healed, solver.Config{
		MaxIter: 6 * n, Tol: 1e-10, CheckEvery: 5, MaxRecoveries: 8,
	})
	if err != nil {
		t.Fatalf("self-healing solve failed: %v", err)
	}
	if !res.Converged {
		t.Fatalf("self-healing solve did not converge: %+v", res)
	}
	if got := in.Count(fault.Corrupt); got < 1 {
		t.Fatalf("corruption plan never fired (injected %d)", got)
	}
	if res.Detections < 1 {
		t.Fatalf("corruption fired but CG detected nothing: %+v", res)
	}
	if res.Rollbacks+res.Restarts < 1 {
		t.Fatalf("CG detected corruption but never rolled back or restarted: %+v", res)
	}

	var scale float64
	for _, v := range clean {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range clean {
		if math.Abs(healed[i]-clean[i]) > 1e-6*(1+scale) {
			t.Fatalf("healed solution differs from fault-free at %d: %g vs %g", i, healed[i], clean[i])
		}
	}

	// Disarm and confirm the Dist is unharmed.
	if _, err := d.InjectFaults(nil); err != nil {
		t.Fatal(err)
	}
	y, x := vecs(d)
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatalf("kernel after disarm: %v", err)
	}
}

// TestDropAndDupPerturbResult confirms drop and duplicate faults reach
// the exchange: a dropped or doubled partial-sum block must change the
// SMVP result on the shared boundary, and a later disarmed kernel must
// reproduce the clean answer (one-shot events do not linger).
func TestDropAndDupPerturbResult(t *testing.T) {
	f := newFixture(t)
	// Direction matters: only partial sums flowing toward the owner of
	// the shared nodes (the first resident PE, here PE 0) reach the
	// gathered global result.
	for _, plan := range []string{"drop:pe=1->0,iter=1", "dup:pe=1->0,iter=1"} {
		d, _ := f.dist(t, 2, partition.RCB)
		y, x := vecs(d)
		ref := make([]float64, len(y))
		if _, err := d.SMVP(ref, x); err != nil {
			t.Fatal(err)
		}
		in, err := d.InjectFaults(mustPlan(t, plan))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatalf("%s: faulted kernel: %v", plan, err)
		}
		if in.Total() == 0 {
			t.Fatalf("%s: plan never fired", plan)
		}
		diff := false
		for i := range y {
			if y[i] != ref[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatalf("%s: fault did not perturb the result", plan)
		}
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if y[i] != ref[i] {
				t.Fatalf("%s: one-shot fault leaked into a later kernel at %d", plan, i)
			}
		}
		d.Close()
	}
}

// TestInjectFaultsValidation checks arming-time validation: plans whose
// events reference PEs outside the Dist are rejected, and a nil plan
// disarms without error.
func TestInjectFaultsValidation(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 2, partition.RCB)
	if _, err := d.InjectFaults(mustPlan(t, "panic:pe=9,iter=1")); err == nil {
		t.Fatal("plan with out-of-range PE was accepted")
	}
	if _, err := d.InjectFaults(mustPlan(t, "drop:pe=0->5,iter=1")); err == nil {
		t.Fatal("plan with out-of-range destination was accepted")
	}
	in, err := d.InjectFaults(nil)
	if err != nil || in != nil {
		t.Fatalf("disarming: injector=%v err=%v", in, err)
	}
	y, x := vecs(d)
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
}

// TestStallDelaysKernel checks that a stall event holds its PE inside
// the kernel for the requested duration without corrupting the result.
func TestStallDelaysKernel(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 2, partition.RCB)
	y, x := vecs(d)
	ref := make([]float64, len(y))
	if _, err := d.SMVP(ref, x); err != nil {
		t.Fatal(err)
	}
	const hold = 50 * time.Millisecond
	if _, err := d.InjectFaults(mustPlan(t, "stall:pe=0,dur=50ms")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < hold {
		t.Fatalf("stalled kernel finished in %v, want ≥ %v", el, hold)
	}
	for i := range y {
		if y[i] != ref[i] {
			t.Fatalf("stall changed the result at %d", i)
		}
	}
}

// TestKillFaultTyped checks the recovery layer's entry contract: a kill
// fault surfaces as a *PEFaultError that still wraps ErrPoisoned, names
// the dead PE, and carries the *fault.Killed panic value — everything
// internal/recover needs to decide to shrink instead of retry.
func TestKillFaultTyped(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	if _, err := d.InjectFaults(mustPlan(t, "kill:pe=2,iter=1")); err != nil {
		t.Fatal(err)
	}
	y, x := vecs(d)
	done := make(chan error, 1)
	go func() {
		_, err := d.SMVP(y, x)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(watchdog):
		t.Fatal("kill fault deadlocked the kernel")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("kill error does not wrap ErrPoisoned: %v", err)
	}
	var pf *PEFaultError
	if !errors.As(err, &pf) {
		t.Fatalf("kill error is not a *PEFaultError: %v", err)
	}
	if pf.PE != 2 || pf.Iter != 1 || pf.Faults != 1 {
		t.Fatalf("fault record %+v", pf)
	}
	k, ok := pf.Val.(*fault.Killed)
	if !ok {
		t.Fatalf("panic value %T, want *fault.Killed", pf.Val)
	}
	if k.PE != 2 {
		t.Fatalf("killed value %+v", k)
	}
	// A plain injected panic must NOT look like a kill.
	d2, _ := f.dist(t, 4, partition.RCB)
	if _, err := d2.InjectFaults(mustPlan(t, "panic:pe=1,iter=1")); err != nil {
		t.Fatal(err)
	}
	_, err = d2.SMVP(y, x)
	if !errors.As(err, &pf) {
		t.Fatalf("panic error is not a *PEFaultError: %v", err)
	}
	if _, ok := pf.Val.(*fault.Killed); ok {
		t.Fatal("software panic misreported as a kill")
	}
}
