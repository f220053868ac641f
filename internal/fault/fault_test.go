package fault

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseExamplePlan(t *testing.T) {
	p, err := Parse("corrupt:pe=2,iter=5;stall:pe=0,dur=10ms;panic:pe=1,iter=12;drop:pe=3->1,iter=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(p.Events))
	}
	want := []Event{
		{Kind: Corrupt, PE: 2, Dst: Unset, Iter: 5, Word: Unset, Bit: Unset},
		{Kind: Stall, PE: 0, Dst: Unset, Iter: EveryIter, Dur: 10 * time.Millisecond, Word: Unset, Bit: Unset},
		{Kind: Panic, PE: 1, Dst: Unset, Iter: 12, Word: Unset, Bit: Unset},
		{Kind: Drop, PE: 3, Dst: 1, Iter: 7, Word: Unset, Bit: Unset},
	}
	for i, e := range p.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if p.Seed != 1 {
		t.Errorf("default seed = %d, want 1", p.Seed)
	}
}

func TestParseUnicodeArrowAndSeed(t *testing.T) {
	p, err := Parse("seed:42; drop:pe=3→1,iter=7 ; delay:pe=0->2,dur=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Errorf("seed = %d", p.Seed)
	}
	if p.Events[0].Dst != 1 || p.Events[0].PE != 3 {
		t.Errorf("arrow parse: %+v", p.Events[0])
	}
	if p.Events[1].Dur != time.Millisecond {
		t.Errorf("delay dur: %+v", p.Events[1])
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",                           // empty plan
		";;",                         // only separators
		"explode:pe=1",               // unknown kind
		"corrupt",                    // missing pe
		"corrupt:iter=3",             // missing pe
		"corrupt:pe=1,iter=0",        // iter < 1
		"corrupt:pe=1,iter=-2",       // negative iter
		"corrupt:pe=-1",              // negative pe
		"corrupt:pe=x",               // non-numeric pe
		"corrupt:pe=1,bit=64",        // bit out of range
		"corrupt:pe=1,weird=3",       // unknown field
		"corrupt:pe=1,bit",           // not key=value
		"drop:pe=3",                  // drop needs a destination
		"drop:pe=3->3",               // self-transfer
		"stall:pe=0",                 // stall needs dur
		"stall:pe=0,dur=-3ms",        // negative duration
		"stall:pe=0,dur=xyz",         // bad duration
		"stall:pe=0->1,dur=1ms",      // stall takes no destination
		"panic:pe=1,dur=1ms",         // dur invalid on panic
		"panic:pe=1,bit=3",           // bit invalid on panic
		"seed:zzz",                   // bad seed
		"corrupt:pe=999999999999",    // pe out of bounds
		"revive:pe=3",                // revive needs iter
		"revive:pe=3->1,iter=5",      // revive takes no destination
		"revive:pe=3,iter=5,dur=1ms", // dur invalid on revive
		"revive:pe=3,iter=5,bit=2",   // bit invalid on revive
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"corrupt:pe=2,iter=5;stall:pe=0,dur=10ms;panic:pe=1,iter=12;drop:pe=3->1,iter=7",
		"seed:9;corrupt:pe=0->1,word=3,bit=62",
		"dup:pe=1->0;delay:pe=0->1,dur=250µs",
		"kill:pe=5,iter=25;revive:pe=5,iter=40",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(String()=%q): %v", canon, err)
		}
		if p2.String() != canon {
			t.Errorf("round trip unstable: %q -> %q", canon, p2.String())
		}
		if p2.Seed != p.Seed || len(p2.Events) != len(p.Events) {
			t.Errorf("round trip changed plan: %+v vs %+v", p, p2)
		}
		for i := range p.Events {
			if p.Events[i] != p2.Events[i] {
				t.Errorf("event %d changed: %+v vs %+v", i, p.Events[i], p2.Events[i])
			}
		}
	}
}

func TestValidate(t *testing.T) {
	p, err := Parse("corrupt:pe=2,iter=5;drop:pe=3->1,iter=7")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := p.Validate(3); err == nil {
		t.Error("pe=3 accepted on a 3-PE machine")
	}
	if err := p.Validate(2); err == nil {
		t.Error("pe=2 accepted on a 2-PE machine")
	}

	// A revive names an insertion slot: pe == pes is valid (append at
	// the top), pe > pes is not.
	rv, err := Parse("revive:pe=4,iter=10")
	if err != nil {
		t.Fatal(err)
	}
	if err := rv.Validate(4); err != nil {
		t.Errorf("revive pe=4 rejected on a 4-PE machine: %v", err)
	}
	if err := rv.Validate(3); err == nil {
		t.Error("revive pe=4 accepted on a 3-PE machine")
	}
}

func TestInjectorCorruptFlipsOneBit(t *testing.T) {
	p, err := Parse("corrupt:pe=0->1,iter=3,word=2,bit=62")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	buf := []float64{1, 2, 3, 4}
	orig := append([]float64(nil), buf...)

	in.CorruptSend(0, 1, 1, buf) // wrong iter
	in.CorruptSend(1, 0, 3, buf) // wrong pe
	in.CorruptSend(0, 2, 3, buf) // wrong dst
	for i := range buf {
		if buf[i] != orig[i] {
			t.Fatalf("buffer changed by non-matching event at %d", i)
		}
	}

	in.CorruptSend(0, 1, 3, buf)
	if got := math.Float64bits(buf[2]) ^ math.Float64bits(orig[2]); got != 1<<62 {
		t.Errorf("flipped bits = %b, want bit 62", got)
	}
	for _, i := range []int{0, 1, 3} {
		if buf[i] != orig[i] {
			t.Errorf("word %d changed", i)
		}
	}
	if in.Count(Corrupt) != 1 {
		t.Errorf("corrupt count = %d", in.Count(Corrupt))
	}
}

func TestInjectorSeededCorruptionDeterministic(t *testing.T) {
	plan, err := Parse("seed:7;corrupt:pe=0,iter=2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []float64 {
		in := NewInjector(plan)
		buf := []float64{1, 2, 3, 4, 5}
		in.CorruptSend(0, 1, 2, buf)
		return buf
	}
	a, b := run(), run()
	changed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded corruption not deterministic at word %d", i)
		}
		if a[i] != float64(i+1) {
			changed++
			// Exponent-range default: the perturbation must be drastic.
			if rel := math.Abs(a[i]-float64(i+1)) / float64(i+1); rel < 1e-4 {
				t.Errorf("default corruption too subtle: word %d, rel %g", i, rel)
			}
		}
	}
	if changed != 1 {
		t.Errorf("%d words changed, want 1", changed)
	}
}

func TestInjectorDeliver(t *testing.T) {
	p, err := Parse("drop:pe=1->0,iter=2;dup:pe=2->0,iter=2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	if r := in.Deliver(1, 0, 1); r != 1 {
		t.Errorf("clean delivery reps = %d", r)
	}
	if r := in.Deliver(1, 0, 2); r != 0 {
		t.Errorf("dropped delivery reps = %d", r)
	}
	if r := in.Deliver(0, 1, 2); r != 1 {
		t.Errorf("reverse direction faulted: reps = %d", r)
	}
	if r := in.Deliver(2, 0, 2); r != 2 {
		t.Errorf("duplicated delivery reps = %d", r)
	}
	if in.Count(Drop) != 1 || in.Count(Dup) != 1 || in.Total() != 2 {
		t.Errorf("counts: drop=%d dup=%d total=%d", in.Count(Drop), in.Count(Dup), in.Total())
	}
}

func TestInjectorPanicAndStall(t *testing.T) {
	p, err := Parse("stall:pe=0,dur=1ms,iter=1;panic:pe=1,iter=2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	start := time.Now()
	in.AfterCompute(0, 1) // stalls ~1ms
	if time.Since(start) < time.Millisecond {
		t.Error("stall did not sleep")
	}
	in.AfterCompute(1, 1) // wrong iter: no panic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic event did not panic")
			}
			ip, ok := r.(*Injected)
			if !ok {
				t.Fatalf("panic value %T, want *Injected", r)
			}
			if ip.PE != 1 || ip.Iter != 2 {
				t.Errorf("panic value %+v", ip)
			}
			if !strings.Contains(ip.String(), "PE 1") {
				t.Errorf("panic string %q", ip.String())
			}
		}()
		in.AfterCompute(1, 2)
	}()
	if in.Count(Stall) != 1 || in.Count(Panic) != 1 {
		t.Errorf("counts: stall=%d panic=%d", in.Count(Stall), in.Count(Panic))
	}
}

func TestBeginKernelCounts(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1})
	if it := in.BeginKernel(); it != 1 {
		t.Errorf("first kernel = %d", it)
	}
	if it := in.BeginKernel(); it != 2 {
		t.Errorf("second kernel = %d", it)
	}
	if in.Iter() != 2 {
		t.Errorf("Iter = %d", in.Iter())
	}
}

// TestKillKind pins the kill event end to end: the grammar accepts it
// with the same restrictions as panic (no destination, no duration, no
// corruption fields), it round-trips through String, and firing it
// panics with *Killed — the type the recovery layer keys on to shrink
// the run instead of rebuilding at full width.
func TestKillKind(t *testing.T) {
	p, err := Parse("kill:pe=3,iter=40")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Has(Kill) || p.Has(Panic) {
		t.Errorf("Has: kill=%v panic=%v", p.Has(Kill), p.Has(Panic))
	}
	if got := p.String(); got != "kill:pe=3,iter=40" {
		t.Errorf("canonical form %q", got)
	}
	for _, bad := range []string{
		"kill:pe=0->1,iter=2", // no destination
		"kill:pe=0,dur=1ms",   // no duration
		"kill:pe=0,bit=3",     // no corruption fields
		"kill:iter=2",         // missing pe
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if err := p.Validate(4); err != nil {
		t.Errorf("valid kill plan rejected: %v", err)
	}
	if err := p.Validate(3); err == nil {
		t.Error("kill:pe=3 accepted on a 3-PE machine")
	}

	in := NewInjector(p)
	in.AfterCompute(3, 39) // wrong iter: nothing fires
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("kill event did not panic")
			}
			k, ok := r.(*Killed)
			if !ok {
				t.Fatalf("panic value %T, want *Killed", r)
			}
			if k.PE != 3 || k.Iter != 40 {
				t.Errorf("kill value %+v", k)
			}
			if !strings.Contains(k.String(), "PE 3") {
				t.Errorf("kill string %q", k.String())
			}
		}()
		in.AfterCompute(3, 40)
	}()
	if in.Count(Kill) != 1 || in.Count(Panic) != 0 {
		t.Errorf("counts: kill=%d panic=%d", in.Count(Kill), in.Count(Panic))
	}
}

// TestInjectorAdvance: a resumed run fast-forwards the kernel counter so
// later events keep their absolute invocation numbers.
func TestInjectorAdvance(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1})
	in.Advance(10)
	if it := in.BeginKernel(); it != 11 {
		t.Errorf("kernel after Advance(10) = %d, want 11", it)
	}
	in.Advance(-5) // ignored
	if in.Iter() != 11 {
		t.Errorf("Iter after negative Advance = %d, want 11", in.Iter())
	}
}
