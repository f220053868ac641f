// Package fault is the deterministic fault injector for the
// persistent-PE runtime. The paper's exchange model assumes every
// partial-sum transfer arrives intact and on time; real machines drop,
// delay, duplicate, and corrupt transfers, and processing elements
// stall or die mid-kernel. This package turns those pathologies into a
// reproducible experiment: a seeded, parseable *fault plan* describes
// exactly which faults strike which PEs at which kernel invocations,
// and the runtime executes the plan at its exchange boundary.
//
// A plan is a semicolon-separated list of events:
//
//	corrupt:pe=2,iter=5;stall:pe=0,dur=10ms;panic:pe=1,iter=12;drop:pe=3->1,iter=7
//
// Event kinds and their required fields:
//
//	corrupt  pe[->dst]        flip one bit of a posted partial-sum buffer
//	drop     pe->dst          a block transfer is never delivered
//	dup      pe->dst          a block transfer is delivered twice
//	delay    pe->dst, dur     delivery of a block transfer is delayed
//	stall    pe, dur          the PE sleeps mid-kernel (a slow PE)
//	panic    pe               the PE panics mid-kernel (a software fault)
//	kill     pe               the PE dies permanently (recover by shrinking)
//	revive   pe, iter         a replacement PE rejoins at this slot (grow back)
//
// Every event accepts iter=<n> (the 1-based kernel invocation since the
// plan was armed; omitted means every invocation). corrupt additionally
// accepts word=<i> and bit=<b> to pin the flipped bit; when omitted they
// are derived deterministically from the plan seed, with the bit drawn
// from the exponent range so an unspecified corruption is drastic
// rather than vanishing into low-mantissa noise. A leading "seed:<n>"
// entry sets the derivation seed (default 1).
//
// The grammar, the recovery semantics of the layers above, and the
// poisoned-Dist contract are documented in docs/RELIABILITY.md.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault event kinds.
type Kind uint8

const (
	// Corrupt flips one bit in a posted partial-sum buffer.
	Corrupt Kind = iota
	// Drop suppresses delivery of one block transfer.
	Drop
	// Dup delivers one block transfer twice.
	Dup
	// Delay postpones delivery of one block transfer.
	Delay
	// Stall puts a PE to sleep mid-kernel.
	Stall
	// Panic makes a PE panic mid-kernel.
	Panic
	// Kill marks a PE permanently dead mid-kernel. Mechanically it
	// panics like Panic, but the panic value is *Killed, which tells the
	// recovery layer (internal/recover) that the PE is gone for good and
	// the run should shrink onto the survivors rather than retry on a
	// rebuilt Dist of the same width.
	Kill
	// Revive announces that a replacement PE is ready to rejoin at the
	// named slot from the given kernel invocation on. The injector
	// itself never fires it — there is nothing to inject into a running
	// kernel; the elastic-recovery supervisor (internal/recover)
	// consumes the event at the next checkpoint boundary and regrows
	// the partition onto the recovered PE. iter= is mandatory: an
	// every-invocation revive is meaningless.
	Revive

	numKinds = 8
)

var kindNames = [numKinds]string{"corrupt", "drop", "dup", "delay", "stall", "panic", "kill", "revive"}

// String returns the plan-grammar name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func kindByName(s string) (Kind, bool) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// EveryIter is the Iter value matching every kernel invocation.
const EveryIter = -1

// Unset marks an optional Event field whose value is derived from the
// plan seed at injection time.
const Unset = -1

// Event is one planned fault. PE is the acting PE — the stalled or
// panicking PE, or the sender of the faulted transfer. Dst is the
// receiving PE for transfer faults (Drop, Dup, Delay always; Corrupt
// optionally — Unset corrupts the buffers for all neighbors).
type Event struct {
	Kind Kind
	PE   int
	Dst  int
	// Iter is the 1-based kernel invocation (counted from arming) the
	// event fires at; EveryIter fires on all of them.
	Iter int64
	// Dur is the sleep length of Stall and Delay events.
	Dur time.Duration
	// Word and Bit pin the corrupted bit; Unset derives both from the
	// plan seed (the bit from the exponent range, so the corruption is
	// visible).
	Word int
	Bit  int
}

// String renders the event in canonical plan grammar.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	b.WriteString(":pe=")
	b.WriteString(strconv.Itoa(e.PE))
	if e.Dst != Unset {
		b.WriteString("->")
		b.WriteString(strconv.Itoa(e.Dst))
	}
	if e.Iter != EveryIter {
		fmt.Fprintf(&b, ",iter=%d", e.Iter)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, ",dur=%s", e.Dur)
	}
	if e.Word != Unset {
		fmt.Fprintf(&b, ",word=%d", e.Word)
	}
	if e.Bit != Unset {
		fmt.Fprintf(&b, ",bit=%d", e.Bit)
	}
	return b.String()
}

// Plan is a parsed fault plan: an ordered list of events plus the seed
// that derives any unpinned corruption targets. The zero Seed is
// normalized to 1 so every plan is deterministic.
type Plan struct {
	Seed   int64
	Events []Event
}

// String renders the plan in canonical grammar; Parse(p.String())
// reproduces the plan exactly.
func (p *Plan) String() string {
	parts := make([]string, 0, len(p.Events)+1)
	if p.Seed != 1 {
		parts = append(parts, fmt.Sprintf("seed:%d", p.Seed))
	}
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// Validate checks the plan against a PE count: every referenced PE must
// exist. Structural validity (required fields, ranges) is established
// by Parse; Validate is the runtime-facing check.
func (p *Plan) Validate(pes int) error {
	for i, e := range p.Events {
		lim := pes
		if e.Kind == Revive {
			// A revive names an insertion slot, not a live PE: rejoining
			// at index == width appends a new top PE, so pe ≤ pes is
			// valid where every other kind requires pe < pes.
			lim = pes + 1
		}
		if e.PE < 0 || e.PE >= lim {
			return fmt.Errorf("fault: event %d (%s) references PE %d, machine has %d", i, e.Kind, e.PE, pes)
		}
		if e.Dst != Unset && (e.Dst < 0 || e.Dst >= pes) {
			return fmt.Errorf("fault: event %d (%s) references destination PE %d, machine has %d", i, e.Kind, e.Dst, pes)
		}
	}
	return nil
}

// Has reports whether the plan contains at least one event of kind k.
func (p *Plan) Has(k Kind) bool {
	for _, e := range p.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Parse parses the fault-plan grammar. Whitespace around entries and
// fields is ignored; field order within an event is free; the canonical
// form is produced by String.
func Parse(s string) (*Plan, error) {
	p := &Plan{Seed: 1}
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, hasFields := strings.Cut(entry, ":")
		kindStr = strings.TrimSpace(kindStr)
		if kindStr == "seed" {
			seed, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", rest)
			}
			if seed == 0 {
				seed = 1
			}
			p.Seed = seed
			continue
		}
		kind, ok := kindByName(kindStr)
		if !ok {
			return nil, fmt.Errorf("fault: unknown event kind %q", kindStr)
		}
		e := Event{Kind: kind, PE: Unset, Dst: Unset, Iter: EveryIter, Word: Unset, Bit: Unset}
		if hasFields {
			if err := parseFields(&e, rest); err != nil {
				return nil, err
			}
		}
		if err := checkEvent(&e); err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	// A seed-only plan would arm an injector that can never fire (and
	// its canonical form would not round-trip); reject it with the
	// empty plan.
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("fault: plan has no events")
	}
	return p, nil
}

func parseFields(e *Event, s string) error {
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("fault: %s: field %q is not key=value", e.Kind, field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "pe":
			// pe=3 or pe=3->1 (ASCII) or pe=3→1 (arrow).
			src := val
			if a, b, ok := strings.Cut(val, "->"); ok {
				src = a
				dst, err := parseBounded(b, 0, 1<<20)
				if err != nil {
					return fmt.Errorf("fault: %s: bad destination PE %q", e.Kind, b)
				}
				e.Dst = dst
			} else if a, b, ok := strings.Cut(val, "→"); ok {
				src = a
				dst, err := parseBounded(b, 0, 1<<20)
				if err != nil {
					return fmt.Errorf("fault: %s: bad destination PE %q", e.Kind, b)
				}
				e.Dst = dst
			}
			pe, err := parseBounded(src, 0, 1<<20)
			if err != nil {
				return fmt.Errorf("fault: %s: bad PE %q", e.Kind, src)
			}
			e.PE = pe
		case "iter":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("fault: %s: iter must be a positive integer, got %q", e.Kind, val)
			}
			e.Iter = n
		case "dur":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("fault: %s: bad duration %q", e.Kind, val)
			}
			e.Dur = d
		case "word":
			w, err := parseBounded(val, 0, 1<<30)
			if err != nil {
				return fmt.Errorf("fault: %s: bad word index %q", e.Kind, val)
			}
			e.Word = w
		case "bit":
			b, err := parseBounded(val, 0, 63)
			if err != nil {
				return fmt.Errorf("fault: %s: bit must be in [0,63], got %q", e.Kind, val)
			}
			e.Bit = b
		default:
			return fmt.Errorf("fault: %s: unknown field %q", e.Kind, key)
		}
	}
	return nil
}

func parseBounded(s string, lo, hi int) (int, error) {
	s = strings.TrimSpace(s)
	n, err := strconv.Atoi(s)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("out of range")
	}
	return n, nil
}

// checkEvent enforces per-kind required fields.
func checkEvent(e *Event) error {
	if e.PE == Unset {
		return fmt.Errorf("fault: %s: missing pe=", e.Kind)
	}
	if e.Dst == e.PE && e.Dst != Unset {
		return fmt.Errorf("fault: %s: pe=%d->%d is a self-transfer", e.Kind, e.PE, e.Dst)
	}
	switch e.Kind {
	case Drop, Dup, Delay:
		if e.Dst == Unset {
			return fmt.Errorf("fault: %s: needs a directed transfer (pe=<src>-><dst>)", e.Kind)
		}
	case Revive:
		// The supervisor consumes revives at checkpoint boundaries; an
		// every-invocation revive would regrow on every checkpoint.
		if e.Iter == EveryIter {
			return fmt.Errorf("fault: revive: needs iter=<n> (the kernel invocation the replacement PE is ready at)")
		}
	}
	switch e.Kind {
	case Delay, Stall:
		if e.Dur <= 0 {
			return fmt.Errorf("fault: %s: needs dur=<duration>", e.Kind)
		}
	default:
		if e.Dur != 0 {
			return fmt.Errorf("fault: %s: dur= is only valid on delay and stall", e.Kind)
		}
	}
	if e.Kind != Corrupt && (e.Word != Unset || e.Bit != Unset) {
		return fmt.Errorf("fault: %s: word=/bit= are only valid on corrupt", e.Kind)
	}
	// Transfer direction is meaningless for PE-local faults.
	if (e.Kind == Stall || e.Kind == Panic || e.Kind == Kill || e.Kind == Revive) && e.Dst != Unset {
		return fmt.Errorf("fault: %s: does not take a destination PE", e.Kind)
	}
	return nil
}
