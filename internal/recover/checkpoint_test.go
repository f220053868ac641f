package recover

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/solver"
)

// The QSIMCKPT header as this package spelled it before the codec moved to
// internal/durable: what the verbatim reference encoder and the rejection
// tests are written against, independent of durable.Format.
const (
	ckptMagic   = "QSIMCKPT"
	ckptVersion = 1
	headerLen   = 8 + 4 + 8 + 4
	recycleTmp  = "ckpt-recycle.tmp"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		MeshID:    0xfeedc0de,
		P:         4,
		ElemPE:    []int32{0, 1, 2, 3, 0, 1, 3},
		Iter:      42,
		Rho:       3.25e-4,
		X:         []float64{1.5, -2.25, 0, 9.75},
		R:         []float64{0.5, 0.25, -0.125, 8},
		PDir:      []float64{-1, 2, -3, 4},
		FaultPlan: "kill:pe=3,iter=40",
		FaultIter: 17,
	}
}

// TestCheckpointRoundTrip: Encode→Decode is the identity, including
// the solver-state view.
func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	got, err := Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.MeshID != ck.MeshID || got.P != ck.P || got.Iter != ck.Iter ||
		got.Rho != ck.Rho || got.FaultPlan != ck.FaultPlan || got.FaultIter != ck.FaultIter {
		t.Fatalf("scalar fields: %+v", got)
	}
	for i := range ck.ElemPE {
		if got.ElemPE[i] != ck.ElemPE[i] {
			t.Fatalf("ElemPE[%d] = %d, want %d", i, got.ElemPE[i], ck.ElemPE[i])
		}
	}
	for i := range ck.X {
		if got.X[i] != ck.X[i] || got.R[i] != ck.R[i] || got.PDir[i] != ck.PDir[i] {
			t.Fatalf("vectors differ at %d", i)
		}
	}
	st := got.State()
	if st.Iter != 42 || st.Rho != ck.Rho || len(st.X) != 4 || st.P[3] != 4 {
		t.Fatalf("State() = %+v", st)
	}
}

// TestDecodeRejections pins the strict-decoder contract: truncation,
// corruption, version skew, bad magic, trailing bytes, and hostile
// internal lengths are all refused with errors.
func TestDecodeRejections(t *testing.T) {
	valid := sampleCheckpoint().Encode()

	t.Run("truncated", func(t *testing.T) {
		// Prefixes cut inside the header (before headerLen) matter as
		// much as payload truncation: Latest must treat both as
		// undecodable and fall through to an older snapshot.
		for _, n := range []int{0, 7, 12, headerLen - 4, headerLen - 1, headerLen, headerLen + 3, len(valid) - 1} {
			if _, err := Decode(valid[:n]); err == nil {
				t.Errorf("accepted a %d-byte prefix", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xff
		if _, err := Decode(b); err == nil {
			t.Error("accepted corrupted magic")
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[8:], ckptVersion+1)
		if _, err := Decode(b); err == nil {
			t.Error("accepted a future version")
		}
	})
	t.Run("payload-corruption", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[headerLen+9] ^= 0x10
		if _, err := Decode(b); err == nil {
			t.Error("accepted a payload bit flip (checksum missed it)")
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), valid...), 0)); err == nil {
			t.Error("accepted trailing bytes")
		}
	})
	t.Run("hostile-lengths", func(t *testing.T) {
		// A payload claiming 2^60 elements must be refused before any
		// allocation, not after; rebuild the frame so length and CRC are
		// self-consistent and only the element count lies.
		ck := sampleCheckpoint()
		payload := ck.appendPayload(nil)
		binary.LittleEndian.PutUint64(payload[12:], 1<<60)
		b := make([]byte, 0, headerLen+len(payload))
		b = append(b, ckptMagic...)
		b = binary.LittleEndian.AppendUint32(b, ckptVersion)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		b = append(b, payload...)
		if _, err := Decode(b); err == nil {
			t.Error("accepted a 2^60-element claim")
		}
	})
}

// referenceEncode and appendPayload are the two-buffer encoder as it
// stood before the single-pass one (PR 14, verbatim): the reference
// TestEncoderMatchesReference differences Encode and the Store's
// reused-buffer path against, byte for byte.
func referenceEncode(c *Checkpoint) []byte {
	payload := c.appendPayload(make([]byte, 0, 64+4*len(c.ElemPE)+8*(len(c.X)+len(c.R)+len(c.PDir))))
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

func (c *Checkpoint) appendPayload(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, c.MeshID)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.P))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.ElemPE)))
	for _, pe := range c.ElemPE {
		b = binary.LittleEndian.AppendUint32(b, uint32(pe))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Iter))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Rho))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.X)))
	for _, vec := range [][]float64{c.X, c.R, c.PDir} {
		for _, v := range vec {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.FaultIter))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.FaultPlan)))
	return append(b, c.FaultPlan...)
}

// randomCheckpoint draws a checkpoint with n scalars per vector, ne
// elements and a planLen-byte fault plan; the floats are raw bit
// patterns, NaNs and denormals included.
func randomCheckpoint(rng *rand.Rand, p int32, ne, n, planLen int) *Checkpoint {
	c := &Checkpoint{
		MeshID: rng.Uint64(), P: p, Iter: rng.Int63n(1 << 40), FaultIter: rng.Int63n(1 << 40),
		Rho:       math.Float64frombits(rng.Uint64()),
		ElemPE:    make([]int32, ne),
		FaultPlan: strings.Repeat("kill:pe=1,iter=9;", planLen/17+1)[:planLen],
	}
	for i := range c.ElemPE {
		c.ElemPE[i] = rng.Int31n(p)
	}
	for _, vp := range []*[]float64{&c.X, &c.R, &c.PDir} {
		*vp = make([]float64, n)
		for i := range *vp {
			(*vp)[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return c
}

// TestEncoderMatchesReference: the single-pass encoder writes the bytes
// the two-buffer one did — through Encode and through one buffer reused
// across snapshots that shrink and then grow, so a stale tail or a stale
// length can never leak from one snapshot into the next.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := []struct {
		p                int32
		ne, n, planBytes int
	}{
		{4, 7, 4, 17},      // the sample shape
		{1, 1, 3, 0},       // P = 1, no plan
		{3, 0, 0, 0},       // empty vectors, no elements
		{8, 900, 2700, 64}, // grows the reused buffer
		{2, 5, 13, 4096},   // shrinks it; long plan; one scalar past the last quad
		{4, 7, 6, 17},      // two past
		{1, 0, 0, 1},
		{16, 4000, 9000, 0}, // grows again
		{4, 7, 4, 17},
	}
	var reused []byte
	for round := 0; round < 4; round++ {
		for _, sh := range shapes {
			c := randomCheckpoint(rng, sh.p, sh.ne, sh.n, sh.planBytes)
			want := referenceEncode(c)
			if got := c.Encode(); !bytes.Equal(got, want) {
				t.Fatalf("round %d shape %+v: Encode differs from the reference encoder", round, sh)
			}
			reused = c.encodeInto(reused)
			if !bytes.Equal(reused, want) {
				t.Fatalf("round %d shape %+v: reused-buffer encoding differs from the reference encoder", round, sh)
			}
			if _, err := Decode(reused); err != nil {
				t.Fatalf("round %d shape %+v: %v", round, sh, err)
			}
		}
	}
}

// TestStoreSaveLatest: snapshots land atomically under ckpt-<iter>.qck,
// Latest returns the newest decodable one, and a corrupted newest file
// degrades to the previous snapshot instead of failing the resume.
func TestStoreSaveLatest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty store Latest: %v", err)
	}
	ck := sampleCheckpoint()
	for _, iter := range []int64{5, 10, 15} {
		ck.Iter = iter
		if _, err := s.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	got, path, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 15 || filepath.Base(path) != "ckpt-000000015.qck" {
		t.Fatalf("Latest = iter %d at %s", got.Iter, path)
	}
	// Corrupt the newest file; Latest must fall back to iter 10.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 10 {
		t.Fatalf("fallback Latest = iter %d, want 10", got.Iter)
	}
	// A file truncated *inside the header* (a crash mid-write on a
	// filesystem without atomic rename, or torn storage) must degrade
	// the same way — skipped, not fatal.
	if err := os.WriteFile(path, data[:12], 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 10 {
		t.Fatalf("truncated-header fallback Latest = iter %d, want 10", got.Iter)
	}
	// No temp litter after successful saves.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestCheckpointSolverStateRoundTrip: a State captured by the solver
// survives the disk round trip bit for bit — the property the
// bit-identical resume rests on.
func TestCheckpointSolverStateRoundTrip(t *testing.T) {
	st := &solver.State{
		Iter: 7,
		X:    []float64{1.0000000000000002, -0, 3e-308},
		R:    []float64{2.5, -7.25, 1.125},
		P:    []float64{0.1, 0.2, 0.3},
		Rho:  1.7976931348623157e308,
	}
	ck := &Checkpoint{P: 1, ElemPE: []int32{0}, Iter: int64(st.Iter), Rho: st.Rho, X: st.X, R: st.R, PDir: st.P}
	got, err := Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	back := got.State()
	if back.Iter != st.Iter || back.Rho != st.Rho {
		t.Fatalf("State round trip: %+v", back)
	}
	for i := range st.X {
		if back.X[i] != st.X[i] || back.R[i] != st.R[i] || back.P[i] != st.P[i] {
			t.Fatalf("vector bits differ at %d", i)
		}
	}
}

// FuzzDecodeCheckpoint: random mutations of a valid snapshot must
// never crash or hang the decoder — only decode cleanly or error.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := sampleCheckpoint().Encode()
	f.Add(valid)
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})
	// Headers cut mid-field: past the magic, and past the version but
	// inside the length/CRC words.
	f.Add(valid[:12])
	f.Add(valid[:headerLen-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint without error")
		}
		if err == nil {
			// A decoded checkpoint must re-encode decodable.
			if _, err := Decode(ck.Encode()); err != nil {
				t.Fatalf("re-encode of accepted checkpoint rejected: %v", err)
			}
		}
	})
}
