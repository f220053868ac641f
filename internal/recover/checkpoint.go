package recover

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Checkpoint is one durable snapshot of a running solve: enough to
// restart the exact iteration on a fresh process (the solver State) and
// enough to rebuild the machine it ran on (the partition and the fault
// plan's progress). MeshID ties the snapshot to its mesh — resuming
// against a different mesh is refused before any float is touched.
type Checkpoint struct {
	// MeshID identifies the mesh the snapshot belongs to (see MeshID).
	MeshID uint64
	// P and ElemPE are the partition at snapshot time — post-shrink
	// when PEs have already been lost.
	P      int32
	ElemPE []int32
	// Iter, Rho, X, R, PDir mirror solver.State: the consistent
	// (x, r, p, ρ) tuple entering iteration Iter.
	Iter int64
	Rho  float64
	X    []float64
	R    []float64
	PDir []float64
	// FaultPlan and FaultIter preserve the injector's progress: the
	// armed plan's canonical string (empty when none) and the kernel
	// invocations already executed, so a resumed run fast-forwards its
	// injector (fault.Injector.Advance) and later events keep their
	// absolute positions.
	FaultPlan string
	FaultIter int64
}

// State converts the checkpoint back to a solver resume state. The
// returned slices alias the checkpoint.
func (c *Checkpoint) State() *solver.State {
	return &solver.State{Iter: int(c.Iter), X: c.X, R: c.R, P: c.PDir, Rho: c.Rho}
}

// File format: one durable.Format frame (all integers little-endian):
//
//	offset size  field
//	0      8     magic "QSIMCKPT"
//	8      4     version (currently 1)
//	12     8     payload length in bytes
//	20     4     CRC-32C (Castagnoli) of the payload
//	24     …     payload
//
// The payload is the fixed-order field list laid down by encodeInto.
// The decoder is strict: short files, trailing bytes, version skew,
// checksum mismatches, and internal length fields that disagree with
// the payload size are all errors — a corrupt checkpoint must never be
// half-loaded.
var ckptFormat = durable.Format{Prefix: "QSIMCKPT" + "\x01\x00\x00\x00", LenBytes: 8}

// maxCkptElems / maxCkptScalars bound the decoder's allocations so a
// corrupted length field cannot demand petabytes.
const (
	maxCkptElems   = 1 << 28
	maxCkptScalars = 1 << 28
	maxCkptPlan    = 1 << 20
)

var (
	ckptWrites     = obs.GetCounter("recover.checkpoint.writes")
	ckptPruned     = obs.GetCounter("recover.checkpoint.pruned")
	ckptRecycled   = obs.GetCounter("recover.checkpoint.recycled")
	ckptBytes      = obs.GetHistogram("recover.checkpoint.bytes")
	ckptDurationUS = obs.GetHistogram("recover.checkpoint.duration_us")
	ckptEncodeUS   = obs.GetHistogram("recover.checkpoint.encode_us")
	ckptSyncUS     = obs.GetHistogram("recover.checkpoint.sync_us")
)

// MeshID fingerprints a mesh — FNV-1a over its sizes, connectivity,
// and coordinate bits — so a checkpoint written for one mesh is
// refused by a resume against any other.
func MeshID(m *mesh.Mesh) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(m.NumNodes()))
	mix(uint64(m.NumElems()))
	for _, t := range m.Tets {
		for _, v := range t {
			mix(uint64(uint32(v)))
		}
	}
	for _, c := range m.Coords {
		mix(math.Float64bits(c.X))
		mix(math.Float64bits(c.Y))
		mix(math.Float64bits(c.Z))
	}
	return h
}

// Encode serializes the checkpoint.
func (c *Checkpoint) Encode() []byte { return c.encodeInto(nil) }

// encodeInto writes the encoding over buf — grown only when it is too
// small, so a Store's snapshots share one buffer — and returns it. One
// pass: the header is reserved, the payload laid down at fixed offsets
// behind it, and the length and checksum patched in last.
func (c *Checkpoint) encodeInto(buf []byte) []byte {
	le, headerLen := binary.LittleEndian, ckptFormat.HeaderLen()
	n := headerLen + 8 + 4 + 8 + 4*len(c.ElemPE) + 8 + 8 + 8 +
		8*(len(c.X)+len(c.R)+len(c.PDir)) + 8 + 8 + len(c.FaultPlan)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]

	b := buf[headerLen:]
	le.PutUint64(b, c.MeshID)
	le.PutUint32(b[8:], uint32(c.P))
	le.PutUint64(b[12:], uint64(len(c.ElemPE)))
	b = b[20:]
	for _, pe := range c.ElemPE {
		le.PutUint32(b, uint32(pe))
		b = b[4:]
	}
	le.PutUint64(b, uint64(c.Iter))
	le.PutUint64(b[8:], math.Float64bits(c.Rho))
	le.PutUint64(b[16:], uint64(len(c.X)))
	b = b[24:]
	for _, vec := range [][]float64{c.X, c.R, c.PDir} {
		b = putFloats(b, vec)
	}
	le.PutUint64(b, uint64(c.FaultIter))
	le.PutUint64(b[8:], uint64(len(c.FaultPlan)))
	copy(b[16:], c.FaultPlan)

	ckptFormat.Seal(buf)
	return buf
}

// putFloats lays vec down at the head of b as little-endian IEEE-754
// bits and returns the rest of b. Four scalars per step, one bounds check
// for the four: on the 834 KB sf10/p4 snapshot that took Encode from
// ≈ 270 µs to ≈ 205 µs.
func putFloats(b []byte, vec []float64) []byte {
	le := binary.LittleEndian
	for len(vec) >= 4 {
		d := b[:32]
		le.PutUint64(d, math.Float64bits(vec[0]))
		le.PutUint64(d[8:], math.Float64bits(vec[1]))
		le.PutUint64(d[16:], math.Float64bits(vec[2]))
		le.PutUint64(d[24:], math.Float64bits(vec[3]))
		b, vec = b[32:], vec[4:]
	}
	for _, v := range vec {
		le.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
	return b
}

// Decode parses and validates an encoded checkpoint. Every rejection
// path returns an error; Decode never panics on hostile input
// (FuzzDecodeCheckpoint holds it to that).
func Decode(data []byte) (*Checkpoint, error) {
	payload, span, err := ckptFormat.Open(data)
	if err != nil {
		return nil, fmt.Errorf("recover: checkpoint: %w", err)
	}
	if span != len(data) {
		return nil, fmt.Errorf("recover: %d trailing bytes after the checkpoint frame", len(data)-span)
	}

	d := decoder{b: payload}
	c := &Checkpoint{}
	c.MeshID = d.u64()
	c.P = int32(d.u32())
	ne := d.u64()
	if ne > maxCkptElems {
		return nil, fmt.Errorf("recover: checkpoint claims %d elements", ne)
	}
	if c.P <= 0 {
		return nil, fmt.Errorf("recover: checkpoint has %d PEs", c.P)
	}
	c.ElemPE = make([]int32, 0, min(int(ne), 1<<16))
	for i := uint64(0); i < ne; i++ {
		pe := int32(d.u32())
		if d.err == nil && (pe < 0 || pe >= c.P) {
			return nil, fmt.Errorf("recover: element %d assigned to PE %d of %d", i, pe, c.P)
		}
		c.ElemPE = append(c.ElemPE, pe)
	}
	c.Iter = int64(d.u64())
	c.Rho = math.Float64frombits(d.u64())
	n := d.u64()
	if n > maxCkptScalars {
		return nil, fmt.Errorf("recover: checkpoint claims %d scalars per vector", n)
	}
	vecs := [3]*[]float64{&c.X, &c.R, &c.PDir}
	for _, vp := range vecs {
		*vp = make([]float64, 0, min(int(n), 1<<16))
		for i := uint64(0); i < n; i++ {
			*vp = append(*vp, math.Float64frombits(d.u64()))
		}
	}
	c.FaultIter = int64(d.u64())
	pl := d.u64()
	if pl > maxCkptPlan {
		return nil, fmt.Errorf("recover: checkpoint claims a %d-byte fault plan", pl)
	}
	c.FaultPlan = string(d.bytes(pl))
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("recover: %d trailing bytes after checkpoint payload", len(d.b))
	}
	if c.Iter < 0 || c.FaultIter < 0 {
		return nil, fmt.Errorf("recover: negative iteration counter in checkpoint")
	}
	return c, nil
}

// decoder is a bounds-checked little-endian reader: the first short
// read latches err and every later read returns zero, so call sites
// stay linear and the single error check at the end suffices.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail(4)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail(int(n))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) fail(want int) {
	if d.err == nil {
		d.err = fmt.Errorf("recover: checkpoint payload truncated (%d bytes left, field needs %d)", len(d.b), want)
	}
}

// Store persists checkpoints in a directory, one file per snapshot
// named ckpt-<iteration>.qck. Writes are atomic (durable.Replace): a crash
// mid-write leaves at worst a stale .tmp file the strict decoder would
// reject anyway, never a half-written checkpoint under the real name. A
// Store is safe for concurrent use; its writes serialize.
type Store struct {
	// Keep, when positive, is the retention window: Save holds the
	// directory to the newest Keep snapshots (the newest is all a resume
	// ever reads; the ones behind it only buy tolerance to a torn latest
	// write). Zero keeps everything. Set it before the first Save.
	Keep int

	dir string

	mu    sync.Mutex
	buf   []byte   // the encoding of the snapshot being written, reused
	names []string // snapshots on disk, oldest first; nil until a scan or a Save puts one there
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// list returns the directory's snapshot names in os.ReadDir's order, by
// name: zero-padded iteration numbers make that oldest-first.
func (s *Store) list() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".qck" {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// scan makes names the directory's snapshot list and unlinks every temp
// file (counted, like trim's, under recover.checkpoint.pruned). It runs
// with mu held before this Store's first write, so every temp it meets
// is litter: a previous process died between creating it and the rename.
func (s *Store) scan() (err error) {
	litter, _ := filepath.Glob(filepath.Join(s.dir, "*.tmp"))
	for _, tmp := range litter {
		if durable.Remove(tmp) == nil {
			ckptPruned.Add(1)
		}
	}
	s.names, err = s.list()
	return err
}

// trim unlinks the oldest snapshots beyond the Keep window. A file that
// will not go stays listed and is retried by the next Save.
func (s *Store) trim() {
	for s.Keep > 0 && len(s.names) > s.Keep && durable.Remove(filepath.Join(s.dir, s.names[0])) == nil {
		s.names = s.names[1:]
		ckptPruned.Add(1)
	}
}

// Save atomically writes the checkpoint and returns its path, then holds
// the directory to the Keep window. The first Save adopts what a
// previous process left (its snapshots count toward the window, its
// stale temp files go); after that the Store knows the names it wrote
// and lists nothing. When the window is full and the snapshot is newer
// than all of it, the write is about to push the oldest one out, and that
// file is recycled: renamed to ckpt-recycle.tmp and overwritten in place.
// Bytes written and wall time are observed under recover.checkpoint.*.
func (s *Store) Save(c *Checkpoint) (string, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.names == nil {
		if err := s.scan(); err != nil {
			return "", err
		}
	}
	s.buf = c.encodeInto(s.buf)
	ckptEncodeUS.Observe(time.Since(start).Microseconds())

	name := fmt.Sprintf("ckpt-%09d.qck", c.Iter)
	final, oldest := filepath.Join(s.dir, name), ""
	if n := len(s.names); s.Keep > 0 && n >= s.Keep && name > s.names[n-1] {
		oldest = filepath.Join(s.dir, s.names[0])
	}
	recycled, syncTime, err := durable.Replace(final, "ckpt-*.tmp", s.buf, oldest)
	if recycled {
		s.names = s.names[1:]
		ckptPruned.Add(1)
		ckptRecycled.Add(1)
	}
	if err != nil {
		return "", fmt.Errorf("recover: checkpoint write: %w", err)
	}
	ckptSyncUS.Observe(syncTime.Microseconds())
	if at, known := slices.BinarySearch(s.names, name); !known {
		s.names = slices.Insert(s.names, at, name)
	}
	s.trim()
	ckptWrites.Add(1)
	ckptBytes.Observe(int64(len(s.buf)))
	ckptDurationUS.Observe(time.Since(start).Microseconds())
	return final, nil
}

// Latest decodes the highest-iteration checkpoint in the store. It
// returns os.ErrNotExist (wrapped) when the directory holds no
// decodable checkpoint.
func (s *Store) Latest() (*Checkpoint, string, error) {
	names, err := s.list()
	if err != nil {
		return nil, "", err
	}
	// Walk newest-first so one torn or corrupt latest file degrades to the
	// previous snapshot instead of failing the resume.
	slices.Reverse(names)
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		c, err := Decode(data)
		if err != nil {
			continue
		}
		return c, path, nil
	}
	return nil, "", fmt.Errorf("recover: no checkpoint in %s: %w", s.dir, os.ErrNotExist)
}
