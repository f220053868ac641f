package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The job journal is the engine's write-ahead log: one append-only
// file of CRC-checked records, each a jobRecord JSON document framed
// by a fixed binary header. Appends are synced before the engine
// acknowledges the job, so "accepted" means "survives a process
// crash". The framing follows the QSIMCKPT discipline from
// internal/recover/checkpoint.go — magic, explicit payload length,
// CRC-32C, a strict bounds-checked decoder — scaled down to a record
// stream: replay walks records until the first torn or corrupt frame,
// truncates the tail there (a crash mid-append leaves at worst one
// torn final record), and rebuilds the job table from what survived.
//
//	offset size  field
//	0      4     magic "QJL1"
//	4      4     payload length in bytes (little-endian)
//	8      4     CRC-32C (Castagnoli) of the payload
//	12     …     payload (one JSON jobRecord)
const (
	journalMagic     = "QJL1"
	journalHeaderLen = 4 + 4 + 4
	// maxJournalRecord bounds one record's payload so a corrupted
	// length field cannot demand gigabytes; a SolveRequest body is
	// itself capped at maxRequestBytes, which this dominates.
	maxJournalRecord = maxRequestBytes + (1 << 16)
	// journalFile is the WAL's name inside Config.JournalDir.
	journalFile = "jobs.wal"
)

// jobRecord is one journal entry. Op "accept" carries the request and
// creates the job; op "state" moves it through the lifecycle and, at a
// terminal state, carries the result. Records for one job ID apply in
// file order; replay keeps the last state seen.
type jobRecord struct {
	Op   string    `json:"op"` // accept | state
	ID   string    `json:"id"`
	Time time.Time `json:"time"`

	// accept fields.
	Idem string        `json:"idem,omitempty"`
	Req  *SolveRequest `json:"req,omitempty"`

	// state fields.
	State      JobState     `json:"state,omitempty"`
	Attempts   int          `json:"attempts,omitempty"`
	Migrations int          `json:"migrations,omitempty"`
	CkptIter   int          `json:"ckpt_iter,omitempty"`
	Replayed   bool         `json:"replayed,omitempty"`
	Result     *SolveResult `json:"result,omitempty"`
	Error      string       `json:"error,omitempty"`
}

// encodeJournalRecord frames one record for appending, in one buffer:
// the header is reserved, the JSON encoded behind it, and the length and
// checksum patched in.
func encodeJournalRecord(rec *jobRecord) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(512) // a state record without a result fits; an accept record grows once
	var header [journalHeaderLen]byte
	b.Write(header[:])
	if err := json.NewEncoder(&b).Encode(rec); err != nil {
		return nil, fmt.Errorf("serve: encoding journal record: %w", err)
	}
	// Encode is Marshal plus a newline the frame does not carry.
	buf := b.Bytes()[:b.Len()-1]
	payload := buf[journalHeaderLen:]
	if len(payload) > maxJournalRecord {
		return nil, fmt.Errorf("serve: journal record %d bytes exceeds %d", len(payload), maxJournalRecord)
	}
	copy(buf, journalMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(payload, castagnoliJL))
	return buf, nil
}

var castagnoliJL = crc32.MakeTable(crc32.Castagnoli)

// errJournalTorn marks a frame that stops short of its declared
// length: the normal artifact of a crash mid-append, distinguished
// from outright corruption only for observability (both truncate).
var errJournalTorn = fmt.Errorf("serve: journal record torn")

// decodeJournalRecord parses one framed record from the head of data,
// returning the record and the bytes consumed. It never panics on
// hostile input and never reads past the declared payload
// (FuzzDecodeJournal holds it to that).
func decodeJournalRecord(data []byte) (*jobRecord, int, error) {
	if len(data) < journalHeaderLen {
		return nil, 0, errJournalTorn
	}
	if string(data[:4]) != journalMagic {
		return nil, 0, fmt.Errorf("serve: journal record has bad magic")
	}
	plen := binary.LittleEndian.Uint32(data[4:])
	if plen > maxJournalRecord {
		return nil, 0, fmt.Errorf("serve: journal record claims %d bytes", plen)
	}
	if uint32(len(data)-journalHeaderLen) < plen {
		return nil, 0, errJournalTorn
	}
	payload := data[journalHeaderLen : journalHeaderLen+int(plen)]
	if sum := crc32.Checksum(payload, castagnoliJL); sum != binary.LittleEndian.Uint32(data[8:]) {
		return nil, 0, fmt.Errorf("serve: journal record checksum mismatch")
	}
	rec := &jobRecord{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, fmt.Errorf("serve: journal record payload: %w", err)
	}
	switch rec.Op {
	case "accept":
		if rec.Req == nil {
			return nil, 0, fmt.Errorf("serve: journal accept record without a request")
		}
	case "state":
		if !rec.State.valid() {
			return nil, 0, fmt.Errorf("serve: journal state record with state %q", rec.State)
		}
	default:
		return nil, 0, fmt.Errorf("serve: journal record op %q", rec.Op)
	}
	if rec.ID == "" {
		return nil, 0, fmt.Errorf("serve: journal record without a job id")
	}
	return rec, journalHeaderLen + int(plen), nil
}

// journal is the open WAL: appends under a mutex, fsync per record,
// compaction by tmp+rename. A nil *journal is valid and inert (the
// engine without a JournalDir), so call sites stay unconditional.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	bytes  int64
	closed bool
}

// openJournal opens (creating if needed) dir's WAL and replays it,
// returning the surviving records in file order. A torn or corrupt
// tail is truncated away — counted, not fatal — so a crash mid-append
// costs at most the record being written.
func openJournal(dir string) (*journal, []*jobRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	var recs []*jobRecord
	good := 0
	for good < len(data) {
		rec, n, derr := decodeJournalRecord(data[good:])
		if derr != nil {
			jobJournalDropped.Add(1)
			break
		}
		recs = append(recs, rec)
		good += n
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: seeking journal: %w", err)
	}
	j := &journal{f: f, path: path, bytes: int64(good)}
	jobJournalBytes.Set(float64(j.bytes))
	return j, recs, nil
}

// append frames, writes, and syncs one record. Errors are counted and
// returned; the in-memory job table stays authoritative either way.
func (j *journal) append(rec *jobRecord) error {
	if j == nil {
		return nil
	}
	buf, err := encodeJournalRecord(rec)
	if err != nil {
		jobJournalErrors.Add(1)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal %w", ErrClosed)
	}
	if _, err := j.f.Write(buf); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal append: %w", err)
	}
	syncStart := time.Now()
	if err := j.f.Sync(); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	jobJournalSyncUS.Observe(time.Since(syncStart).Microseconds())
	j.bytes += int64(len(buf))
	jobJournalRecords.Add(1)
	jobJournalBytes.Set(float64(j.bytes))
	return nil
}

// size reports the journal's current byte length.
func (j *journal) size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// compact atomically rewrites the WAL to exactly recs (the live job
// set re-serialized), dropping every superseded state record and every
// evicted job. The rewrite goes to a temp file, syncs, and renames
// over the WAL, so a crash mid-compaction leaves either the old or the
// new journal, never a mix.
func (j *journal) compact(recs []*jobRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("serve: journal %w", ErrClosed)
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), "jobs-*.tmp")
	if err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var total int64
	for _, rec := range recs {
		buf, err := encodeJournalRecord(rec)
		if err != nil {
			tmp.Close()
			jobJournalErrors.Add(1)
			return err
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			jobJournalErrors.Add(1)
			return fmt.Errorf("serve: journal compact: %w", err)
		}
		total += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal compact rename: %w", err)
	}
	j.f.Close()
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.closed = true
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: reopening compacted journal: %w", err)
	}
	j.f = f
	j.bytes = total
	jobJournalCompactions.Add(1)
	jobJournalBytes.Set(float64(j.bytes))
	return nil
}

// close flushes and closes the WAL file.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	j.f.Sync()
	j.f.Close()
}
