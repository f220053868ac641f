package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
)

// The job journal is the engine's write-ahead log: one append-only
// file of CRC-checked records, each a jobRecord JSON document in a
// durable.Format frame. Appends are synced before the engine
// acknowledges the job, so "accepted" means "survives a process
// crash". Replay walks records until the first torn or corrupt frame,
// truncates the tail there (a crash mid-append leaves at worst one
// torn final record), and rebuilds the job table from what survived.
//
//	offset size  field
//	0      4     magic "QJL1"
//	4      4     payload length in bytes (little-endian)
//	8      4     CRC-32C (Castagnoli) of the payload
//	12     …     payload (one JSON jobRecord)
var journalFormat = durable.Format{Prefix: "QJL1", LenBytes: 4}

// journalHeader is the zeroed room a frame's header is sealed into.
var journalHeader = make([]byte, journalFormat.HeaderLen())

const (
	// maxJournalRecord bounds one record's payload so a corrupted
	// length field cannot demand gigabytes; a SolveRequest body is
	// itself capped at maxRequestBytes, which this dominates.
	maxJournalRecord = maxRequestBytes + (1 << 16)
	// journalFile is the WAL's name inside Config.JournalDir, and
	// journalTmp what a compaction writes before renaming over it.
	journalFile = "jobs.wal"
	journalTmp  = "jobs-*.tmp"
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
// checksum sealed in.
func encodeJournalRecord(rec *jobRecord) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(512) // a state record without a result fits; an accept record grows once
	b.Write(journalHeader)
	if err := json.NewEncoder(&b).Encode(rec); err != nil {
		return nil, fmt.Errorf("serve: encoding journal record: %w", err)
	}
	// Encode is Marshal plus a newline the frame does not carry.
	frame := b.Bytes()[:b.Len()-1]
	if n := len(frame) - len(journalHeader); n > maxJournalRecord {
		return nil, fmt.Errorf("serve: journal record %d bytes exceeds %d", n, maxJournalRecord)
	}
	journalFormat.Seal(frame)
	return frame, nil
}

// decodeJournalRecord parses one framed record from the head of data,
// returning the record and the bytes consumed. It never panics on
// hostile input and never reads past the declared payload
// (FuzzDecodeJournal holds it to that). A frame that stops short of its
// declared length is durable.ErrTorn — the normal artifact of a crash
// mid-append, distinguished from corruption only for observability (both
// truncate).
func decodeJournalRecord(data []byte) (*jobRecord, int, error) {
	payload, n, err := journalFormat.Open(data)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal record: %w", err)
	}
	if len(payload) > maxJournalRecord {
		return nil, 0, fmt.Errorf("serve: journal record claims %d bytes", len(payload))
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
	return rec, n, nil
}

// journal is the open WAL: appends under a mutex, fsync per record,
// compaction by tmp+rename. A nil *journal is valid and inert (the
// engine without a JournalDir), so call sites stay unconditional.
type journal struct {
	mu     sync.Mutex
	log    *durable.Log
	path   string
	closed bool
}

// openJournal opens (creating if needed) dir's WAL and replays it,
// returning the surviving records in file order. A torn or corrupt
// tail is truncated away — counted, not fatal — so a crash mid-append
// costs at most the record being written; the temp file of a compaction
// the previous process died in goes too.
func openJournal(dir string) (*journal, []*jobRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	litter, _ := filepath.Glob(filepath.Join(dir, journalTmp))
	for _, tmp := range litter {
		durable.Remove(tmp)
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
	log, err := durable.OpenLog(path, int64(good))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	jobJournalBytes.Set(float64(good))
	return &journal{log: log, path: path}, recs, nil
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
	syncTime, err := j.log.Append(buf)
	if err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal append: %w", err)
	}
	jobJournalSyncUS.Observe(syncTime.Microseconds())
	jobJournalRecords.Add(1)
	jobJournalBytes.Set(float64(j.log.Size()))
	return nil
}

// size reports the journal's current byte length.
func (j *journal) size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Size()
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
	var buf []byte
	for _, rec := range recs {
		frame, err := encodeJournalRecord(rec)
		if err != nil {
			jobJournalErrors.Add(1)
			return err
		}
		buf = append(buf, frame...)
	}
	if _, _, err := durable.Replace(j.path, journalTmp, buf, ""); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal compact: %w", err)
	}
	j.log.Close()
	log, err := durable.OpenLog(j.path, int64(len(buf)))
	if err != nil {
		j.closed = true
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: reopening compacted journal: %w", err)
	}
	j.log = log
	jobJournalCompactions.Add(1)
	jobJournalBytes.Set(float64(len(buf)))
	return nil
}

// close flushes and closes the WAL file.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.closed = true
		j.log.Close()
	}
}
