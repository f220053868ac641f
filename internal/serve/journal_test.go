package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// The QJL1 header as this package spelled it before the codec moved to
// internal/durable: what the verbatim reference encoder and the hand-built
// torn frames are written against, independent of durable.Format.
const (
	journalMagic     = "QJL1"
	journalHeaderLen = 4 + 4 + 4
)

var (
	castagnoliJL   = crc32.MakeTable(crc32.Castagnoli)
	errJournalTorn = durable.ErrTorn
)

func journalPath(dir string) string { return filepath.Join(dir, "jobs.wal") }

// withObs enables metrics for the duration of one test so counter
// deltas are observable.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

func sampleRecords() []*jobRecord {
	now := time.Unix(1700000000, 0).UTC()
	return []*jobRecord{
		{Op: "accept", ID: "j-1", Time: now, Idem: "k1",
			Req: &SolveRequest{Scenario: "tiny", PEs: 2, Tol: 1e-9, IdempotencyKey: "k1"}},
		{Op: "state", ID: "j-1", Time: now, State: JobRunning, Attempts: 1, CkptIter: 7},
		{Op: "state", ID: "j-1", Time: now, State: JobCompleted, Attempts: 2, Migrations: 1,
			Result: &SolveResult{Converged: true, Iterations: 42}},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, r := range want {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.size() <= 0 {
		t.Fatalf("journal size %d after 3 appends", j.size())
	}
	j.close()

	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Op != w.Op || r.ID != w.ID || r.State != w.State || r.Attempts != w.Attempts ||
			r.Migrations != w.Migrations || r.CkptIter != w.CkptIter {
			t.Fatalf("record %d: got %+v want %+v", i, r, w)
		}
	}
	if got[0].Req == nil || got[0].Req.Scenario != "tiny" || got[0].Idem != "k1" {
		t.Fatalf("accept record lost its request: %+v", got[0])
	}
	if got[2].Result == nil || !got[2].Result.Converged || got[2].Result.Iterations != 42 {
		t.Fatalf("terminal record lost its result: %+v", got[2])
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a short
// frame; replay keeps every whole record before it and truncates the
// tail so the next append starts on a clean boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	withObs(t)
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()[:2]
	for _, r := range want {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	good := j.size()
	j.close()

	// Simulate the crash: a header that promises more than is there.
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(journalMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(torn[4:], 500)
	if _, err := f.Write(append(torn, "only a fragment"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dropped0 := jobJournalDropped.Value()
	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(got))
	}
	if j2.size() != good {
		t.Fatalf("journal size %d after truncation, want %d", j2.size(), good)
	}
	if d := jobJournalDropped.Value() - dropped0; d < 1 {
		t.Fatalf("serve.job.journal.dropped advanced by %d, want >= 1", d)
	}
	// Appends continue cleanly on the truncated file.
	if err := j2.append(sampleRecords()[2]); err != nil {
		t.Fatal(err)
	}
	j2.close()
	j3, got3, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j3.close()
	if len(got3) != 3 || got3[2].State != JobCompleted {
		t.Fatalf("post-truncation append lost: %d records", len(got3))
	}
}

// TestJournalFailedAppendIsUndone: an append whose write fails part-way
// (ENOSPC, EIO — here the seam lands half the frame and errors) is cut back
// out of the file, so the records accepted after it land behind the last
// good one, not behind a partial frame replay would stop at. At the parent
// commit the three later records, each fsync'd and acknowledged, were lost
// at the next start.
func TestJournalFailedAppendIsUndone(t *testing.T) {
	withObs(t)
	t.Cleanup(func() { durable.Hook = nil })
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := j.append(recs[0]); err != nil {
		t.Fatal(err)
	}
	good := j.size()
	errDisk := errors.New("no space left on device")
	durable.Hook = func(step, path string, n int) (int, error) {
		if step == "write" {
			return n / 2, errDisk
		}
		return n, nil
	}
	errors0 := jobJournalErrors.Value()
	if err := j.append(recs[1]); !errors.Is(err, errDisk) {
		t.Fatalf("the failed append returned %v", err)
	}
	durable.Hook = nil
	if info, err := os.Stat(journalPath(dir)); err != nil || info.Size() != good || j.size() != good {
		t.Fatalf("after the failed append the file is %d bytes and the journal says %d, want %d: %v", info.Size(), j.size(), good, err)
	}
	if d := jobJournalErrors.Value() - errors0; d != 1 {
		t.Errorf("serve.job.journal.errors advanced by %d, want 1", d)
	}
	for i := 0; i < 3; i++ {
		if err := j.append(recs[2]); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	dropped0 := jobJournalDropped.Value()
	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.close()
	if len(got) != 4 || got[0].Op != "accept" || got[3].State != JobCompleted {
		t.Fatalf("replayed %d records, want the accept and the three after the failure", len(got))
	}
	if d := jobJournalDropped.Value() - dropped0; d != 0 {
		t.Errorf("serve.job.journal.dropped advanced by %d, want 0", d)
	}
}

// TestJournalCorruptRecordStopsReplay: a flipped payload bit fails the
// CRC; that record and everything after it are discarded.
func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for _, r := range sampleRecords() {
		offsets = append(offsets, j.size())
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	// Flip one payload byte inside the second record.
	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+journalHeaderLen] ^= 0xff
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.close()
	if len(got) != 1 || got[0].ID != "j-1" || got[0].Op != "accept" {
		t.Fatalf("replay past a corrupt record: got %d records %+v", len(got), got)
	}
}

// TestJournalCompact: compaction rewrites the file to just the
// surviving records and later replays see exactly those.
func TestJournalCompact(t *testing.T) {
	withObs(t)
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.append(sampleRecords()[1]); err != nil {
			t.Fatal(err)
		}
	}
	big := j.size()
	keep := sampleRecords()[2:]
	compactions0 := jobJournalCompactions.Value()
	if err := j.compact(keep); err != nil {
		t.Fatal(err)
	}
	if j.size() >= big {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", big, j.size())
	}
	if d := jobJournalCompactions.Value() - compactions0; d != 1 {
		t.Fatalf("serve.job.journal.compactions advanced by %d, want 1", d)
	}
	// The compacted journal still accepts appends.
	if err := j.append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	j.close()

	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.close()
	if len(got) != 2 || got[0].State != JobCompleted || got[1].Op != "accept" {
		t.Fatalf("replay after compaction: %d records %+v", len(got), got)
	}
}

// TestJournalNilReceiverSafe: an engine without a JournalDir uses a
// nil *journal everywhere; every method must be inert, not a panic.
func TestJournalNilReceiverSafe(t *testing.T) {
	var j *journal
	if err := j.append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if j.size() != 0 {
		t.Fatal("nil journal has a size")
	}
	if err := j.compact(nil); err != nil {
		t.Fatal(err)
	}
	j.close()
}

// TestJournalEncoderMatchesReference: the single-buffer framing writes
// the bytes the Marshal-then-copy one did (kept here verbatim), HTML
// escaping and all.
func TestJournalEncoderMatchesReference(t *testing.T) {
	reference := func(rec *jobRecord) []byte {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, journalHeaderLen+len(payload))
		buf = append(buf, journalMagic...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoliJL))
		return append(buf, payload...)
	}
	recs := append(sampleRecords(),
		&jobRecord{Op: "state", ID: "j-<&>", State: JobFailed, Error: "a <b> & \u2028 \n c"},
		&jobRecord{Op: "state", ID: "j-big", State: JobFailed, Error: strings.Repeat("x", 4096)})
	for i, rec := range recs {
		got, err := encodeJournalRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, reference(rec)) {
			t.Errorf("record %d: frame differs from the reference encoder", i)
		}
	}
}

func TestDecodeJournalRecordRejects(t *testing.T) {
	enc := func(r *jobRecord) []byte {
		b, err := encodeJournalRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", append([]byte("NOPE"), enc(sampleRecords()[0])[4:]...)},
		{"unknown op", enc(&jobRecord{Op: "upsert", ID: "j-1"})},
		{"accept without request", enc(&jobRecord{Op: "accept", ID: "j-1"})},
		{"state without state", enc(&jobRecord{Op: "state", ID: "j-1"})},
		{"missing id", enc(&jobRecord{Op: "state", State: JobRunning})},
	}
	for _, tc := range cases {
		if _, _, err := decodeJournalRecord(tc.data); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		} else if errors.Is(err, errJournalTorn) {
			t.Errorf("%s: misclassified as torn", tc.name)
		}
	}
	// Short data is torn, not corrupt.
	whole := enc(sampleRecords()[0])
	for _, n := range []int{0, 3, journalHeaderLen - 1, journalHeaderLen, len(whole) - 1} {
		if _, _, err := decodeJournalRecord(whole[:n]); !errors.Is(err, errJournalTorn) {
			t.Errorf("prefix of %d bytes: err = %v, want errJournalTorn", n, err)
		}
	}
}

// FuzzDecodeJournal holds the decoder to its contract on hostile
// bytes: no panic, and on success the consumed count stays within the
// input and covers at least a header.
func FuzzDecodeJournal(f *testing.F) {
	for _, r := range sampleRecords() {
		b, err := encodeJournalRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-3])
	}
	f.Add([]byte(journalMagic))
	f.Add([]byte("QJL1\xff\xff\xff\xff\x00\x00\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeJournalRecord(data)
		if err != nil {
			if rec != nil || n != 0 {
				t.Fatalf("error path leaked rec=%v n=%d", rec, n)
			}
			return
		}
		if rec == nil {
			t.Fatal("nil record without error")
		}
		if n < journalHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A decoded record must survive re-encoding.
		if _, err := encodeJournalRecord(rec); err != nil {
			t.Fatalf("re-encoding decoded record: %v", err)
		}
	})
}

// BenchmarkDurable/journal_append is the journal's term of the durable
// path (the other five are BenchmarkDurable at the repo root): one state
// record framed, appended and fsync'd, as every lifecycle transition of a
// durable job pays before its reply.
func BenchmarkDurable(b *testing.B) {
	b.Run("journal_append", func(b *testing.B) {
		j, _, err := openJournal(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer j.close()
		rec := sampleRecords()[2]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := j.append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRefusedAcceptIsNotAcknowledged: a job whose accept record the
// journal refuses is not acknowledged as accepted. The solve fails with
// ErrUnavailable (503 over HTTP), the job is not listed, and its
// idempotency key is free, so the client's retry runs it. At the parent
// commit the append's error was dropped: the job ran and completed,
// acknowledged but volatile.
func TestRefusedAcceptIsNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Config{JournalDir: dir})
	t.Cleanup(func() { durable.Hook = nil })
	errDisk := errors.New("no space left on device")
	refused := 0
	durable.Hook = func(step, path string, n int) (int, error) {
		if step == "write" && path == journalPath(dir) && refused == 0 {
			refused++
			return 0, errDisk
		}
		return n, nil
	}
	req := func() *SolveRequest {
		return &SolveRequest{Scenario: "tiny-refused", PEs: 2, Tol: 1e-8, IdempotencyKey: "retry-me"}
	}
	res, err := e.Solve(context.Background(), req())
	durable.Hook = nil
	if !errors.Is(err, ErrUnavailable) || !errors.Is(err, errDisk) || res != nil || refused != 1 {
		t.Fatalf("refused accept: res=%+v err=%v (refused %d appends)", res, err, refused)
	}
	rec := httptest.NewRecorder()
	httpError(rec, res, err)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("refused accept maps to HTTP %d, want 503", rec.Code)
	}
	if jobs := e.Jobs(); len(jobs) != 0 {
		t.Fatalf("the refused job is listed: %+v", jobs)
	}
	res, err = e.Solve(context.Background(), req())
	if err != nil || !res.Converged {
		t.Fatalf("retry: %+v err=%v", res, err)
	}
	if jobs := e.Jobs(); len(jobs) != 1 || jobs[0].ID != res.JobID || jobs[0].IdempotencyKey != "retry-me" {
		t.Fatalf("after the retry the jobs are %+v", jobs)
	}
}
