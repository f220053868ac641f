package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The two header shapes in use: QSIMCKPT + version 1 + u64 length, and
// QJL1 + u32 length.
var shapes = []Format{
	{Prefix: "QSIMCKPT\x01\x00\x00\x00", LenBytes: 8},
	{Prefix: "QJL1", LenBytes: 4},
}

func seal(f Format, payload []byte) []byte {
	frame := append(make([]byte, f.HeaderLen()), payload...)
	f.Seal(frame)
	return frame
}

// TestFrameRoundTrip: Open returns what Seal framed and how far it reached;
// every proper prefix is torn, never corrupt; a flipped bit anywhere is an
// error, and one outside the length word is corruption, not a torn frame.
func TestFrameRoundTrip(t *testing.T) {
	for _, f := range shapes {
		for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("quake"), 300)} {
			frame := seal(f, payload)
			got, n, err := f.Open(append(frame, "the next frame"...))
			if err != nil || n != len(frame) || !bytes.Equal(got, payload) {
				t.Fatalf("%q: Open = %d bytes, span %d, %v; want %d, %d", f.Prefix, len(got), n, err, len(payload), len(frame))
			}
			for cut := 0; cut < len(frame); cut++ {
				if _, _, err := f.Open(frame[:cut]); !errors.Is(err, ErrTorn) {
					t.Fatalf("%q: a %d-byte prefix of %d: %v, want ErrTorn", f.Prefix, cut, len(frame), err)
				}
			}
			lenAt := len(f.Prefix)
			for at := range frame {
				bad := bytes.Clone(frame)
				bad[at] ^= 0x40
				_, _, err := f.Open(bad)
				if err == nil {
					t.Fatalf("%q: bit flip at %d accepted", f.Prefix, at)
				}
				if inLen := at >= lenAt && at < lenAt+f.LenBytes; !inLen && errors.Is(err, ErrTorn) {
					t.Fatalf("%q: bit flip at %d reported as a torn frame", f.Prefix, at)
				}
			}
		}
	}
}

// FuzzFrameOpen: on any bytes Open neither panics nor hands out anything
// past the length the header declares.
func FuzzFrameOpen(f *testing.F) {
	for i, shape := range shapes {
		frame := seal(shape, []byte(`{"op":"state","id":"j-1"}`))
		f.Add(i, frame)
		f.Add(i, frame[:len(frame)-3])
		f.Add(i, append(frame, frame...))
		f.Add(i, []byte(shape.Prefix+"\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00garbage"))
	}
	f.Fuzz(func(t *testing.T, which int, data []byte) {
		shape := shapes[uint(which)%uint(len(shapes))]
		payload, n, err := shape.Open(data)
		if err != nil {
			if payload != nil || n != 0 {
				t.Fatalf("error path leaked %d bytes, span %d", len(payload), n)
			}
			return
		}
		if n != shape.HeaderLen()+len(payload) || n > len(data) || cap(payload) != len(payload) {
			t.Fatalf("span %d, payload %d (cap %d), header %d, input %d", n, len(payload), cap(payload), shape.HeaderLen(), len(data))
		}
		if !bytes.Equal(seal(shape, payload), data[:n]) {
			t.Fatal("an accepted frame does not re-seal to itself")
		}
	})
}

// record installs a Hook that lists the steps taken and fails step number
// failAt (0: none) — a write landing half its bytes first.
func record(t *testing.T, failAt int) *[]string {
	t.Helper()
	var steps []string
	Hook = func(step, path string, n int) (int, error) {
		steps = append(steps, step+" "+filepath.Base(path))
		if len(steps) == failAt {
			return n / 2, errors.New("injected")
		}
		return n, nil
	}
	t.Cleanup(func() { Hook = nil })
	return &steps
}

func dirNames(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return strings.Join(names, " ")
}

// TestReplaceSteps pins both routes of Replace, step for step, and that a
// failure at any step leaves the old content or the new under the final
// name and no temp file.
func TestReplaceSteps(t *testing.T) {
	dir := t.TempDir()
	final, old := filepath.Join(dir, "ckpt-2.qck"), filepath.Join(dir, "ckpt-1.qck")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(old, "the oldest snapshot, longer than what replaces it")
	write(final, "before")

	steps := record(t, 0)
	if recycled, _, err := Replace(final, "ckpt-*.tmp", []byte("fresh"), ""); err != nil || recycled {
		t.Fatalf("fresh route: recycled %v, %v", recycled, err)
	}
	// The temp's name is random: compare the steps, and where the last lands.
	var kinds []string
	for _, step := range *steps {
		kinds = append(kinds, strings.Fields(step)[0])
	}
	if want := []string{"create", "write", "sync", "rename"}; !slices.Equal(kinds, want) || (*steps)[3] != "rename ckpt-2.qck" {
		t.Fatalf("fresh route took %q, want %q", *steps, want)
	}
	*steps = nil
	if recycled, _, err := Replace(final, "ckpt-*.tmp", []byte("recycled"), old); err != nil || !recycled {
		t.Fatalf("recycling route: recycled %v, %v", recycled, err)
	}
	if want := []string{"rename ckpt-recycle.tmp", "truncate ckpt-recycle.tmp", "write ckpt-recycle.tmp", "sync ckpt-recycle.tmp", "rename ckpt-2.qck"}; !slices.Equal(*steps, want) {
		t.Fatalf("recycling route took %q, want %q", *steps, want)
	}
	if data, _ := os.ReadFile(final); string(data) != "recycled" || dirNames(t, dir) != "ckpt-2.qck" {
		t.Fatalf("after recycling: %q in %q", data, dirNames(t, dir))
	}
	// A file to recycle that is not there costs nothing.
	if recycled, _, err := Replace(final, "ckpt-*.tmp", []byte("again"), old); err != nil || recycled {
		t.Fatalf("recycling a missing file: recycled %v, %v", recycled, err)
	}

	for _, route := range []string{"", old} {
		for failAt := 1; failAt <= 5; failAt++ {
			write(final, "before")
			if route != "" {
				write(route, "the oldest snapshot")
			}
			steps := record(t, failAt)
			_, _, err := Replace(final, "ckpt-*.tmp", []byte("after"), route)
			Hook = nil
			if failAt > len(*steps) {
				continue // the route has fewer steps
			}
			// Only the rename that starts the recycling route may fail
			// unnoticed: the write falls back to a fresh temp.
			want := "before"
			if route != "" && failAt == 1 {
				want = "after"
			}
			if data, _ := os.ReadFile(final); (err == nil) != (want == "after") || string(data) != want || strings.Contains(dirNames(t, dir), ".tmp") {
				t.Fatalf("recycle %q, step %d (%s) failed: %v, final holds %q, directory %q", route, failAt, (*steps)[failAt-1], err, data, dirNames(t, dir))
			}
			os.Remove(old)
		}
	}
}

// TestLogUndoesAFailedAppend: a frame whose write or fsync fails is cut back
// out, so the next one lands behind the last good frame; when the cut fails
// too the log takes nothing more.
func TestLogUndoesAFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, []byte("goodTORN"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	for failAt, what := range map[int]string{1: "write", 2: "sync"} {
		steps := record(t, failAt)
		if _, err := l.Append([]byte("partial")); err == nil {
			t.Fatalf("a failed %s returned nil", what)
		}
		Hook = nil
		if want := []string{"write jobs.wal", "sync jobs.wal", "truncate jobs.wal"}; !slices.Equal(*steps, append(want[:failAt:failAt], want[2])) {
			t.Fatalf("failed %s took %q", what, *steps)
		}
		if data, _ := os.ReadFile(path); string(data) != "good" || l.Size() != 4 {
			t.Fatalf("after a failed %s the file holds %q and Size is %d", what, data, l.Size())
		}
	}
	if _, err := l.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "goodmore" || l.Size() != 8 {
		t.Fatalf("the file holds %q and Size is %d", data, l.Size())
	}

	// The write fails and so does the cut: the partial frame stays, and
	// nothing may land behind it.
	Hook = func(step, path string, n int) (int, error) { return n / 2, errors.New("injected") }
	if _, err := l.Append([]byte("partial")); err == nil {
		t.Fatal("a failed write returned nil")
	}
	Hook = nil
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("a log that could not undo a failed append took another frame")
	}
	if data, _ := os.ReadFile(path); string(data) != "goodmorepar" {
		t.Fatalf("the file holds %q", data)
	}
}
