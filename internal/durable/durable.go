// Package durable is where quaked makes bytes outlive the process: the frame
// codec its two on-disk formats share and the two write sequences, append +
// fsync and temp → write → fsync → close → rename, every fsync, rename,
// truncate and unlink behind one test seam (Hook). The contract is against a
// process crash, not power loss: no directory is ever fsync'd.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Format describes a frame header: Prefix — the magic and, in a versioned
// format, the little-endian version word behind it — then the payload
// length in LenBytes (4 or 8) bytes and the payload's CRC-32C (Castagnoli),
// little-endian. QSIMCKPT + v1 + 8 and QJL1 + 4 are its two values.
type Format struct {
	Prefix   string
	LenBytes int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks data that ends before the frame it starts does — what a
// crash mid-write leaves. Every other Open error is corruption.
var ErrTorn = fmt.Errorf("durable: frame torn")

// HeaderLen is the number of bytes ahead of the payload.
func (f Format) HeaderLen() int { return len(f.Prefix) + f.LenBytes + 4 }

// Seal fills in frame[:HeaderLen()] for the payload behind it.
func (f Format) Seal(frame []byte) {
	h := f.HeaderLen()
	var plen [8]byte
	binary.LittleEndian.PutUint64(plen[:], uint64(len(frame)-h))
	copy(frame[copy(frame, f.Prefix):], plen[:f.LenBytes])
	binary.LittleEndian.PutUint32(frame[h-4:], crc32.Checksum(frame[h:], castagnoli))
}

// Open checks the frame at the head of data and returns its payload and
// the bytes the frame spans. It never reads past the declared length.
func (f Format) Open(data []byte) (payload []byte, n int, err error) {
	h, at := f.HeaderLen(), len(f.Prefix)
	if len(data) < h {
		return nil, 0, ErrTorn
	}
	if string(data[:at]) != f.Prefix {
		return nil, 0, fmt.Errorf("durable: not a %q frame (magic or version differs)", f.Prefix)
	}
	var plen [8]byte
	copy(plen[:], data[at:at+f.LenBytes])
	if binary.LittleEndian.Uint64(plen[:]) > uint64(len(data)-h) {
		return nil, 0, ErrTorn
	}
	n = h + int(binary.LittleEndian.Uint64(plen[:]))
	if crc32.Checksum(data[h:n], castagnoli) != binary.LittleEndian.Uint32(data[h-4:]) {
		return nil, 0, fmt.Errorf("durable: %q frame fails its checksum", f.Prefix)
	}
	return data[h:n:n], n, nil
}

// Hook is the one test seam: only a test assigns it, while nothing writes.
// Every step that changes the disk — "create", "write", "sync", "truncate",
// "rename" (path is the new name), "remove" — asks it first how many of a
// write's n bytes land and what error the step then fails with.
var Hook func(step, path string, n int) (int, error)

func do(step, path string, op func() error) error {
	if Hook != nil {
		if _, err := Hook(step, path, 0); err != nil {
			return err
		}
	}
	return op()
}

func writeSync(f *os.File, b []byte) (sync time.Duration, err error) {
	n := len(b)
	if Hook != nil {
		n, err = Hook("write", f.Name(), n)
	}
	if _, werr := f.Write(b[:n]); err == nil {
		err = werr
	}
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = do("sync", f.Name(), f.Sync)
	return time.Since(start), err
}

// Remove unlinks a file, or a directory with its contents; gone is no error.
func Remove(path string) error {
	return do("remove", path, func() error { return os.RemoveAll(path) })
}

// Replace makes data the content of final: written to a temp file beside
// it (tmpPattern, as os.CreateTemp reads it), fsync'd, closed and renamed
// over final, so a crash leaves the old content or the new and at worst a
// stale temp. recycle, if set, names a file the caller gives up: it becomes
// the temp (the pattern's * spelled "recycle") and is overwritten in place,
// blocks already allocated, which syncs faster than a new file; one that
// cannot be had costs only that. recycled reports that it took the write,
// sync how long the fsync took.
func Replace(final, tmpPattern string, data []byte, recycle string) (recycled bool, sync time.Duration, err error) {
	dir, f := filepath.Dir(final), (*os.File)(nil)
	tmp := filepath.Join(dir, strings.Replace(tmpPattern, "*", "recycle", 1))
	if recycled = recycle != "" && do("rename", tmp, func() error { return os.Rename(recycle, tmp) }) == nil; recycled {
		if f, err = os.OpenFile(tmp, os.O_WRONLY, 0); err == nil {
			err = do("truncate", tmp, func() error { return f.Truncate(int64(len(data))) })
		}
	} else if err = do("create", dir, func() (err error) { f, err = os.CreateTemp(dir, tmpPattern); return }); err != nil {
		return false, 0, err
	}
	if f != nil {
		tmp = f.Name()
		if err == nil {
			sync, err = writeSync(f, data)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = do("rename", final, func() error { return os.Rename(tmp, final) })
	}
	if err != nil {
		Remove(tmp)
	}
	return recycled, sync, err
}

// Log is an append-only file of frames, fsync'd frame by frame.
type Log struct {
	f    *os.File
	size int64 // the frames Append returned nil for, and nothing else
}

// OpenLog opens path for appending, creating it if need be, cut back to
// its first size bytes (what the caller found intact).
func OpenLog(path string, size int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, size: size}
	if err := l.cut(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) cut() error {
	return do("truncate", l.f.Name(), func() error { return l.f.Truncate(l.size) })
}

// Size is the length of the log.
func (l *Log) Size() int64 { return l.size }

// Append writes frame behind the log and fsyncs it (sync is the fsync's
// time). If either fails the file is cut back to Size, so no partial frame
// sits ahead of later ones; if that fails too the file is closed for good.
func (l *Log) Append(frame []byte) (sync time.Duration, err error) {
	if sync, err = writeSync(l.f, frame); err == nil {
		l.size += int64(len(frame))
	} else if l.cut() != nil {
		l.f.Close()
	}
	return sync, err
}

// Close fsyncs and closes the file.
func (l *Log) Close() error { defer l.f.Close(); return do("sync", l.f.Name(), l.f.Sync) }
