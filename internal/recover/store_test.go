package recover

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/obs"
)

// dirNames lists the store's directory, sorted.
func dirNames(t *testing.T, s *Store) []string {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// intactSnapshots counts the .qck files that decode.
func intactSnapshots(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	for _, name := range dirNames(t, s) {
		if filepath.Ext(name) != ".qck" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err == nil {
			n++
		}
	}
	return n
}

// TestStoreKeepsItsWindow: a Store with Keep set holds the directory to
// the newest Keep snapshots on its own — every file that leaves the
// window is recycled into the next write, whatever the two sizes, and
// every file in the window decodes — and a Store opened on what a dead
// process left adopts it: stale temps swept, surplus snapshots trimmed,
// both on the first Save.
func TestStoreKeepsItsWindow(t *testing.T) {
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prevObs) })

	s, err := NewStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	s.Keep = 3
	rng := rand.New(rand.NewSource(3))
	recycled0, pruned0 := ckptRecycled.Value(), ckptPruned.Value()
	// Sizes that shrink and grow, so the recycled file is longer than,
	// shorter than and equal to what replaces it.
	sizes := []int{40, 40, 40, 40, 9, 300, 0, 300, 40, 41}
	for i, n := range sizes {
		ck := randomCheckpoint(rng, 4, 7, n, 0)
		ck.Iter = int64(10 * (i + 1))
		path, err := s.Save(ck)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(referenceEncode(ck)) {
			t.Fatalf("snapshot %d: the file is not the snapshot's encoding (stale bytes from the recycled file?)", ck.Iter)
		}
		if got, want := len(dirNames(t, s)), min(i+1, 3); got != want {
			t.Fatalf("after %d saves the directory holds %d files, want %d: %v", i+1, got, want, dirNames(t, s))
		}
	}
	if names := dirNames(t, s); !slices.Equal(names, []string{"ckpt-000000080.qck", "ckpt-000000090.qck", "ckpt-000000100.qck"}) {
		t.Fatalf("window = %v", names)
	}
	if n := intactSnapshots(t, s); n != 3 {
		t.Fatalf("%d of 3 snapshots in the window decode", n)
	}
	if d := ckptRecycled.Value() - recycled0; d != 7 {
		t.Errorf("recover.checkpoint.recycled advanced by %d, want 7", d)
	}
	if d := ckptPruned.Value() - pruned0; d != 7 {
		t.Errorf("recover.checkpoint.pruned advanced by %d, want 7", d)
	}

	// Overwriting a name already in the window neither grows nor recycles.
	again := randomCheckpoint(rng, 4, 7, 5, 0)
	again.Iter = 90
	if _, err := s.Save(again); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, s); len(names) != 3 {
		t.Fatalf("re-saving iteration 90 left %v", names)
	}

	// A second process on the same directory, narrower window, with a
	// temp its predecessor died holding.
	if err := os.WriteFile(filepath.Join(s.Dir(), "ckpt-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	s2.Keep = 2
	next := randomCheckpoint(rng, 4, 7, 40, 0)
	next.Iter = 110
	if _, err := s2.Save(next); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, s2); !slices.Equal(names, []string{"ckpt-000000100.qck", "ckpt-000000110.qck"}) {
		t.Fatalf("adopted window = %v", names)
	}
	if got, _, err := s2.Latest(); err != nil || got.Iter != 110 {
		t.Fatalf("Latest after adoption: %v, %v", got, err)
	}
}

// TestRecyclingSaveCrashPoints builds, by hand, the directory a process
// death leaves at each boundary of a recycling Save — window {10,20,30},
// Keep 3, iteration 40 being written — and holds each to the contract:
// Latest returns the newest intact snapshot, at least Keep−1 snapshots
// stay intact, nothing torn is ever readable under a snapshot name, and
// the next Save sweeps the temp.
func TestRecyclingSaveCrashPoints(t *testing.T) {
	const keep = 3
	rng := rand.New(rand.NewSource(4))
	enc := map[int64][]byte{}
	for _, iter := range []int64{10, 20, 30, 40} {
		ck := randomCheckpoint(rng, 4, 7, 64, 17)
		ck.Iter = iter
		enc[iter] = ck.Encode()
	}
	half := append(append([]byte(nil), enc[40][:len(enc[40])/2]...), enc[10][len(enc[40])/2:]...)

	for _, tc := range []struct {
		name string
		// files are the directory's contents at the crash.
		files      map[string][]byte
		latest     int64
		tornTemp   bool
		intactQCKs int
	}{
		{"oldest renamed to the temp name",
			map[string][]byte{recycleTmp: enc[10], "ckpt-000000020.qck": enc[20], "ckpt-000000030.qck": enc[30]}, 30, false, 2},
		{"temp half overwritten",
			map[string][]byte{recycleTmp: half, "ckpt-000000020.qck": enc[20], "ckpt-000000030.qck": enc[30]}, 30, true, 2},
		{"temp written and synced, not renamed",
			map[string][]byte{recycleTmp: enc[40], "ckpt-000000020.qck": enc[20], "ckpt-000000030.qck": enc[30]}, 30, false, 2},
		{"renamed",
			map[string][]byte{"ckpt-000000020.qck": enc[20], "ckpt-000000030.qck": enc[30], "ckpt-000000040.qck": enc[40]}, 40, false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.Keep = keep
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(s.Dir(), name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.tornTemp {
				if _, err := Decode(tc.files[recycleTmp]); err == nil {
					t.Fatal("the strict decoder accepted a half-overwritten temp")
				}
			}
			if n := intactSnapshots(t, s); n != tc.intactQCKs || n < keep-1 {
				t.Fatalf("%d intact snapshots, want %d (and never fewer than Keep-1 = %d)", n, tc.intactQCKs, keep-1)
			}
			got, _, err := s.Latest()
			if err != nil || got.Iter != tc.latest {
				t.Fatalf("Latest = %v, %v; want iteration %d", got, err, tc.latest)
			}

			// The restarted process resumes from Latest and writes on.
			ck := randomCheckpoint(rng, 4, 7, 64, 17)
			ck.Iter = 50
			if _, err := s.Save(ck); err != nil {
				t.Fatal(err)
			}
			names := dirNames(t, s)
			for _, name := range names {
				if filepath.Ext(name) == ".tmp" {
					t.Fatalf("the next Save left %s behind: %v", name, names)
				}
			}
			if len(names) > keep || names[len(names)-1] != "ckpt-000000050.qck" {
				t.Fatalf("after the next Save: %v", names)
			}
			if n := intactSnapshots(t, s); n != len(names) {
				t.Fatalf("%d of %d snapshots decode after the next Save", n, len(names))
			}
		})
	}
}

// TestStoreSaveAllocationPin: a steady-state Save allocates a few file
// names and an *os.File — nothing proportional to the snapshot. The
// bound is the same 4 KB at 24 KB and at 720 KB of encoding.
func TestStoreSaveAllocationPin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1000, 30000} {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.Keep = 3
		ck := randomCheckpoint(rng, 4, 500, n, 17)
		save := func() {
			ck.Iter++
			if _, err := s.Save(ck); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // fill the window, size the buffer
			save()
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			save()
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		if perOp >= 4096 {
			t.Errorf("%d scalars per vector: Save allocates %d B/op, want < 4096", n, perOp)
		}
		if allocs := testing.AllocsPerRun(runs, save); allocs > 30 {
			t.Errorf("%d scalars per vector: Save makes %.0f allocations per op, want ≤ 30", n, allocs)
		}
	}
}
