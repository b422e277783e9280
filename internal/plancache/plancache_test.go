package plancache

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

func planFor(t testing.TB, ch platform.Chain, n int) (string, []sched.ChainTask) {
	t.Helper()
	inc, err := core.NewIncremental(ch)
	if err != nil {
		t.Fatal(err)
	}
	inc.Grow(n)
	return platform.LegKey(ch), inc.ExportBackward()
}

func mustPut(t *testing.T, s *Store, key string, tasks []sched.ChainTask) int {
	t.Helper()
	n, err := s.Put(key, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func tasksEqual(a, b []sched.ChainTask) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestRoundTripAndAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ch := platform.NewChain(2, 5, 3, 3, 1, 4)
	key, tasks := planFor(t, ch, 30)

	if n := mustPut(t, s, key, tasks[:12]); n != 12 {
		t.Fatalf("first put wrote %d records, want 12", n)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !tasksEqual(got, tasks[:12]) {
		t.Fatal("round trip mismatch")
	}

	// A grown plan appends only its new suffix.
	if n := mustPut(t, s, key, tasks); n != 18 {
		t.Fatalf("append wrote %d records, want 18", n)
	}
	// A shorter (or equal) plan is a no-op, never a shrink.
	if n := mustPut(t, s, key, tasks[:5]); n != 0 {
		t.Fatalf("shorter put wrote %d records, want 0", n)
	}
	got, err = s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !tasksEqual(got, tasks) {
		t.Fatal("post-append mismatch")
	}

	// The appended file must be readable by a fresh store (no reliance
	// on the in-memory count cache).
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, err = s2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !tasksEqual(got, tasks) {
		t.Fatal("fresh-store read mismatch")
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	got, err := s.Get(platform.LegKey(platform.NewChain(1, 1)))
	if err != nil || got != nil {
		t.Fatalf("missing key: got %v, %v; want nil, nil", got, err)
	}
}

func TestSharedAcrossKeysIsolated(t *testing.T) {
	s, _ := Open(t.TempDir())
	keyA, tasksA := planFor(t, platform.NewChain(2, 5, 3, 3), 10)
	keyB, tasksB := planFor(t, platform.NewChain(1, 7), 10)
	mustPut(t, s, keyA, tasksA)
	mustPut(t, s, keyB, tasksB)
	if n, err := s.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want 2", n, err)
	}
	gotA, _ := s.Get(keyA)
	gotB, _ := s.Get(keyB)
	if !tasksEqual(gotA, tasksA) || !tasksEqual(gotB, tasksB) {
		t.Fatal("keys cross-contaminated")
	}
}

// TestTornTail: a crash mid-append leaves a partial record; Get returns
// the clean prefix and the next Put repairs the tail.
func TestTornTail(t *testing.T) {
	s, _ := Open(t.TempDir())
	ch := platform.NewChain(2, 5, 3, 3)
	key, tasks := planFor(t, ch, 10)
	mustPut(t, s, key, tasks)

	path := s.path(key)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 5 bytes — a partial final record.
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, _ := Open(s.Dir())
	got, err := s2.Get(key)
	if err != nil {
		t.Fatalf("torn tail must not be corruption: %v", err)
	}
	if !tasksEqual(got, tasks[:9]) {
		t.Fatalf("torn tail returned %d records, want the 9-record clean prefix", len(got))
	}
	// Re-putting the full plan truncates the torn bytes and re-appends.
	if n := mustPut(t, s2, key, tasks); n != 1 {
		t.Fatalf("repair put wrote %d records, want 1", n)
	}
	got, err = s2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !tasksEqual(got, tasks) {
		t.Fatal("repaired file mismatch")
	}
}

// TestCorruptFiles is the corrupt-file table test: every damage class
// rejects with a *CorruptError carrying the failing position.
func TestCorruptFiles(t *testing.T) {
	ch := platform.NewChain(2, 5, 3, 3)
	otherKey := platform.LegKey(platform.NewChain(9, 9, 9, 9))

	cases := []struct {
		name       string
		damage     func(t *testing.T, path string)
		getKey     string // defaults to the file's own key
		wantRecord int
		wantReason string
	}{
		{
			name: "bad magic",
			damage: func(t *testing.T, path string) {
				flipByte(t, path, 0)
			},
			wantRecord: -1, wantReason: "bad magic",
		},
		{
			name: "wrong version",
			damage: func(t *testing.T, path string) {
				setByte(t, path, 7, 99)
			},
			wantRecord: -1, wantReason: "version 99",
		},
		{
			name: "header checksum",
			damage: func(t *testing.T, path string) {
				// Flip a key byte: the stored key length still matches, so
				// the CRC is what catches it... unless the byte flip makes
				// the key differ, which reports as a mismatch first. Flip
				// the CRC itself to pin the reason.
				info, _ := os.Stat(path)
				_ = info
				flipByte(t, path, headerCRCOffset(t, path))
			},
			wantRecord: -1, wantReason: "header checksum",
		},
		{
			name:       "legkey mismatch",
			damage:     func(t *testing.T, path string) {},
			getKey:     otherKey,
			wantRecord: -1, wantReason: "LegKey mismatch",
		},
		{
			name: "record checksum",
			damage: func(t *testing.T, path string) {
				// Flip one byte of the FIRST record's payload; later
				// records keep the file longer than the damage, so this
				// cannot be mistaken for a torn tail.
				flipByte(t, path, headerEndOffset(t, path)+6)
			},
			wantRecord: 0, wantReason: "record checksum",
		},
		{
			name: "record proc out of range",
			damage: func(t *testing.T, path string) {
				// Overwrite record 0's proc field with a huge value.
				off := headerEndOffset(t, path)
				setByte(t, path, off, 0xff)
				setByte(t, path, off+1, 0xff)
				setByte(t, path, off+2, 0xff)
				setByte(t, path, off+3, 0xff)
			},
			wantRecord: 0, wantReason: "out of range",
		},
		{
			name: "truncated header",
			damage: func(t *testing.T, path string) {
				if err := os.Truncate(path, 6); err != nil {
					t.Fatal(err)
				}
			},
			wantRecord: -1, wantReason: "shorter than its header",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := Open(t.TempDir())
			key, tasks := planFor(t, ch, 8)
			mustPut(t, s, key, tasks)
			path := s.path(key)
			tc.damage(t, path)

			getKey := key
			if tc.getKey != "" {
				getKey = tc.getKey
				// Address the damaged file under the probe key.
				if err := os.Rename(path, s.path(getKey)); err != nil {
					t.Fatal(err)
				}
			}
			s2, _ := Open(s.Dir())
			_, err := s2.Get(getKey)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want *CorruptError, got %v", err)
			}
			if ce.Record != tc.wantRecord {
				t.Fatalf("error positioned at record %d, want %d: %v", ce.Record, tc.wantRecord, ce)
			}
			if !strings.Contains(ce.Error(), tc.wantReason) {
				t.Fatalf("error %q does not carry reason %q", ce, tc.wantReason)
			}

			// Put over a corrupt file rewrites it clean.
			if tc.getKey == "" {
				if _, err := s2.Put(key, tasks); err != nil {
					t.Fatalf("rewrite over corrupt file: %v", err)
				}
				got, err := s2.Get(key)
				if err != nil || !tasksEqual(got, tasks) {
					t.Fatalf("rewritten file still bad: %v", err)
				}
			}
		})
	}
}

// TestImportRoundTripThroughStore closes the loop with core: a spilled
// sequence read back from disk imports cleanly and the rehydrated plan
// schedules identically.
func TestImportRoundTripThroughStore(t *testing.T) {
	s, _ := Open(t.TempDir())
	ch := platform.NewChain(4, 2, 2, 6, 5, 1, 3, 3)
	key, tasks := planFor(t, ch, 40)
	mustPut(t, s, key, tasks)

	loaded, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental(ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.ImportBackward(loaded); err != nil {
		t.Fatalf("import of spilled plan: %v", err)
	}
	want, _ := core.Schedule(ch, 40)
	got, err := inc.Schedule(40)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan() != want.Makespan() {
		t.Fatalf("rehydrated makespan %d, want %d", got.Makespan(), want.Makespan())
	}
}

func headerEndOffset(t *testing.T, path string) int64 {
	t.Helper()
	return headerCRCOffset(t, path) + 4
}

// headerCRCOffset locates the header CRC: magic + keyLen + key.
func headerCRCOffset(t *testing.T, path string) int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 12 {
		t.Fatalf("file %s too short", filepath.Base(path))
	}
	keyLen := int64(uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11]))
	return 12 + keyLen
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func setByte(t *testing.T, path string, off int64, v byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] = v
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
