package plancache

import (
	"errors"
	"os"
	"testing"

	"repro/internal/platform"
)

// FuzzGet feeds arbitrary bytes to Get as a spill file — the store's
// untrusted input, since files outlive the process that wrote them.
// Get must never panic, and must either reject the bytes with a
// *CorruptError or return tasks that round-trip unchanged through Put
// and Get on a fresh store.
func FuzzGet(f *testing.F) {
	key, tasks := planFor(f, platform.NewChain(2, 5, 3, 3, 1, 4), 6)
	seed, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Put(key, tasks); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn final record
	f.Add(valid[:len(magic)+4+len(key)+4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(key)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Get: %v, want a *CorruptError", err)
			}
			return
		}
		fresh, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Put(key, got); err != nil {
			t.Fatalf("Put of %d tasks read back: %v", len(got), err)
		}
		back, err := fresh.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !tasksEqual(back, got) {
			t.Fatalf("round trip changed the %d tasks", len(got))
		}
	})
}
