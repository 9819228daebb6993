package cachelog

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"turbosyn/internal/decomp"
	"turbosyn/internal/logic"
)

func randomEntries(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		key := make([]byte, 1+rng.Intn(40))
		rng.Read(key)
		e := Entry{Key: string(key)}
		if rng.Intn(4) != 0 {
			nv := 4 + rng.Intn(5)
			f := logic.NewTT(nv)
			for b := 0; b < f.NumBits(); b++ {
				if rng.Intn(2) == 1 {
					f.SetBit(b, true)
				}
			}
			if tree, ok, _ := decomp.DecomposeEffort(f, 4, 4, nil, decomp.Effort{}); ok {
				e.Tree = tree
			}
		}
		entries[i] = e
	}
	return entries
}

func sameEntry(a, b Entry) bool {
	if a.Key != b.Key || (a.Tree == nil) != (b.Tree == nil) {
		return false
	}
	if a.Tree == nil {
		return true
	}
	if a.Tree.NumInputs != b.Tree.NumInputs || len(a.Tree.Nodes) != len(b.Tree.Nodes) {
		return false
	}
	for i := range a.Tree.Nodes {
		x, y := a.Tree.Nodes[i], b.Tree.Nodes[i]
		if !x.Func.Equal(y.Func) || len(x.Children) != len(y.Children) {
			return false
		}
		for j := range x.Children {
			if x.Children[j] != y.Children[j] {
				return false
			}
		}
	}
	return true
}

// TestRoundTrip: entries written across several Append calls load back in
// order, trees and failures alike.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := randomEntries(rng, 30)
	if err := l.Append(entries[:10]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries[10:]); err != nil {
		t.Fatal(err)
	}
	got, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("loaded %d entries, wrote %d", len(got), len(entries))
	}
	for i := range entries {
		if !sameEntry(entries[i], got[i]) {
			t.Fatalf("entry %d does not round-trip", i)
		}
	}
	if data, err := os.ReadFile(l.Path()); err != nil || !bytes.HasPrefix(data, logFormat.Header()) {
		t.Fatalf("log does not start with the version-%d header: %v", Version, err)
	}
}

// TestLoadMissing: a missing log is empty, not an error.
func TestLoadMissing(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Load()
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestEveryPrefixLoads: the crash-tolerance guarantee — for EVERY byte
// prefix of a valid log, Load succeeds and returns a prefix of the original
// entries. This is exactly the state an interrupted flush (cancellation,
// panic, power loss) leaves behind.
func TestEveryPrefixLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := randomEntries(rng, 12)
	if err := l.Append(entries); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(l.Path(), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := l.Load()
		if err != nil {
			t.Fatalf("prefix %d/%d: %v", cut, len(full), err)
		}
		if len(got) > len(entries) {
			t.Fatalf("prefix %d: loaded more entries than written", cut)
		}
		for i := range got {
			if !sameEntry(entries[i], got[i]) {
				t.Fatalf("prefix %d: entry %d corrupted", cut, i)
			}
		}
	}
}

// TestCorruptionStopsAtValidPrefix: flipping a byte inside record i keeps
// entries before i loadable and discards the rest.
func TestCorruptionStopsAtValidPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := randomEntries(rng, 10)
	if err := l.Append(entries); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		data := append([]byte(nil), full...)
		pos := 8 + rng.Intn(len(data)-8) // spare the header; skew is tested separately
		data[pos] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(l.Path(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := l.Load()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i < len(entries) && sameEntry(entries[i], got[i]) {
				continue
			}
			// The flipped byte may leave one record decodable-but-different
			// only if both the CRC and the payload were hit; a single bit
			// flip cannot do that.
			t.Fatalf("trial %d: corrupt record %d surfaced as valid", trial, i)
		}
	}
}

// TestVersionSkewDiscardsAndRewrites: an old-version log loads as empty and
// the next flush replaces it with a current-version log.
func TestVersionSkewDiscardsAndRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := randomEntries(rng, 6)
	if err := l.Append(old); err != nil {
		t.Fatal(err)
	}
	// Rewind the header version.
	data, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:8], Version+1)
	if err := os.WriteFile(l.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Load(); err != nil || len(got) != 0 {
		t.Fatalf("version-skewed log loaded %d entries, err %v", len(got), err)
	}
	fresh := randomEntries(rng, 4)
	if err := l.Append(fresh); err != nil {
		t.Fatal(err)
	}
	got, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fresh) {
		t.Fatalf("rewritten log has %d entries, want %d", len(got), len(fresh))
	}
	for i := range fresh {
		if !sameEntry(fresh[i], got[i]) {
			t.Fatalf("rewritten entry %d mismatch", i)
		}
	}
	if data, err := os.ReadFile(l.Path()); err != nil || !bytes.HasPrefix(data, logFormat.Header()) {
		t.Fatalf("rewritten log does not start with the version-%d header: %v", Version, err)
	}
	// Garbage that is not even a header is discarded the same way.
	if err := os.WriteFile(l.Path(), []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Load(); err != nil || len(got) != 0 {
		t.Fatalf("garbage log loaded %d entries, err %v", len(got), err)
	}
	if err := l.Append(fresh[:1]); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.Load(); len(got) != 1 || !sameEntry(fresh[0], got[0]) {
		t.Fatal("garbage log was not rewritten cleanly")
	}
}

// TestConcurrentAppend: two appenders on the same log (each flush is one
// O_APPEND write) never corrupt it; all records from both survive.
func TestConcurrentAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	a := randomEntries(rng, 8)
	b := randomEntries(rng, 8)
	// Seed the header first so both goroutines take the pure-append path.
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(a[:1]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, batch := range [][]Entry{a[1:], b} {
		wg.Add(1)
		go func(batch []Entry) {
			defer wg.Done()
			lg, err := Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			if err := lg.Append(batch); err != nil {
				t.Error(err)
			}
		}(batch)
	}
	wg.Wait()
	got, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(a)+len(b) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(a)+len(b))
	}
	byKey := map[string]Entry{}
	for _, e := range append(append([]Entry(nil), a...), b...) {
		byKey[e.Key] = e
	}
	for i, e := range got {
		want, ok := byKey[e.Key]
		if !ok || !sameEntry(want, e) {
			t.Fatalf("entry %d not among the written records", i)
		}
	}
}

// TestAppendNothing: an empty flush neither creates nor touches the file.
func TestAppendNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "decomp.log")); !os.IsNotExist(err) {
		t.Fatal("empty append created the log file")
	}
}

// TestRejectOversizedRecord: a length field beyond the sanity cap stops the
// loader instead of allocating.
func TestRejectOversizedRecord(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	buf.Write(v[:])
	binary.LittleEndian.PutUint32(v[:], maxRecord+1)
	buf.Write(v[:])
	buf.Write([]byte{0, 0, 0, 0})
	if err := os.WriteFile(l.Path(), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Load(); err != nil || len(got) != 0 {
		t.Fatalf("oversized record loaded %d entries, err %v", len(got), err)
	}
}

// TestAppendAfterTornTail: a flush cut off mid-record must not strand later
// flushes behind the torn bytes — the next Append keeps the valid prefix and
// every later entry loads.
func TestAppendAfterTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := randomEntries(rng, 9)
	if err := l.Append(entries[:4]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(l.Path(), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries[4:]); err != nil {
		t.Fatal(err)
	}
	got, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Entry(nil), entries[:3]...), entries[4:]...)
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries after a torn tail, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameEntry(want[i], got[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

// TestFixtureRewritesIdentically: the committed format-1 log (four trees,
// six recorded failures) decodes, and re-encoding its entries reproduces it
// byte for byte.
func TestFixtureRewritesIdentically(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "recordlog", "testdata", "decomp.log"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src.Path(), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	trees := 0
	for _, e := range entries {
		if e.Tree != nil {
			trees++
		}
	}
	if len(entries) != 10 || trees != 4 {
		t.Fatalf("fixture loaded %d entries (%d trees), want 10 (4)", len(entries), trees)
	}
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Append(entries); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatal("re-encoded fixture differs from the committed bytes")
	}
}
