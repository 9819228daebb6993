package recordlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The committed fixtures were written by the journal and cache-log encoders
// of format version 1, before the framing moved into this package, so they
// pin the on-disk bytes: testdata/jobs.journal holds four accepted jobs and
// two terminal records, testdata/decomp.log ten cache entries (four trees,
// six recorded failures).
var fixtures = []struct {
	file    string
	format  Format
	records int
}{
	{"jobs.journal", Format{Magic: [4]byte{'T', 'S', 'J', 'L'}, Version: 1, MaxRecord: 16 << 20}, 6},
	{"decomp.log", Format{Magic: [4]byte{'T', 'S', 'D', 'C'}, Version: 1, MaxRecord: 1 << 22}, 10},
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkPrefix loads data as a log file in format f and checks the contract
// every input must meet: no error, and the loaded records, framed again,
// reproduce ref (the undamaged log) up to the valid prefix Load reported.
func checkPrefix(t testing.TB, f Format, path string, data, ref []byte) [][]byte {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	payloads, valid, err := f.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if valid == 0 {
		if len(payloads) != 0 {
			t.Fatalf("%d records loaded without a valid header", len(payloads))
		}
		return nil
	}
	again := f.Header()
	for _, p := range payloads {
		again = f.Frame(again, p)
	}
	if int64(len(ref)) < valid || !bytes.Equal(again, ref[:valid]) {
		t.Fatalf("re-framed %d records do not reproduce the %d-byte valid prefix", len(payloads), valid)
	}
	return payloads
}

// TestCrashSweep truncates each fixture at every offset and flips every bit
// of it, one at a time: each damaged log must load a strict prefix of the
// fixture's records, never an error.
func TestCrashSweep(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			data := readFixture(t, fx.file)
			path := filepath.Join(t.TempDir(), fx.file)
			if got := checkPrefix(t, fx.format, path, data, data); len(got) != fx.records {
				t.Fatalf("fixture loads %d records, want %d", len(got), fx.records)
			}
			for cut := 0; cut < len(data); cut++ {
				if got := checkPrefix(t, fx.format, path, data[:cut], data); len(got) >= fx.records {
					t.Fatalf("cut at %d: loaded all %d records", cut, len(got))
				}
			}
			flipped := make([]byte, len(data))
			for off := range data {
				for bit := 0; bit < 8; bit++ {
					copy(flipped, data)
					flipped[off] ^= 1 << bit
					if got := checkPrefix(t, fx.format, path, flipped, data); len(got) >= fx.records {
						t.Fatalf("bit %d of byte %d flipped: loaded all %d records", bit, off, len(got))
					}
				}
			}
		})
	}
}

// FuzzRecordlogLoad: arbitrary bytes as a log file never make Load panic or
// fail, and whatever it returns re-frames to a byte prefix of the input.
func FuzzRecordlogLoad(f *testing.F) {
	for _, fx := range fixtures {
		data := readFixture(f, fx.file)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	// One file per process is safe: fuzz inputs run one at a time.
	path := filepath.Join(f.TempDir(), "log")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fx := range fixtures {
			checkPrefix(t, fx.format, path, data, data)
		}
	})
}

// TestOpenAppendPolicy walks every branch of the open-for-append policy: the
// records passed to OpenAppend and one more written through the returned
// handle must both load, after whatever the existing file held that was
// valid, and a file without the header must be set aside byte for byte.
func TestOpenAppendPolicy(t *testing.T) {
	f := fixtures[1].format
	good := f.Frame(f.Frame(f.Header(), []byte("one")), []byte("two"))
	foreign := append([]byte(nil), good...)
	foreign[4]++ // next version
	for _, tc := range []struct {
		name     string
		existing []byte // nil: no file
		keep     int    // records of existing expected to survive
		bad      bool   // existing expected at <path>.bad
	}{
		{"missing", nil, 0, false},
		{"empty", []byte{}, 0, false},
		{"foreign header", foreign, 0, true},
		{"short header", good[:3], 0, true},
		{"torn tail", good[:len(good)-1], 1, false},
		{"clean", good, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if tc.existing != nil {
				if err := os.WriteFile(path, tc.existing, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fh, err := f.OpenAppend(path, [][]byte{[]byte("new")})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Write(f.Frame(nil, []byte("later"))); err != nil {
				t.Fatal(err)
			}
			if err := fh.Close(); err != nil {
				t.Fatal(err)
			}
			want := []string{"one", "two"}[:tc.keep]
			want = append(want, "new", "later")
			payloads, valid, err := f.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := os.Stat(path)
			if len(payloads) != len(want) || valid != st.Size() {
				t.Fatalf("loaded %d records (%d of %d bytes valid), want %q", len(payloads), valid, st.Size(), want)
			}
			for i, p := range payloads {
				if string(p) != want[i] {
					t.Fatalf("record %d = %q, want %q", i, p, want[i])
				}
			}
			bad, err := os.ReadFile(path + ".bad")
			if tc.bad != (err == nil) || (tc.bad && !bytes.Equal(bad, tc.existing)) {
				t.Fatalf("quarantine: got %q (%v), want it=%v", bad, err, tc.bad)
			}
		})
	}
}

// TestRewrite: a rewrite replaces a current log (or creates a missing one)
// in place, but sets a foreign log aside before replacing it.
func TestRewrite(t *testing.T) {
	f := fixtures[0].format
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	for i, existing := range [][]byte{nil, f.Header(), []byte("BOGUSDATA")} {
		if existing != nil {
			if err := os.WriteFile(path, existing, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Rewrite(path, [][]byte{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
		if payloads, _, err := f.Load(path); err != nil || len(payloads) != 1 {
			t.Fatalf("case %d: rewritten log loads %d records, err %v", i, len(payloads), err)
		}
		_, err := os.Stat(path + ".bad")
		if quarantined := i == 2; quarantined != (err == nil) {
			t.Fatalf("case %d: quarantined = %v, want %v", i, err == nil, quarantined)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("directory holds %d files (%v), want the log and its .bad: no temp files left", len(entries), err)
	}
}
