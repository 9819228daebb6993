package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"turbosyn/internal/faultinject"
)

// A daemon pointed at a journal directory that does not exist yet must
// start: the startup sequence is LoadJournal (missing = empty), then
// CompactJournal, then OpenJournal, so compaction has to create the
// directory itself rather than rely on OpenJournal's MkdirAll.
func TestJournalFreshDirStartup(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet", "created")
	pending, maxSeq, err := LoadJournal(dir)
	if err != nil || len(pending) != 0 || maxSeq != 0 {
		t.Fatalf("LoadJournal on missing dir: pending=%v maxSeq=%d err=%v", pending, maxSeq, err)
	}
	if err := CompactJournal(dir, nil); err != nil {
		t.Fatalf("CompactJournal on missing dir: %v", err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal after compaction: %v", err)
	}
	if err := j.Accepted(newJobForTest("j-00000001", 1, JobSpec{Tenant: "t"})); err != nil {
		t.Fatalf("Accepted: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	pending, maxSeq, err = LoadJournal(dir)
	if err != nil || len(pending) != 1 || maxSeq != 1 {
		t.Fatalf("replay after fresh-dir startup: pending=%d maxSeq=%d err=%v", len(pending), maxSeq, err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Tenant: "acme", Priority: 2, BLIF: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"}
	job := newJobForTest("j-00000001", 1, spec)
	if err := j.Accepted(job); err != nil {
		t.Fatal(err)
	}
	acceptedRec := newJobForTest("j-00000002", 2, JobSpec{Tenant: "b", Generator: &GeneratorSpec{Kind: "suite", Name: "bbara"}})
	if err := j.Accepted(acceptedRec); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("j-00000001", StateDone, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	pending, maxSeq, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if maxSeq != 2 {
		t.Fatalf("maxSeq = %d, want 2", maxSeq)
	}
	if len(pending) != 1 || pending[0].ID != "j-00000002" || pending[0].Spec.Tenant != "b" {
		t.Fatalf("pending = %+v, want exactly j-00000002", pending)
	}
}

func newJobForTest(id string, seq uint64, spec JobSpec) *Job {
	return newJob(id, seq, spec, time.Time{}, 0)
}

func TestJournalTruncationLoadsPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Accepted(newJobForTest(jobID(i), uint64(i), JobSpec{Tenant: "t", BLIF: "x"})); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, "jobs.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the tail: every prefix must load cleanly, recovering a
	// (possibly shorter) prefix of the accepted jobs — never erroring.
	for cut := 1; cut < 40; cut++ {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		pending, _, err := LoadJournal(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(pending) > 3 {
			t.Fatalf("cut %d: recovered %d jobs from a 3-job log", cut, len(pending))
		}
		for i, pj := range pending {
			if pj.ID != jobID(i+1) {
				t.Fatalf("cut %d: pending[%d] = %s, want prefix order", cut, i, pj.ID)
			}
		}
	}
	// Corrupt a payload byte mid-file: load stops at the bad record.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mid := len(data)/2 + 3
	corrupt := append([]byte(nil), data...)
	corrupt[mid] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	pending, _, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) >= 3 {
		t.Fatalf("corrupt mid-record: recovered %d jobs, want a strict prefix", len(pending))
	}
}

func jobID(i int) string {
	return []string{"", "j-00000001", "j-00000002", "j-00000003"}[i]
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Accepted(newJobForTest(jobID(i), uint64(i), JobSpec{Tenant: "t", BLIF: "x"})); err != nil {
			t.Fatal(err)
		}
	}
	j.Terminal(jobID(1), StateDone, nil)
	j.Terminal(jobID(3), StateFailed, &ErrorInfo{Kind: KindInvalid, Message: "nope"})
	j.Close()
	pending, maxSeq, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != jobID(2) {
		t.Fatalf("pending = %+v, want only %s", pending, jobID(2))
	}
	if err := CompactJournal(dir, pending); err != nil {
		t.Fatal(err)
	}
	_ = maxSeq
	// The compacted journal replays to the same pending set and nothing else.
	pending2, maxSeq2, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending2) != 1 || pending2[0].ID != jobID(2) || maxSeq2 != 2 {
		t.Fatalf("after compaction pending = %+v maxSeq = %d", pending2, maxSeq2)
	}
	// Compaction shrank the file.
	st, err := os.Stat(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= 8 {
		t.Fatalf("compacted journal is empty, want the pending record")
	}
}

func TestJournalVersionSkewQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	if err := os.WriteFile(path, []byte("BOGUSDATA"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("unrecognized journal was not quarantined: %v", err)
	}
	if pending, _, err := LoadJournal(dir); err != nil || len(pending) != 0 {
		t.Fatalf("fresh journal after quarantine: pending=%v err=%v", pending, err)
	}
}

func TestJournalWriteFaultInjection(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, deactivate := faultinject.Activate(faultinject.Config{JournalFailAt: 1, JournalFailAll: true})
	defer deactivate()
	if err := j.Accepted(newJobForTest(jobID(1), 1, JobSpec{Tenant: "t", BLIF: "x"})); err == nil {
		t.Fatal("injected journal fault did not surface")
	}
}

// TestJournalCompactionConcurrentWithAppends pins the compaction/append
// interaction. CompactJournal is temp-file + rename, so it never corrupts
// the journal even while an open handle is appending — but appends that
// land after the rename go to the old, now-unlinked inode and are
// invisible to the next load. That is exactly why the daemon compacts only
// during startup (LoadJournal -> CompactJournal -> OpenJournal), before
// any handle is open; this test documents the contract the startup
// sequence relies on.
func TestJournalCompactionConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Phase 1: appends racing a compaction must never produce a journal the
	// loader rejects or truncates mid-prefix — whatever interleaving, every
	// load sees a clean log.
	pending := []PendingJob{{ID: "j-00000001", Seq: 1, Spec: JobSpec{Tenant: "t", BLIF: "x"}}}
	stop := make(chan struct{})
	appendErr := make(chan error, 1)
	go func() {
		defer close(appendErr)
		for i := 2; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("j-%08d", i)
			if err := j.Accepted(newJobForTest(id, uint64(i), JobSpec{Tenant: "t", BLIF: "x"})); err != nil {
				appendErr <- err
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := CompactJournal(dir, pending); err != nil {
			t.Fatalf("compaction %d: %v", i, err)
		}
		if _, _, err := LoadJournal(dir); err != nil {
			t.Fatalf("load after compaction %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-appendErr; err != nil {
		t.Fatalf("concurrent append: %v", err)
	}

	// Phase 2 (deterministic): after a final compaction, appends through the
	// still-open pre-rename handle land on the unlinked inode — the next
	// load sees exactly the compacted set, nothing more.
	if err := CompactJournal(dir, pending); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted(newJobForTest("j-00999999", 999999, JobSpec{Tenant: "ghost", BLIF: "x"})); err != nil {
		t.Fatalf("append to the unlinked inode still returns success (buffered by the fs): %v", err)
	}
	got, maxSeq, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "j-00000001" || maxSeq != 1 {
		t.Fatalf("after compaction+stale append: pending=%+v maxSeq=%d, want exactly the compacted set", got, maxSeq)
	}

	// A journal reopened on the compacted file appends visibly again.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Accepted(newJobForTest("j-00000002", 2, JobSpec{Tenant: "t", BLIF: "x"})); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	got, maxSeq, err = LoadJournal(dir)
	if err != nil || len(got) != 2 || maxSeq != 2 {
		t.Fatalf("reopened journal: pending=%d maxSeq=%d err=%v, want 2 pending", len(got), maxSeq, err)
	}
}

// TestJournalVersionSkewQuarantinedAtStartup: daemon start-up must set a
// journal of another format version aside, not compact it away — the
// replay reads it as empty, and the compaction that follows must not
// overwrite what it could not read.
func TestJournalVersionSkewQuarantinedAtStartup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	skewed := binary.LittleEndian.AppendUint32(append([]byte(nil), journalMagic[:]...), JournalVersion+1)
	skewed = append(skewed, "records of a future format"...)
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Fleet: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(s)
	bad, err := os.ReadFile(path + ".bad")
	if err != nil {
		t.Fatalf("version-skewed journal was not quarantined: %v", err)
	}
	if !bytes.Equal(bad, skewed) {
		t.Fatalf("quarantined journal = %q, want the original bytes", bad)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, journalFormat.Header()) {
		t.Fatalf("fresh journal = %x, %v; want a bare current header", got, err)
	}
}

// TestJournalFixtureReplay: the committed format-1 journal (four accepted
// jobs, two of them terminal) replays to the two pending jobs, and
// re-encoding every record reproduces the file byte for byte.
func TestJournalFixtureReplay(t *testing.T) {
	fixture := filepath.Join("..", "recordlog", "testdata", "jobs.journal")
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	pending, maxSeq, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].ID != "j-00000002" || pending[1].ID != "j-00000004" || maxSeq != 4 {
		t.Fatalf("replay: pending=%+v maxSeq=%d", pending, maxSeq)
	}
	if pending[1].Spec.Generator == nil || pending[1].Spec.Generator.Seed != 7 {
		t.Fatalf("replayed spec = %+v", pending[1].Spec)
	}
	payloads, _, err := journalFormat.Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	out := journalFormat.Header()
	for _, p := range payloads {
		var rec journalRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = journalFormat.Frame(out, b)
	}
	if len(payloads) != 6 || !bytes.Equal(out, data) {
		t.Fatalf("re-encoded %d records differ from the committed bytes", len(payloads))
	}
}

// TestJournalRefusesUnloadableRecord: a record longer than the loader
// accepts is refused at append time (admission then refuses the job),
// instead of being written where it would hide every later record.
func TestJournalRefusesUnloadableRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// JSON escapes '<' as six bytes, so a BLIF under the body limit can
	// still marshal past the record limit.
	huge := JobSpec{Tenant: "t", BLIF: strings.Repeat("<", maxJournalRecord/6+1)}
	if err := j.Accepted(newJobForTest(jobID(1), 1, huge)); err == nil {
		t.Fatal("oversized record was journaled")
	}
	if err := j.Accepted(newJobForTest(jobID(2), 2, JobSpec{Tenant: "t", BLIF: "x"})); err != nil {
		t.Fatal(err)
	}
	if pending, _, err := LoadJournal(dir); err != nil || len(pending) != 1 || pending[0].ID != jobID(2) {
		t.Fatalf("pending = %+v, %v; want only %s", pending, err, jobID(2))
	}
}
