// Job journal: the daemon's crash-safety record. Every accepted job is
// appended before its 202 is sent, and every terminal transition (done,
// failed, shed) is appended when it happens, so at any instant the set
// "accepted minus terminal" is exactly the jobs the daemon still owes an
// answer for. On restart those jobs are recovered: resumed when their spec
// still parses, reported failed otherwise — never silently lost.
//
// The file format and its crash and durability guarantees belong to
// internal/recordlog; the journal encodes records as JSON. Unlike decomp
// cache entries, journal records are not recomputable — so an append
// failure refuses the job at admission instead of being shrugged off.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"turbosyn/internal/faultinject"
	"turbosyn/internal/recordlog"
)

// JournalVersion is the journal format version; logs of another version are
// renamed aside (not deleted) and a fresh journal is started.
const JournalVersion = 1

var journalMagic = [4]byte{'T', 'S', 'J', 'L'}

const maxJournalRecord = 16 << 20 // an inline BLIF upload can be large

var journalFormat = recordlog.Format{Magic: journalMagic, Version: JournalVersion, MaxRecord: maxJournalRecord}

// journalRecord is one framed JSON payload.
type journalRecord struct {
	// Op is "A" (accepted) or "T" (terminal).
	Op  string `json:"op"`
	ID  string `json:"id"`
	Seq uint64 `json:"seq,omitempty"`
	// Accepted payload.
	Spec *JobSpec `json:"spec,omitempty"`
	// Terminal payload.
	State State      `json:"state,omitempty"`
	Error *ErrorInfo `json:"error,omitempty"`
}

// Journal is the append-only job journal. Safe for concurrent use; every
// record lands in one write syscall under the mutex.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating as needed) the journal inside dir. An
// existing journal with a bad header or wrong version is moved aside to
// jobs.journal.bad and a fresh one is started.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := journalFormat.OpenAppend(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Close closes the underlying file. Nil-receiver safe, like every Journal
// method: a daemon without a journal directory carries a nil *Journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// append frames and writes one record. The faultinject hook lets chaos
// tests simulate a failing disk.
func (j *Journal) append(rec journalRecord) error {
	if err := faultinject.JournalWrite(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(payload) > maxJournalRecord {
		// The loader would stop at this record and lose every later one.
		return fmt.Errorf("journal: %d-byte record over the %d-byte limit", len(payload), maxJournalRecord)
	}
	frame := journalFormat.Frame(nil, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Accepted records job acceptance; it must succeed before the job is
// admitted (durability-first admission).
func (j *Journal) Accepted(job *Job) error {
	if j == nil {
		return nil
	}
	spec := job.Spec
	return j.append(journalRecord{Op: "A", ID: job.ID, Seq: job.Seq, Spec: &spec})
}

// Terminal records a terminal transition. A failure here is logged by the
// caller but does not fail the job: the worst case on crash is a duplicate
// re-run of an already-answered job, never a lost one.
func (j *Journal) Terminal(id string, state State, errInfo *ErrorInfo) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{Op: "T", ID: id, State: state, Error: errInfo})
}

// PendingJob is one recovered accepted-but-unanswered job.
type PendingJob struct {
	ID   string
	Seq  uint64
	Spec JobSpec
}

// LoadJournal replays the journal in dir: pending jobs (accepted, no
// terminal record), and the highest sequence number seen (so new IDs do not
// collide with recovered ones). A missing journal is empty, not an error;
// corruption truncates the replay at the last valid prefix.
func LoadJournal(dir string) (pending []PendingJob, maxSeq uint64, err error) {
	payloads, _, err := journalFormat.Load(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	accepted := map[string]PendingJob{}
	var order []string
	for _, p := range payloads {
		var rec journalRecord
		if json.Unmarshal(p, &rec) != nil {
			break
		}
		switch rec.Op {
		case "A":
			if rec.Spec != nil {
				if _, dup := accepted[rec.ID]; !dup {
					order = append(order, rec.ID)
				}
				accepted[rec.ID] = PendingJob{ID: rec.ID, Seq: rec.Seq, Spec: *rec.Spec}
				if rec.Seq > maxSeq {
					maxSeq = rec.Seq
				}
			}
		case "T":
			delete(accepted, rec.ID)
		}
	}
	for _, id := range order {
		if pj, ok := accepted[id]; ok {
			pending = append(pending, pj)
		}
	}
	return pending, maxSeq, nil
}

// CompactJournal rewrites dir's journal to contain only the still-pending
// records (temp file + rename, so a crash mid-compaction leaves the old
// journal intact; a journal with a foreign header is moved aside to
// jobs.journal.bad first, not overwritten). Called at startup after recovery
// re-admits the pending jobs; it bounds journal growth across restarts.
func CompactJournal(dir string, pending []PendingJob) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	payloads := make([][]byte, 0, len(pending))
	for _, pj := range pending {
		spec := pj.Spec
		p, err := json.Marshal(journalRecord{Op: "A", ID: pj.ID, Seq: pj.Seq, Spec: &spec})
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		payloads = append(payloads, p)
	}
	if err := journalFormat.Rewrite(filepath.Join(dir, "jobs.journal"), payloads); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
