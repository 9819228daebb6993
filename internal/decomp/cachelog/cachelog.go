// Package cachelog persists the engine's decomposition cache across runs as
// a compact append-only log. Each entry maps an opaque cache key (the NPN
// class of a cone function plus the search parameters, encoded by
// internal/core) to the decomposition outcome: a tree over the canonical
// function, or a recorded failure.
//
// The file format and its crash guarantees belong to internal/recordlog;
// this package encodes the entries. Entries are pure functions of their
// keys, so losing or duplicating records only costs recomputation.
package cachelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"turbosyn/internal/decomp"
	"turbosyn/internal/logic"
	"turbosyn/internal/recordlog"
)

// Version is the log format version. Bump it whenever the record encoding
// or the core cache-key scheme changes; old logs are then set aside on the
// next flush. CI keys its cache restoration on this value.
const Version = 1

var magic = [4]byte{'T', 'S', 'D', 'C'}

// maxRecord caps one record's payload; anything larger is treated as
// corruption. The largest legitimate entry — a multi-node tree of 16-var
// functions — stays far below this.
const maxRecord = 1 << 22

var logFormat = recordlog.Format{Magic: magic, Version: Version, MaxRecord: maxRecord}

// Entry is one persisted cache entry. A nil Tree records a decomposition
// failure (the search proved, within its budgets, that no tree exists) —
// caching failures is what lets warm runs skip the expensive negative
// searches too.
type Entry struct {
	Key  string
	Tree *decomp.Tree
}

// Log is a handle to one on-disk cache log. Methods open and close the file
// per call, so a Log carries no state besides the path and is safe to share.
type Log struct {
	path string
}

// Open returns the log handle inside dir, creating the directory (not the
// file) as needed.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachelog: %w", err)
	}
	return &Log{path: filepath.Join(dir, "decomp.log")}, nil
}

// Path returns the log file's path.
func (l *Log) Path() string { return l.path }

// Load reads the decodable entries of the log's valid prefix: none for a
// missing or version-skewed log. Corruption is not an error; the error is
// reserved for real I/O failures.
func (l *Log) Load() ([]Entry, error) {
	payloads, _, err := logFormat.Load(l.path)
	if err != nil {
		return nil, fmt.Errorf("cachelog: %w", err)
	}
	var entries []Entry
	for _, p := range payloads {
		e, err := decodeEntry(p)
		if err != nil {
			break
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Append adds entries to the log in one write, under recordlog's policy for
// missing, torn and version-skewed logs.
func (l *Log) Append(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	payloads := make([][]byte, len(entries))
	for i, e := range entries {
		payloads[i] = encodeEntry(e)
	}
	f, err := logFormat.OpenAppend(l.path, payloads)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return fmt.Errorf("cachelog: %w", err)
	}
	return nil
}

// Record payload layout (all integers unsigned varints unless noted):
//
//	keyLen, key bytes
//	flag byte: 0 = recorded failure, 1 = tree follows
//	numInputs, nodeCount
//	per node: nvar, table words (8*wordsFor(nvar) bytes LE), childCount,
//	          children (varints)

func encodeEntry(e Entry) []byte {
	b := binary.AppendUvarint(nil, uint64(len(e.Key)))
	b = append(b, e.Key...)
	if e.Tree == nil {
		return append(b, 0)
	}
	t := e.Tree
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(t.NumInputs))
	b = binary.AppendUvarint(b, uint64(len(t.Nodes)))
	for _, nd := range t.Nodes {
		b = binary.AppendUvarint(b, uint64(nd.Func.NumVars()))
		b = nd.Func.AppendWordBytes(b)
		b = binary.AppendUvarint(b, uint64(len(nd.Children)))
		for _, c := range nd.Children {
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return b
}

var errCorrupt = errors.New("cachelog: corrupt record")

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errCorrupt
	}
	return v, b[n:], nil
}

func decodeEntry(b []byte) (Entry, error) {
	kl, b, err := readUvarint(b)
	if err != nil || uint64(len(b)) < kl {
		return Entry{}, errCorrupt
	}
	e := Entry{Key: string(b[:kl])}
	b = b[kl:]
	if len(b) < 1 {
		return Entry{}, errCorrupt
	}
	flag := b[0]
	b = b[1:]
	if flag == 0 && len(b) == 0 {
		return e, nil // recorded failure
	}
	if flag != 1 {
		return Entry{}, errCorrupt
	}
	ni, b, err := readUvarint(b)
	if err != nil || ni > logic.MaxVars {
		return Entry{}, errCorrupt
	}
	nn, b, err := readUvarint(b)
	if err != nil || nn == 0 || nn > 1<<16 {
		return Entry{}, errCorrupt
	}
	t := &decomp.Tree{NumInputs: int(ni), Nodes: make([]decomp.TreeNode, 0, nn)}
	for i := uint64(0); i < nn; i++ {
		nv, rest, err := readUvarint(b)
		if err != nil || nv > logic.MaxVars {
			return Entry{}, errCorrupt
		}
		b = rest
		wb := 8 << max(0, int(nv)-6) // the truth table's 64-bit words
		if len(b) < wb {
			return Entry{}, errCorrupt
		}
		fn, err := logic.TTFromWordBytes(int(nv), b[:wb])
		if err != nil {
			return Entry{}, errCorrupt
		}
		b = b[wb:]
		nc, rest, err := readUvarint(b)
		if err != nil || nc != nv {
			return Entry{}, errCorrupt // child j is variable j of Func
		}
		b = rest
		children := make([]int, nc)
		for j := range children {
			c, rest, err := readUvarint(b)
			if err != nil || c >= ni+i {
				return Entry{}, errCorrupt // forward or self reference
			}
			b = rest
			children[j] = int(c)
		}
		t.Nodes = append(t.Nodes, decomp.TreeNode{Func: fn, Children: children})
	}
	if len(b) != 0 {
		return Entry{}, errCorrupt
	}
	e.Tree = t
	return e, nil
}
