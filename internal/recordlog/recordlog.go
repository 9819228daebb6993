// Package recordlog is the file format under the decomposition cache
// (internal/decomp/cachelog) and the daemon's job journal (internal/server):
// an append-only log of opaque records that tolerates a crash at any byte.
//
// A log is a header (4-byte magic, little-endian u32 version) and then
// records framed as a little-endian u32 payload length, the payload's
// CRC-32 (IEEE, little-endian u32) and the payload. Load keeps the records
// before the first frame whose length or checksum fails, so a write cut off
// anywhere costs at most the records it was writing.
//
// OpenAppend's policy for the file it finds: when missing or empty, the
// header and the records go out in one write (racing creators leave a
// loadable prefix); with a wrong or unreadable header, the file is renamed
// to <path>.bad and a fresh log is started; with a torn tail, the valid
// prefix and the records replace the file (temp file + rename), so they stay
// reachable; otherwise the records are appended in one O_APPEND write.
//
// Records are written but never fsynced: they survive a crash or kill of
// the process, not a power loss. Fsync is left out on purpose, because the
// journal append sits on the daemon's admission path.
package recordlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Format identifies one kind of log. MaxRecord caps a payload's length; a
// longer length field reads as corruption.
type Format struct {
	Magic     [4]byte
	Version   uint32
	MaxRecord uint32
}

// Header returns the 8 bytes that start every log in format f.
func (f Format) Header() []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), f.Magic[:]...), f.Version)
}

// Frame appends payload, framed, to dst. The loader stops at an empty
// payload or one longer than MaxRecord, so callers must not write one.
func (f Format) Frame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// read returns the file at path (nil when missing), the payloads of its
// valid prefix, which alias the data, and that prefix's length: 0 when the
// data does not start with f's header.
func (f Format) read(path string) (data []byte, payloads [][]byte, valid int, err error) {
	data, err = os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("recordlog: %w", err)
	}
	if len(data) < 8 || [4]byte(data) != f.Magic || binary.LittleEndian.Uint32(data[4:]) != f.Version {
		return data, nil, 0, nil
	}
	for valid = 8; len(data)-valid >= 8; {
		n := binary.LittleEndian.Uint32(data[valid:])
		if n == 0 || n > f.MaxRecord || uint64(len(data)-valid-8) < uint64(n) {
			break
		}
		p := data[valid+8 : valid+8+int(n)]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[valid+4:]) {
			break
		}
		payloads = append(payloads, p)
		valid += 8 + int(n)
	}
	return data, payloads, valid, nil
}

// Load returns the payloads of the valid prefix of the log at path and the
// prefix's length in bytes (0 without f's header). A missing file, a foreign
// header or a corrupt tail is not an error; only I/O failures are.
func (f Format) Load(path string) (payloads [][]byte, valid int64, err error) {
	_, payloads, n, err := f.read(path)
	return payloads, int64(n), err
}

// settle is read for a writer: a non-empty file without f's header is
// renamed to <path>.bad, never appended to or overwritten, and then reads
// as missing.
func (f Format) settle(path string) (data []byte, payloads [][]byte, valid int, err error) {
	data, payloads, valid, err = f.read(path)
	if err == nil && valid == 0 && len(data) > 0 {
		if err := os.Rename(path, path+".bad"); err != nil {
			return nil, nil, 0, fmt.Errorf("recordlog: quarantine unrecognized log: %w", err)
		}
		data = nil
	}
	return data, payloads, valid, err
}

// Rewrite replaces the log at path with one holding payloads, through a temp
// file and a rename, so a reader sees the old log or the new one, never a
// mix. A file without f's header is set aside first, as by OpenAppend.
func (f Format) Rewrite(path string, payloads [][]byte) error {
	if _, _, _, err := f.settle(path); err != nil {
		return err
	}
	b := f.Header()
	for _, p := range payloads {
		b = f.Frame(b, p)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("recordlog: %w", err)
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("recordlog: %w", err)
	}
	return nil
}

// OpenAppend writes payloads to the log at path under the policy in the
// package comment and returns the file open for appending, so each later
// record can go out framed in one Write call.
func (f Format) OpenAppend(path string, payloads [][]byte) (*os.File, error) {
	data, old, valid, err := f.settle(path)
	if err != nil {
		return nil, err
	}
	var out []byte
	switch {
	case len(data) == 0:
		out = f.Header()
	case valid < len(data):
		if err := f.Rewrite(path, append(old, payloads...)); err != nil {
			return nil, err
		}
		payloads = nil
	}
	for _, p := range payloads {
		out = f.Frame(out, p)
	}
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil && len(out) > 0 {
		if _, err = fh.Write(out); err != nil {
			fh.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("recordlog: %w", err)
	}
	return fh, nil
}
