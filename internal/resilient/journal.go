package resilient

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// frameHeader is the framing in front of every log record: the
// payload length and the IEEE CRC32 of the payload, both big-endian
// uint32.
const frameHeader = 8

// maxFrame bounds a record's payload. No append writes more, so a
// longer declared length is damage, never a torn tail.
const maxFrame = 16 << 20

// journalFloor is the fixed slack by which the log may outgrow the
// last snapshot before Due asks for a compaction. It keeps a young,
// tiny snapshot from being rewritten on nearly every append.
const journalFloor = 64 << 10

// CorruptLogError reports a log frame that fails its length or CRC
// check and is followed by more bytes: damage a crash mid-append
// cannot explain, so replay refuses the log instead of skipping it.
type CorruptLogError struct {
	Offset int    // byte offset of the bad frame
	Reason string // what failed
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("resilient: corrupt log frame at byte %d: %s", e.Offset, e.Reason)
}

// ReadFrames splits a journal log into its record payloads, in append
// order. A torn final frame — a short header, a payload cut short, or
// a CRC-bad frame that ends exactly at the end of data — is what a
// kill mid-append leaves, and is dropped. Any other bad frame is a
// *CorruptLogError; the frames before it are returned with it. The
// payloads alias data.
func ReadFrames(data []byte) ([][]byte, error) {
	var frames [][]byte
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < frameHeader {
			break
		}
		n := binary.BigEndian.Uint32(rest)
		if n > maxFrame {
			return frames, &CorruptLogError{Offset: off, Reason: fmt.Sprintf("length %d over the %d-byte frame bound", n, maxFrame)}
		}
		end := frameHeader + int(n)
		if end > len(rest) {
			break
		}
		payload := rest[frameHeader:end]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:]) {
			if end == len(rest) {
				break
			}
			return frames, &CorruptLogError{Offset: off, Reason: "CRC mismatch"}
		}
		frames = append(frames, payload)
		off += end
	}
	return frames, nil
}

// Journal is a durable ledger kept as a snapshot plus an append-only
// log: <Dir>/<name>.ckpt is an ordinary Checkpointer snapshot, and
// <Dir>/<name>.log holds framed gob records appended after it, one
// write per record. Appending costs the size of one record, not of the
// whole ledger; Compact folds the log back into a fresh snapshot.
//
// What a record means, and how replay merges records into the
// snapshot, is the caller's business. A Journal is not safe for
// concurrent use.
type Journal struct {
	ck      Checkpointer
	name    string
	version int

	f        *os.File
	buf      bytes.Buffer
	logSize  int64
	snapSize int64
	// stale is set when an append or compaction failed, so the log no
	// longer mirrors the caller's state; Due then asks for a
	// compaction, which persists the whole state again.
	stale bool
}

// NewJournal returns the journal name in dir. The snapshot carries
// version exactly as Checkpointer.Save does. No file is touched until
// the first Load, Replay or Compact.
func NewJournal(dir, name string, version int) *Journal {
	return &Journal{ck: Checkpointer{Dir: dir, Resume: true}, name: name, version: version}
}

func (j *Journal) logPath() string { return filepath.Join(j.ck.Dir, j.name+".log") }

// Load restores the snapshot into state, reporting whether one exists
// (see Checkpointer.Load for the errors).
func (j *Journal) Load(state any) (bool, error) {
	return j.ck.Load(j.name, j.version, state)
}

// Replay hands each intact log record to apply, in append order, as a
// function that gob-decodes the record into a fresh value. A missing
// log replays nothing; a torn final record is dropped; a corrupt
// earlier one fails the replay with a wrapped *CorruptLogError.
func (j *Journal) Replay(apply func(decode func(v any) error) error) error {
	raw, err := os.ReadFile(j.logPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resilient: journal %s: %w", j.name, err)
	}
	frames, err := ReadFrames(raw)
	if err != nil {
		return fmt.Errorf("resilient: journal %s: %w", j.name, err)
	}
	for i, fr := range frames {
		decode := func(v any) error { return gob.NewDecoder(bytes.NewReader(fr)).Decode(v) }
		if err := apply(decode); err != nil {
			return fmt.Errorf("resilient: journal %s: record %d: %w", j.name, i, err)
		}
	}
	return nil
}

// Compact writes state as the new snapshot (atomically, through
// Checkpointer.Save) and then empties the log. A crash between the two
// leaves records the snapshot already holds; replaying them over it
// must be idempotent, which a record holding its subject's whole
// state is.
func (j *Journal) Compact(state any) error {
	n, err := j.ck.save(j.name, j.version, state)
	if err != nil {
		j.stale = true
		return err
	}
	j.snapSize = n
	if j.f == nil {
		j.f, err = os.OpenFile(j.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	} else {
		err = j.f.Truncate(0)
	}
	if err != nil {
		j.stale = true
		return fmt.Errorf("resilient: journal %s: %w", j.name, err)
	}
	j.logSize = 0
	j.stale = false
	return nil
}

// Append gob-encodes v and appends it as one framed record, returning
// the bytes written. It fires the resilient.checkpoint.save failpoint
// like every other ledger write. The log must have been opened by a
// Compact.
func (j *Journal) Append(v any) (int, error) {
	n, err := j.append(v)
	if err != nil {
		j.stale = true
		return 0, fmt.Errorf("resilient: journal %s: %w", j.name, err)
	}
	return n, nil
}

func (j *Journal) append(v any) (int, error) {
	if err := Fire(fpCheckpointSave); err != nil {
		return 0, err
	}
	if j.f == nil {
		return 0, errors.New("log not open")
	}
	j.buf.Reset()
	j.buf.Write(make([]byte, frameHeader))
	if err := gob.NewEncoder(&j.buf).Encode(v); err != nil {
		return 0, err
	}
	frame := j.buf.Bytes()
	payload := frame[frameHeader:]
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("record of %d bytes over the %d-byte frame bound", len(payload), maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := j.f.Write(frame); err != nil {
		// Cut off a partial frame so later appends do not bury it
		// mid-log, where replay would refuse it.
		j.f.Truncate(j.logSize)
		return 0, err
	}
	j.logSize += int64(len(frame))
	return len(frame), nil
}

// Due reports whether the log has outgrown the last snapshot by more
// than a small fixed floor, or a failed write left it stale. Compacting
// then keeps each append's cost amortized O(1): the bytes appended
// between two compactions pay for the snapshot the second one writes.
func (j *Journal) Due() bool {
	return j.stale || j.logSize > j.snapSize+journalFloor
}

// Close releases the log file; the journal stays readable on disk.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
