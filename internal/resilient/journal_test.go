package resilient

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one log frame around payload, as Append writes it.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// validLog is n frames with distinct payloads of varying length.
func validLog(n int) ([]byte, [][]byte) {
	var log []byte
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte('a' + i%26)}, 1+i*7%40)
		payloads = append(payloads, p)
		log = append(log, frame(p)...)
	}
	return log, payloads
}

func samePayloads(got, want [][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func TestReadFramesTornTail(t *testing.T) {
	log, payloads := validLog(4)
	frames, err := ReadFrames(log)
	if err != nil || !samePayloads(frames, payloads) {
		t.Fatalf("intact log: %d frames, %v", len(frames), err)
	}
	last := len(log) - len(frame(payloads[3]))
	// Every cut inside the last frame is a kill mid-append: the first
	// three records survive, the torn one is dropped.
	for cut := last + 1; cut < len(log); cut++ {
		frames, err := ReadFrames(log[:cut])
		if err != nil || !samePayloads(frames, payloads[:3]) {
			t.Fatalf("cut at %d: %d frames, %v", cut, len(frames), err)
		}
	}
	// A CRC-bad final frame is a torn tail too.
	bad := append([]byte(nil), log...)
	bad[len(bad)-1] ^= 0x40
	if frames, err := ReadFrames(bad); err != nil || !samePayloads(frames, payloads[:3]) {
		t.Fatalf("CRC-bad final frame: %d frames, %v", len(frames), err)
	}
}

func TestReadFramesCorruptMidLog(t *testing.T) {
	log, payloads := validLog(4)
	// Flip a payload byte of the second frame: more bytes follow it,
	// so no crash explains it.
	bad := append([]byte(nil), log...)
	off := len(frame(payloads[0]))
	bad[off+frameHeader] ^= 0x01
	frames, err := ReadFrames(bad)
	var ce *CorruptLogError
	if !errors.As(err, &ce) || ce.Offset != off {
		t.Fatalf("mid-log flip: err %v, want *CorruptLogError at %d", err, off)
	}
	if !samePayloads(frames, payloads[:1]) {
		t.Fatalf("mid-log flip returned %d frames, want the 1 before it", len(frames))
	}
	// A length over the frame bound is corruption even in the last
	// frame: no append writes one.
	huge := append([]byte(nil), log...)
	binary.BigEndian.PutUint32(huge[off:], maxFrame+1)
	if _, err := ReadFrames(huge); !errors.As(err, &ce) {
		t.Fatalf("oversized length: err %v, want *CorruptLogError", err)
	}
}

type journalRec struct {
	Key   string
	Value int
}

func TestJournalAppendReplayCompact(t *testing.T) {
	dir := t.TempDir()
	jn := NewJournal(dir, "ledger", 1)
	if err := jn.Compact(&[]journalRec{{"base", 1}}); err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < 5; i++ {
		n, err := jn.Append(journalRec{Key: fmt.Sprint("k", i), Value: i})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	fi, err := os.Stat(filepath.Join(dir, "ledger.log"))
	if err != nil || fi.Size() != int64(total) {
		t.Fatalf("log holds %v bytes (%v), appends reported %d", fi, err, total)
	}
	if jn.Due() {
		t.Fatal("a few small records made the log due for compaction")
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	rd := NewJournal(dir, "ledger", 1)
	var snap []journalRec
	if ok, err := rd.Load(&snap); !ok || err != nil || len(snap) != 1 || snap[0].Key != "base" {
		t.Fatalf("snapshot: %v %v %+v", ok, err, snap)
	}
	var got []journalRec
	err = rd.Replay(func(decode func(any) error) error {
		var r journalRec
		if err := decode(&r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil || len(got) != 5 || got[4] != (journalRec{"k4", 4}) {
		t.Fatalf("replay: %v %+v", err, got)
	}

	// Compact folds the log away: the snapshot is new, the log empty.
	if err := rd.Compact(&got); err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if fi, err := os.Stat(filepath.Join(dir, "ledger.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log after compaction: %v %v", fi, err)
	}
	n := 0
	if err := rd.Replay(func(func(any) error) error { n++; return nil }); err != nil || n != 0 {
		t.Fatalf("replay after compaction: %d records, %v", n, err)
	}
}

func TestJournalAppendFailpoint(t *testing.T) {
	jn := NewJournal(t.TempDir(), "ledger", 1)
	if err := jn.Compact(&[]journalRec{}); err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	fp := NewFailpoints()
	boom := errors.New("disk gone")
	fp.Set("resilient.checkpoint.save", Action{Err: boom, Times: 1})
	Install(fp)
	defer Install(nil)
	if _, err := jn.Append(journalRec{"x", 1}); !errors.Is(err, boom) {
		t.Fatalf("append failpoint not surfaced: %v", err)
	}
	// A failed append leaves the log behind the caller's state, so
	// the next check asks for a compaction.
	if !jn.Due() {
		t.Fatal("failed append did not make the journal due")
	}
	if err := jn.Compact(&[]journalRec{{"x", 1}}); err != nil {
		t.Fatal(err)
	}
	if jn.Due() {
		t.Fatal("journal still due after a successful compaction")
	}
}

func TestJournalDueAfterOutgrowingSnapshot(t *testing.T) {
	jn := NewJournal(t.TempDir(), "ledger", 1)
	if err := jn.Compact(&[]journalRec{}); err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	rec := journalRec{Key: string(bytes.Repeat([]byte{'z'}, 1024))}
	var written int
	for !jn.Due() {
		n, err := jn.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		written += n
		if written > 2*journalFloor {
			t.Fatalf("log reached %d bytes over a tiny snapshot without falling due", written)
		}
	}
	if written <= journalFloor {
		t.Fatalf("due after only %d bytes, under the %d-byte floor", written, journalFloor)
	}
}

// FuzzLedgerReplay feeds ReadFrames a valid log prefix followed by
// arbitrary bytes. It must never panic, and must either return the
// whole prefix (dropping a torn tail, or adding frames the tail
// happens to hold intact) or a *CorruptLogError.
func FuzzLedgerReplay(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(2), []byte{0, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 9, 1, 2, 3, 4, 'x'})
	f.Add(uint8(4), frame([]byte("appended")))
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, tail []byte) {
		prefix, payloads := validLog(int(n % 16))
		frames, err := ReadFrames(append(prefix, tail...))
		if err != nil {
			var ce *CorruptLogError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped replay error %T: %v", err, err)
			}
			if ce.Offset < len(prefix) {
				t.Fatalf("corruption reported at %d, inside the valid %d-byte prefix", ce.Offset, len(prefix))
			}
		}
		if len(frames) < len(payloads) || !samePayloads(frames[:len(payloads)], payloads) {
			t.Fatalf("replay lost the valid prefix: %d frames, want at least %d", len(frames), len(payloads))
		}
	})
}
