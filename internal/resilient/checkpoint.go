package resilient

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// fpCheckpointSave lets the chaos suite inject snapshot-write failures.
var fpCheckpointSave = Site("resilient.checkpoint.save")

// snapshotMagic identifies (and versions) the container format itself;
// the payload carries its own per-engine Name and Version.
const snapshotMagic = "mstx-ckpt-1"

// envelope is the on-disk snapshot container. The payload is the
// gob-encoded engine state, CRC-checked so a torn or bit-rotted file
// is detected before any of it is trusted.
type envelope struct {
	Magic   string
	Name    string
	Version int
	Payload []byte
	CRC     uint32
}

// Checkpointer periodically snapshots the merged state of a long run
// so a killed process can resume instead of restarting from zero. One
// Checkpointer serves a whole command invocation: each engine run
// saves under its own name as <Dir>/<name>.ckpt, written atomically
// (temp file + rename), so a SIGKILL at any instant leaves either the
// previous complete snapshot or the new one — never a torn file.
//
// The nil *Checkpointer, and one with an empty Dir, are inert: Save
// and Load are no-ops, which keeps engine call sites unconditional.
type Checkpointer struct {
	// Dir is the snapshot directory (created on first save). Empty
	// disables checkpointing.
	Dir string
	// Every is the save cadence in engine units — round barriers for
	// the MC engine, completed batches for the fault campaigns. <= 1
	// saves at every unit.
	Every int
	// Resume makes Load return existing snapshots; without it Load is
	// a no-op and runs start fresh (overwriting old snapshots as they
	// go).
	Resume bool
}

// Enabled reports whether snapshots are actually read/written.
func (c *Checkpointer) Enabled() bool { return c != nil && c.Dir != "" }

// Interval returns the save cadence, at least 1.
func (c *Checkpointer) Interval() int {
	if c == nil || c.Every <= 1 {
		return 1
	}
	return c.Every
}

func (c *Checkpointer) path(name string) string {
	return filepath.Join(c.Dir, name+".ckpt")
}

// Save snapshots state under name. The engine's version guards its
// state layout: a later binary with a different layout bumps the
// version and old snapshots are rejected on load instead of being
// misdecoded. A save failure is returned to the engine, which aborts
// the run — silently losing checkpoints would turn a later resume
// into data corruption.
func (c *Checkpointer) Save(name string, version int, state any) error {
	_, err := c.save(name, version, state)
	return err
}

// save is Save reporting the size of the snapshot file it wrote.
func (c *Checkpointer) save(name string, version int, state any) (int64, error) {
	if !c.Enabled() {
		return 0, nil
	}
	if err := Fire(fpCheckpointSave); err != nil {
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	env := envelope{
		Magic:   snapshotMagic,
		Name:    name,
		Version: version,
		Payload: payload.Bytes(),
		CRC:     crc32.ChecksumIEEE(payload.Bytes()),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(c.Dir, name+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), c.path(name)); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	return int64(buf.Len()), nil
}

// Load restores the snapshot saved under name into state, returning
// whether one was loaded. It returns (false, nil) when resuming is
// disabled or no snapshot exists, and an error when a snapshot exists
// but cannot be trusted: wrong container magic, wrong name, wrong
// engine version, CRC mismatch, or a decode failure. Engines verify
// their own run parameters after decode — resuming a checkpoint from
// a different experiment must fail loudly, not silently merge streams.
func (c *Checkpointer) Load(name string, version int, state any) (bool, error) {
	if !c.Enabled() || !c.Resume {
		return false, nil
	}
	raw, err := os.ReadFile(c.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("resilient: checkpoint %s: %w", name, err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return false, fmt.Errorf("resilient: checkpoint %s: corrupt container: %w", name, err)
	}
	switch {
	case env.Magic != snapshotMagic:
		return false, fmt.Errorf("resilient: checkpoint %s: bad magic %q", name, env.Magic)
	case env.Name != name:
		return false, fmt.Errorf("resilient: checkpoint %s: file holds %q", name, env.Name)
	case env.Version != version:
		return false, fmt.Errorf("resilient: checkpoint %s: version %d, want %d", name, env.Version, version)
	case env.CRC != crc32.ChecksumIEEE(env.Payload):
		return false, fmt.Errorf("resilient: checkpoint %s: CRC mismatch (torn or corrupted snapshot)", name)
	}
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(state); err != nil {
		return false, fmt.Errorf("resilient: checkpoint %s: corrupt payload: %w", name, err)
	}
	return true, nil
}
