// Package checkpoint creates and restores process checkpoints for the
// recoverable home-based SDSM.
//
// Following the paper (§3.2): "A checkpoint consists of all local and
// shared memory contents, the state of execution, and all internal data
// structures used by home-based SDSM. ... The first checkpoint flushes
// all shared memory pages to stable storage, and then only those pages
// that have been modified since the last checkpoint will be included in a
// subsequent checkpoint." The stored image is sparse — per-page frames,
// none for a page that is all zeros, and a page unchanged since the
// previous checkpoint shares that checkpoint's frame — so what a store
// holds grows with what was modified, as the accounted bytes always did.
package checkpoint

import (
	"encoding/binary"
	"fmt"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/stable"
	"sdsm/internal/vclock"
)

// Meta is the serialized protocol state of a checkpoint.
type Meta struct {
	Op      int32
	VT      vclock.VC
	Notices []hlrc.Notice // full knowledge dump
	// Home-page version vectors, parallel slices.
	VerPages []memory.PageID
	Vers     []vclock.VC
}

// Encode serializes the meta block.
func (m *Meta) Encode() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(m.Op))
	buf = m.VT.Encode(buf)
	buf = hlrc.EncodeNotices(m.Notices, buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.VerPages)))
	for i, p := range m.VerPages {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		buf = m.Vers[i].Encode(buf)
	}
	return buf
}

// DecodeMeta deserializes a meta block; the block must hold exactly one.
func DecodeMeta(buf []byte) (*Meta, error) {
	m := &Meta{}
	if len(buf) < 4 {
		return nil, fmt.Errorf("checkpoint: short meta")
	}
	m.Op = int32(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	var err error
	if m.VT, buf, err = vclock.DecodeVC(buf, nil); err != nil {
		return nil, err
	}
	if m.Notices, buf, err = hlrc.DecodeNotices(buf, nil, nil); err != nil {
		return nil, err
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("checkpoint: short ver table")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Every entry holds at least a page id and an empty vector (6 bytes):
	// a corrupt count must fail here, not size the tables.
	if n > len(buf)/6 {
		return nil, fmt.Errorf("checkpoint: ver table of %d entries in %d bytes", n, len(buf))
	}
	m.VerPages = make([]memory.PageID, n)
	m.Vers = make([]vclock.VC, n)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("checkpoint: truncated ver table")
		}
		m.VerPages[i] = memory.PageID(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if m.Vers[i], buf, err = vclock.DecodeVC(buf, nil); err != nil {
			return nil, err
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing meta bytes", len(buf))
	}
	return m, nil
}

// Take snapshots the node's state into its stable store and returns the
// accounted on-disk byte count (full image for the first checkpoint,
// changed pages only afterwards, per the paper §3.2). The snapshot is
// atomic with respect to concurrently applied asynchronous updates.
func Take(nd *hlrc.Node, store *stable.Store) int {
	prev, _ := store.LatestCheckpoint()
	fs := nd.Freeze(prev.Pages)
	meta := &Meta{
		Op:       fs.Op,
		VT:       fs.VT,
		Notices:  fs.Notices,
		VerPages: fs.VerPages,
		Vers:     fs.Vers,
	}
	metaBytes := meta.Encode()
	accounted := len(metaBytes) + fs.ChangedPages*nd.PageTable().PageSize()
	store.PutCheckpoint(stable.Checkpoint{
		Op:    meta.Op,
		Pages: fs.Pages,
		Meta:  metaBytes,
		Bytes: accounted,
	})
	return accounted
}

// RestoreInitial loads the run's initial (op-0) checkpoint — the one
// crash recovery replays from. Later periodic checkpoints bound the
// failure-free state on disk but cannot resume an SPMD program closure
// mid-run (that would need a process-image checkpoint, which the paper's
// TreadMarks-level implementation takes but a library cannot).
func RestoreInitial(nd *hlrc.Node, store *stable.Store) (int32, bool) {
	cp, ok := store.FirstCheckpoint()
	if !ok {
		return 0, false
	}
	return restoreFrom(nd, cp)
}

// Restore loads the latest checkpoint from the store into the node:
// pages, vector time, knowledge, op counter, home version vectors, and a
// cleared undo history. It returns the checkpoint's op index, or false
// when the store holds no checkpoint.
func Restore(nd *hlrc.Node, store *stable.Store) (int32, bool) {
	cp, ok := store.LatestCheckpoint()
	if !ok {
		return 0, false
	}
	return restoreFrom(nd, cp)
}

func restoreFrom(nd *hlrc.Node, cp stable.Checkpoint) (int32, bool) {
	meta, err := DecodeMeta(cp.Meta)
	if err != nil {
		panic(fmt.Sprintf("checkpoint: corrupt meta: %v", err))
	}
	nd.Restore(&hlrc.FrozenState{
		Pages:    cp.Pages,
		VT:       meta.VT,
		Op:       meta.Op,
		Notices:  meta.Notices,
		VerPages: meta.VerPages,
		Vers:     meta.Vers,
	})
	return meta.Op, true
}
