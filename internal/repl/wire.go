// Package repl is WAL-shipping replication over the serving wire: a
// primary exports committed NVWAL frame ranges (core.ExportSince) and
// ships them to N replicas, which verify the export CRC chain, apply
// the frames to their own database (db.ImportFrames: the commit path a
// primary's transactions take, so replica durability is the same §4.2
// story as primary durability) with the applied primary mark in the same
// commit, and serve snapshot reads at exactly that mark. The protocol is
// strict request/response per conn:
//
//	replica → HELLO (incarnation, applied mark, chain)   on connect
//	primary → SEED   (full page snapshot)  |  FRAMES (mark range, backfill watermark)
//	replica → ACK    (incarnation, applied, ok)          per message
//
// A chain mismatch, mark gap, or incarnation change is unhealable in
// place: the replica latches read-only-degraded, nacks, and the
// primary re-seeds it with a full generation transfer. Incarnation is
// the primary's fencing epoch — a promoted replica starts a new mark
// space, so every follower of a new primary re-seeds by construction.
//
// Every decoder eats bytes from a peer: it never panics, never sizes an
// allocation by a count it has not checked against the message length,
// and refuses a mark that does not fit a non-negative int.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/db"
)

// Message types.
const (
	mtHello byte = iota + 1
	mtSeed
	mtFrames
	mtAck
)

var (
	errShort = errors.New("repl: truncated message")
	errMark  = errors.New("repl: mark out of range")
)

// markAt reads a mark: a frame index, so a non-negative int.
func markAt(msg []byte) (int, error) {
	m := binary.LittleEndian.Uint64(msg)
	if m > math.MaxInt {
		return 0, errMark
	}
	return int(m), nil
}

// hello is the replica's opening statement on every conn.
type hello struct {
	incarnation uint64
	applied     int
	chain       uint32
	needSeed    bool
}

// ack acknowledges one SEED or FRAMES message. ok=false is a nack:
// the replica could not verify/apply and needs a re-seed.
type ack struct {
	incarnation uint64
	applied     int
	ok          bool
}

func encodeHello(h hello) []byte {
	b := make([]byte, 0, 22)
	b = append(b, mtHello)
	b = binary.LittleEndian.AppendUint64(b, h.incarnation)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.applied))
	b = binary.LittleEndian.AppendUint32(b, h.chain)
	if h.needSeed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeHello(msg []byte) (hello, error) {
	if len(msg) < 22 || msg[0] != mtHello {
		return hello{}, fmt.Errorf("repl: bad hello (%d bytes)", len(msg))
	}
	applied, err := markAt(msg[9:])
	if err != nil {
		return hello{}, err
	}
	return hello{
		incarnation: binary.LittleEndian.Uint64(msg[1:]),
		applied:     applied,
		chain:       binary.LittleEndian.Uint32(msg[17:]),
		needSeed:    msg[21] == 1,
	}, nil
}

// encodeAck appends an ACK to dst.
func encodeAck(dst []byte, a ack) []byte {
	b := append(dst, mtAck)
	b = binary.LittleEndian.AppendUint64(b, a.incarnation)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.applied))
	if a.ok {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeAck(msg []byte) (ack, error) {
	if len(msg) < 18 || msg[0] != mtAck {
		return ack{}, fmt.Errorf("repl: bad ack (%d bytes)", len(msg))
	}
	applied, err := markAt(msg[9:])
	if err != nil {
		return ack{}, err
	}
	return ack{
		incarnation: binary.LittleEndian.Uint64(msg[1:]),
		applied:     applied,
		ok:          msg[17] == 1,
	}, nil
}

// encodeSeed serializes a full-generation transfer.
func encodeSeed(incarnation uint64, snap *db.PageSnapshot) []byte {
	size := 1 + 8 + 8 + 4 + 4
	for _, pg := range snap.Pages {
		size += 8 + len(pg.Data)
	}
	b := make([]byte, 0, size)
	b = append(b, mtSeed)
	b = binary.LittleEndian.AppendUint64(b, incarnation)
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.Mark))
	b = binary.LittleEndian.AppendUint32(b, uint32(snap.PageSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(snap.Pages)))
	for _, pg := range snap.Pages {
		b = binary.LittleEndian.AppendUint32(b, pg.Pgno)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(pg.Data)))
		b = append(b, pg.Data...)
	}
	return b
}

type seedMsg struct {
	incarnation uint64
	mark        int
	pageSize    int
	pages       []seedPage
}

type seedPage struct {
	pgno uint32
	data []byte
}

func decodeSeed(msg []byte) (seedMsg, error) {
	if len(msg) < 25 || msg[0] != mtSeed {
		return seedMsg{}, fmt.Errorf("repl: bad seed (%d bytes)", len(msg))
	}
	mark, err := markAt(msg[9:])
	if err != nil {
		return seedMsg{}, err
	}
	s := seedMsg{
		incarnation: binary.LittleEndian.Uint64(msg[1:]),
		mark:        mark,
		pageSize:    int(binary.LittleEndian.Uint32(msg[17:])),
	}
	n := int(binary.LittleEndian.Uint32(msg[21:]))
	off := 25
	s.pages = make([]seedPage, 0, min(n, (len(msg)-off)/8))
	for i := 0; i < n; i++ {
		if off+8 > len(msg) {
			return seedMsg{}, errShort
		}
		pgno := binary.LittleEndian.Uint32(msg[off:])
		dl := int(binary.LittleEndian.Uint32(msg[off+4:]))
		off += 8
		if dl > len(msg)-off {
			return seedMsg{}, errShort
		}
		s.pages = append(s.pages, seedPage{pgno: pgno, data: msg[off : off+dl]})
		off += dl
	}
	return s, nil
}

// encodeFrames appends to dst one exported mark range plus the CRC chain
// value AFTER folding it, as computed by the primary. The backfill
// watermark trails the frames, where a decoder that predates it reads
// nothing.
func encodeFrames(dst []byte, incarnation uint64, b core.ExportBatch, endChain uint32) []byte {
	size := 1 + 8 + 8 + 8 + 4 + 4 + 8
	for _, fr := range b.Frames {
		size += 12 + len(fr.Payload)
	}
	out := slices.Grow(dst, size)
	out = append(out, mtFrames)
	out = binary.LittleEndian.AppendUint64(out, incarnation)
	out = binary.LittleEndian.AppendUint64(out, uint64(b.From))
	out = binary.LittleEndian.AppendUint64(out, uint64(b.To))
	out = binary.LittleEndian.AppendUint32(out, endChain)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Frames)))
	for _, fr := range b.Frames {
		out = binary.LittleEndian.AppendUint32(out, fr.Pgno)
		off := fr.Off
		if fr.Full {
			off |= 1 << 31
		}
		out = binary.LittleEndian.AppendUint32(out, off)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(fr.Payload)))
		out = append(out, fr.Payload...)
	}
	return binary.LittleEndian.AppendUint64(out, uint64(b.Backfill))
}

type framesMsg struct {
	incarnation uint64
	batch       core.ExportBatch
	endChain    uint32
}

// decodeFrames parses a FRAMES message, building its frame list in
// frames' array; the payloads alias msg. One that ends after its frames
// (a sender that predates the watermark field) decodes with Backfill 0,
// "no boundary": the pair degrades to the replica's safety net instead
// of desynchronising.
func decodeFrames(msg []byte, frames []core.ExportFrame) (framesMsg, error) {
	if len(msg) < 33 || msg[0] != mtFrames {
		return framesMsg{}, fmt.Errorf("repl: bad frames message (%d bytes)", len(msg))
	}
	f := framesMsg{
		incarnation: binary.LittleEndian.Uint64(msg[1:]),
		endChain:    binary.LittleEndian.Uint32(msg[25:]),
	}
	var err error
	if f.batch.From, err = markAt(msg[9:]); err != nil {
		return framesMsg{}, err
	}
	if f.batch.To, err = markAt(msg[17:]); err != nil {
		return framesMsg{}, err
	}
	n := int(binary.LittleEndian.Uint32(msg[29:]))
	off := 33
	f.batch.Frames = slices.Grow(frames[:0], min(n, (len(msg)-off)/12))
	for i := 0; i < n; i++ {
		if off+12 > len(msg) {
			return framesMsg{}, errShort
		}
		pgno := binary.LittleEndian.Uint32(msg[off:])
		rawOff := binary.LittleEndian.Uint32(msg[off+4:])
		dl := int(binary.LittleEndian.Uint32(msg[off+8:]))
		off += 12
		if dl > len(msg)-off {
			return framesMsg{}, errShort
		}
		f.batch.Frames = append(f.batch.Frames, core.ExportFrame{
			Pgno:    pgno,
			Off:     rawOff &^ (1 << 31),
			Full:    rawOff&(1<<31) != 0,
			Payload: msg[off : off+dl],
		})
		off += dl
	}
	if len(msg)-off >= 8 {
		if f.batch.Backfill, err = markAt(msg[off:]); err != nil {
			return framesMsg{}, err
		}
	}
	return f, nil
}
