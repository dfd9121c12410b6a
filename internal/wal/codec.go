package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// ErrCorrupt reports a record payload that cannot be decoded.
var ErrCorrupt = errors.New("wal: corrupt record")

// Fixed encoded sizes of the record kinds, kind byte included;
// EncodedSize adds the variable-length parts.
const (
	updateFixed     = 1 + 8 + 8 + 8 + 2 + 8 + 1 + 4 + 4 + 4
	logicalFixed    = 1 + 8 + 8 + 8 + 2 + 8 + 8
	clrFixed        = 1 + 8 + 8 + 8 + 2 + 8 + 1 + 4 + 4 + 8 + 8
	endFixed        = 1 + 8 + 8 // Commit and Abort
	checkpointFixed = 1 + 4 + 4
	txnInfoSize     = 8 + 8 + 8
	dptEntrySize    = 8 + 8
	callbackFixed   = 1 + 8 + 2 + 4 + 8
	replFixed       = 1 + 8 + 8 + 4
	replEntrySize   = 4 + 8
	srvCkptFixed    = 1 + 4
	dctEntrySize    = 8 + 4 + 8 + 8
)

// EncodedSize returns len(Encode(r)) without encoding or allocating.
func EncodedSize(r Record) int {
	switch rec := r.(type) {
	case *Update:
		return updateFixed + len(rec.Before) + len(rec.After)
	case *Logical:
		return logicalFixed
	case *CLR:
		return clrFixed + len(rec.After)
	case *Commit, *Abort:
		return endFixed
	case *Checkpoint:
		return checkpointFixed + len(rec.Active)*txnInfoSize + len(rec.DPT)*dptEntrySize
	case *Callback:
		return callbackFixed
	case *Replacement:
		return replFixed + len(rec.Entries)*replEntrySize
	case *ServerCheckpoint:
		return srvCkptFixed + len(rec.DCT)*dctEntrySize
	default:
		panic("wal.EncodedSize: unknown record type")
	}
}

// Encode serializes a record to the byte payload stored in the log.
// The first byte is the Kind; the rest is kind-specific little-endian
// fields with u32-length-prefixed byte strings.  The payload is
// allocated at its exact size, once, and shares no memory with r.
//
// Encode calls no method of r, so a record built on the caller's stack
// stays there.
func Encode(r Record) []byte {
	w := writer{buf: make([]byte, 0, EncodedSize(r))}
	switch rec := r.(type) {
	case *Update:
		w.u8(uint8(KindUpdate))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
		w.u64(uint64(rec.Page))
		w.u16(rec.Slot)
		w.u64(uint64(rec.PSN))
		w.u8(uint8(rec.Op))
		w.u32(rec.Offset)
		w.bytes(rec.Before)
		w.bytes(rec.After)
	case *Logical:
		w.u8(uint8(KindLogical))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
		w.u64(uint64(rec.Page))
		w.u16(rec.Slot)
		w.u64(uint64(rec.PSN))
		w.u64(uint64(rec.Delta))
	case *CLR:
		w.u8(uint8(KindCLR))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
		w.u64(uint64(rec.Page))
		w.u16(rec.Slot)
		w.u64(uint64(rec.PSN))
		w.u8(uint8(rec.Op))
		w.u32(rec.Offset)
		w.bytes(rec.After)
		w.u64(uint64(rec.Delta))
		w.u64(uint64(rec.UndoNext))
	case *Commit:
		w.u8(uint8(KindCommit))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
	case *Abort:
		w.u8(uint8(KindAbort))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
	case *Checkpoint:
		w.u8(uint8(KindCheckpoint))
		w.u32(uint32(len(rec.Active)))
		for _, t := range rec.Active {
			w.u64(uint64(t.ID))
			w.u64(uint64(t.FirstLSN))
			w.u64(uint64(t.LastLSN))
		}
		w.u32(uint32(len(rec.DPT)))
		for _, d := range rec.DPT {
			w.u64(uint64(d.Page))
			w.u64(uint64(d.RedoLSN))
		}
	case *Callback:
		w.u8(uint8(KindCallback))
		w.u64(uint64(rec.Object.Page))
		w.u16(rec.Object.Slot)
		w.u32(uint32(rec.Responder))
		w.u64(uint64(rec.PSN))
	case *Replacement:
		w.u8(uint8(KindReplacement))
		w.u64(uint64(rec.Page))
		w.u64(uint64(rec.PagePSN))
		w.u32(uint32(len(rec.Entries)))
		for _, e := range rec.Entries {
			w.u32(uint32(e.Client))
			w.u64(uint64(e.PSN))
		}
	case *ServerCheckpoint:
		w.u8(uint8(KindServerCheckpoint))
		w.u32(uint32(len(rec.DCT)))
		for _, e := range rec.DCT {
			w.u64(uint64(e.Page))
			w.u32(uint32(e.Client))
			w.u64(uint64(e.PSN))
			w.u64(uint64(e.RedoLSN))
		}
	default:
		panic("wal.Encode: unknown record type")
	}
	return w.buf
}

// Decode parses a payload produced by Encode.
func Decode(data []byte) (Record, error) {
	r := reader{buf: data}
	kind := Kind(r.u8())
	switch kind {
	case KindUpdate:
		rec := &Update{
			TxnID:   ident.TxnID(r.u64()),
			PrevLSN: LSN(r.u64()),
			Page:    page.ID(r.u64()),
			Slot:    r.u16(),
			PSN:     page.PSN(r.u64()),
			Op:      OpKind(r.u8()),
		}
		rec.Offset = r.u32()
		rec.Before = r.bytes()
		rec.After = r.bytes()
		return rec, r.err()
	case KindLogical:
		rec := &Logical{
			TxnID:   ident.TxnID(r.u64()),
			PrevLSN: LSN(r.u64()),
			Page:    page.ID(r.u64()),
			Slot:    r.u16(),
			PSN:     page.PSN(r.u64()),
			Delta:   int64(r.u64()),
		}
		return rec, r.err()
	case KindCLR:
		rec := &CLR{
			TxnID:   ident.TxnID(r.u64()),
			PrevLSN: LSN(r.u64()),
			Page:    page.ID(r.u64()),
			Slot:    r.u16(),
			PSN:     page.PSN(r.u64()),
			Op:      OpKind(r.u8()),
		}
		rec.Offset = r.u32()
		rec.After = r.bytes()
		rec.Delta = int64(r.u64())
		rec.UndoNext = LSN(r.u64())
		return rec, r.err()
	case KindCommit:
		rec := &Commit{TxnID: ident.TxnID(r.u64()), PrevLSN: LSN(r.u64())}
		return rec, r.err()
	case KindAbort:
		rec := &Abort{TxnID: ident.TxnID(r.u64()), PrevLSN: LSN(r.u64())}
		return rec, r.err()
	case KindCheckpoint:
		rec := &Checkpoint{}
		n := r.u32()
		if n > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < n && r.e == nil; i++ {
			rec.Active = append(rec.Active, TxnInfo{
				ID:       ident.TxnID(r.u64()),
				FirstLSN: LSN(r.u64()),
				LastLSN:  LSN(r.u64()),
			})
		}
		m := r.u32()
		if m > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < m && r.e == nil; i++ {
			rec.DPT = append(rec.DPT, DPTEntry{Page: page.ID(r.u64()), RedoLSN: LSN(r.u64())})
		}
		return rec, r.err()
	case KindCallback:
		rec := &Callback{}
		rec.Object.Page = page.ID(r.u64())
		rec.Object.Slot = r.u16()
		rec.Responder = ident.ClientID(r.u32())
		rec.PSN = page.PSN(r.u64())
		return rec, r.err()
	case KindReplacement:
		rec := &Replacement{Page: page.ID(r.u64()), PagePSN: page.PSN(r.u64())}
		n := r.u32()
		if n > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < n && r.e == nil; i++ {
			rec.Entries = append(rec.Entries, ReplEntry{
				Client: ident.ClientID(r.u32()),
				PSN:    page.PSN(r.u64()),
			})
		}
		return rec, r.err()
	case KindServerCheckpoint:
		rec := &ServerCheckpoint{}
		n := r.u32()
		if n > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < n && r.e == nil; i++ {
			rec.DCT = append(rec.DCT, DCTEntry{
				Page:    page.ID(r.u64()),
				Client:  ident.ClientID(r.u32()),
				PSN:     page.PSN(r.u64()),
				RedoLSN: LSN(r.u64()),
			})
		}
		return rec, r.err()
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type reader struct {
	buf []byte
	off int
	e   error
}

func (r *reader) fail() {
	if r.e == nil {
		r.e = ErrCorrupt
	}
}

func (r *reader) u8() uint8 {
	if r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.e != nil || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

func (r *reader) err() error { return r.e }
