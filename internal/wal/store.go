package wal

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the byte-level log device under a Log.  Records are framed by
// the Log; the store only sees opaque payloads addressed by the LSN of
// their frame.
//
// Two implementations exist: MemStore, whose "disk" survives a simulated
// crash while the unflushed tail is lost (used by tests, benchmarks and
// the simulator), and FileStore, backed by a real file (used by the cmd/
// tools and the examples).
type Store interface {
	// Append stores a payload and returns the LSN assigned to it.  The
	// store takes ownership of payload: it may keep the slice itself
	// rather than a copy, so the caller must not modify it afterwards.
	// Log hands over each record's freshly encoded bytes.
	Append(payload []byte) (LSN, error)
	// Flush makes every record with LSN <= upTo durable.
	Flush(upTo LSN) error
	// Durable returns the LSN boundary below which records survive a
	// crash (exclusive: every record starting before it is durable).
	Durable() LSN
	// End returns the LSN that the next appended record will receive.
	End() LSN
	// ReadAt returns the payload of the record at lsn and the LSN of the
	// following record.
	ReadAt(lsn LSN) (payload []byte, next LSN, err error)
	// Reclaim tells the store that no record before upTo will ever be
	// read again, allowing a bounded (circular) log to reuse the space.
	Reclaim(upTo LSN) error
	// Horizon returns the earliest LSN still readable.
	Horizon() LSN
	// Close releases resources.
	Close() error
}

// Store errors.
var (
	ErrLogFull    = errors.New("wal: log capacity exhausted")
	ErrOutOfRange = errors.New("wal: LSN out of range")
	ErrReclaimed  = errors.New("wal: LSN already reclaimed")
)

// HeadroomAppender is an optional Store capability backing the client's
// undo reservation (§3.6 on bounded logs): the append is refused with
// ErrLogFull unless headroom bytes of capacity remain free after it, so
// a transaction can always log the CLRs and the abort record needed to
// roll itself back even when forward appends are being refused.  Stores
// that do not track capacity simply don't implement it.
type HeadroomAppender interface {
	// AppendHeadroom takes ownership of payload, as Store.Append does.
	AppendHeadroom(payload []byte, headroom uint64) (LSN, error)
}

// firstLSN is the LSN of the first real record.  Offset zero is reserved
// so that NilLSN never collides with a record address.
const firstLSN LSN = 16

// MemStore is an in-memory Store with crash semantics: Crash discards
// the records that were appended but never flushed, exactly what losing
// the contents of an OS buffer cache would do.  A non-zero capacity
// bounds the live log span (End - reclaim horizon) to model the bounded
// client log disks of §3.6.
type MemStore struct {
	mu        sync.Mutex
	recs      []memRec // ascending by lsn
	end       LSN
	durable   LSN
	reclaimed LSN
	capacity  uint64 // 0 = unbounded

	// flushLatency is the simulated fsync time (nanoseconds).  The sleep
	// happens outside mu so that what serializes flushes is the caller's
	// locking, not the model: the Log layer's group commit coalesces
	// concurrent forces onto one Flush and therefore one sleep.
	flushLatency atomic.Int64
}

type memRec struct {
	lsn     LSN
	payload []byte
}

// NewMemStore returns an empty in-memory store.  capacity bounds the
// live log span in bytes; zero means unbounded.
func NewMemStore(capacity uint64) *MemStore {
	return &MemStore{end: firstLSN, durable: firstLSN, reclaimed: firstLSN, capacity: capacity}
}

// Append implements Store.
func (m *MemStore) Append(payload []byte) (LSN, error) {
	return m.AppendHeadroom(payload, 0)
}

// AppendHeadroom implements HeadroomAppender.
func (m *MemStore) AppendHeadroom(payload []byte, headroom uint64) (LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sz := uint64(len(payload)) + 8 // frame accounting
	if m.capacity != 0 && uint64(m.end)+sz+headroom-uint64(m.reclaimed) > m.capacity {
		return NilLSN, ErrLogFull
	}
	lsn := m.end
	m.recs = append(m.recs, memRec{lsn: lsn, payload: payload})
	m.end += LSN(sz)
	return lsn, nil
}

// SetFlushLatency makes every subsequent Flush take at least d of wall
// time, modeling the fsync cost of the disk this store stands in for.
func (m *MemStore) SetFlushLatency(d time.Duration) { m.flushLatency.Store(int64(d)) }

// Flush implements Store.
func (m *MemStore) Flush(upTo LSN) error {
	if d := m.flushLatency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if upTo >= m.end {
		m.durable = m.end
		return nil
	}
	// Durability is frame-aligned: everything up to and including the
	// record containing upTo becomes durable.
	i := m.find(upTo)
	var horizon LSN
	if i < len(m.recs) {
		horizon = m.recs[i].lsn + LSN(len(m.recs[i].payload)) + 8
	} else {
		horizon = m.end
	}
	if horizon > m.durable {
		m.durable = horizon
	}
	return nil
}

// Durable implements Store.
func (m *MemStore) Durable() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable
}

// End implements Store.
func (m *MemStore) End() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.end
}

// find returns the index of the record whose frame contains lsn, or
// len(recs) when lsn is at or beyond the end.
func (m *MemStore) find(lsn LSN) int {
	return sort.Search(len(m.recs), func(i int) bool {
		return m.recs[i].lsn+LSN(len(m.recs[i].payload))+8 > lsn
	})
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(lsn LSN) ([]byte, LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn < m.reclaimed {
		return nil, NilLSN, ErrReclaimed
	}
	if lsn >= m.end {
		return nil, NilLSN, ErrOutOfRange
	}
	i := m.find(lsn)
	if i >= len(m.recs) || m.recs[i].lsn != lsn {
		return nil, NilLSN, ErrOutOfRange
	}
	r := m.recs[i]
	out := make([]byte, len(r.payload))
	copy(out, r.payload)
	return out, r.lsn + LSN(len(r.payload)) + 8, nil
}

// Reclaim implements Store.
func (m *MemStore) Reclaim(upTo LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if upTo <= m.reclaimed {
		return nil
	}
	if upTo > m.durable {
		upTo = m.durable
	}
	i := m.find(upTo)
	// Only whole records strictly below upTo are dropped.
	j := 0
	for j < i && m.recs[j].lsn+LSN(len(m.recs[j].payload))+8 <= upTo {
		j++
	}
	if j == 0 {
		return nil
	}
	// Compact in place; clearing the vacated tail lets the reclaimed
	// payloads be collected.
	n := copy(m.recs, m.recs[j:])
	clear(m.recs[n:])
	m.recs = m.recs[:n]
	if n > 0 {
		m.reclaimed = m.recs[0].lsn
	} else {
		m.reclaimed = m.end
	}
	return nil
}

// Horizon implements Store.
func (m *MemStore) Horizon() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reclaimed
}

// Crash simulates a machine crash: records beyond the durable horizon
// are lost; everything else (the "disk") survives.
func (m *MemStore) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.recs), func(i int) bool { return m.recs[i].lsn >= m.durable })
	m.recs = m.recs[:i]
	m.end = m.durable
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// LiveBytes returns the bytes currently occupied between the reclaim
// horizon and the end of the log; the §3.6 log-space manager watches
// this against the capacity.
func (m *MemStore) LiveBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(m.end - m.reclaimed)
}

// Capacity returns the configured capacity (0 = unbounded).
func (m *MemStore) Capacity() uint64 { return m.capacity }
