package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/lock"
	"clientlog/internal/page"
	"clientlog/internal/sim"
)

// Retry backoff after a deadlock or lock timeout: uniform in [b/2, b).
// b starts at the driver's typical attempt duration (at least
// backoffBase), so a victim retries about when the winner is done, and
// doubles up to backoffCap within one transaction.
const (
	backoffBase = 100 * time.Microsecond
	backoffCap  = 12800 * time.Microsecond
)

// txOp is one generated operation of a transaction.
type txOp struct {
	obj   page.ObjectID
	write bool
}

// driverStats covers one phase of a driver's closed loop.
type driverStats struct {
	txns     uint64 // logical transactions started
	commits  uint64
	failed   uint64 // logical transactions ended by a non-retryable error
	attempts uint64
	aborts   uint64 // attempts aborted by deadlock or lock timeout
	dataOps  uint64 // Read and Overwrite calls
	backoff  time.Duration
	// lat[w] holds the latencies (first Begin to successful Commit) of
	// the transactions that committed in window w of the phase; the
	// last entry takes those committed after the final window.
	lat   []hist
	start time.Time
	width time.Duration
}

// driver runs one client's closed loop and keeps the model of what its
// committed transactions wrote.
type driver struct {
	idx  int
	c    *core.Client
	gen  *sim.Gen
	rng  *rand.Rand // backoff jitter
	tr   *tracer
	seed uint64
	objs int // objects per page
	base page.ID

	ops []txOp
	val []byte
	seq uint32 // last attempt number; every attempt writes values tagged with its own

	// The model: last[i] is the attempt that last committed a write to
	// object i (0 = never), committed the set of committed attempts.
	last      []uint32
	committed []uint64

	st      driverStats
	done    atomic.Uint64 // commits, read by the window sampler
	typical time.Duration // moving average of committed attempt durations
}

func newDrivers(s spec, sys *system, seed int64, tr *tracer) []*driver {
	ds := make([]*driver, len(sys.clients))
	for i, c := range sys.clients {
		ds[i] = &driver{
			idx:  i,
			c:    c,
			gen:  sim.NewGen(s.w, i, len(sys.clients), sys.ids, seed),
			rng:  rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
			tr:   tr,
			seed: uint64(seed),
			objs: s.w.ObjsPerPage,
			base: sys.ids[0],
			val:  make([]byte, s.w.ObjSize),
			last: make([]uint32, len(sys.ids)*s.w.ObjsPerPage),
		}
	}
	return ds
}

// runAll runs every driver's loop concurrently and waits for them.
func runAll(ds []*driver, loop func(*driver)) {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(d)
		}()
	}
	wg.Wait()
}

// runN runs n logical transactions.
func (d *driver) runN(n int) {
	for i := 0; i < n; i++ {
		d.txn()
	}
}

// runFor starts logical transactions until the deadline and finishes
// the one in flight.
func (d *driver) runFor(deadline time.Time) {
	for time.Now().Before(deadline) {
		d.txn()
	}
}

// resetStats starts a new phase of windows of the given width.
func (d *driver) resetStats(start time.Time, windows int, width time.Duration) {
	d.st = driverStats{lat: make([]hist, windows+1), start: start, width: width}
	d.done.Store(0)
}

// txn runs one logical transaction: it retries deadlock and timeout
// victims with the same operations after a jittered backoff.
func (d *driver) txn() {
	d.st.txns++
	n := d.gen.Ops()
	d.ops = d.ops[:0]
	for i := 0; i < n; i++ {
		obj, write := d.gen.Next()
		d.ops = append(d.ops, txOp{obj: obj, write: write})
	}
	start := time.Now()
	b := min(max(backoffBase, d.typical), backoffCap)
	for {
		t0 := time.Now()
		err := d.attempt()
		if err == nil {
			d.typical += (time.Since(t0) - d.typical) / 16
			d.st.commits++
			d.done.Add(1)
			now := time.Now()
			w := min(int(now.Sub(d.st.start)/d.st.width), len(d.st.lat)-1)
			d.st.lat[w].add(int64(now.Sub(start)))
			return
		}
		if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, lock.ErrTimeout) {
			d.st.failed++
			if d.st.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: driver %d: transaction failed: %v\n", d.idx, err)
			}
			return
		}
		d.st.aborts++
		sleep := b/2 + time.Duration(d.rng.Int63n(int64(b/2)))
		t0 = time.Now()
		time.Sleep(sleep)
		d.st.backoff += time.Since(t0)
		b = min(2*b, backoffCap)
	}
}

// attempt runs the transaction's operations once and commits.
func (d *driver) attempt() error {
	d.st.attempts++
	d.seq++
	seq := d.seq
	if d.tr != nil {
		d.tr.setTxn(d.idx, seq)
	}
	txn, err := d.begin()
	if err != nil {
		return err
	}
	for _, o := range d.ops {
		d.st.dataOps++
		if o.write {
			err = d.overwrite(txn, o.obj, d.value(o.obj, seq))
		} else {
			err = d.read(txn, o.obj)
		}
		if err != nil {
			return d.abort(txn, err)
		}
	}
	if err := d.commit(txn); err != nil {
		return d.abort(txn, err)
	}
	for _, o := range d.ops {
		if o.write {
			d.last[d.index(o.obj)] = seq
		}
	}
	d.markCommitted(seq)
	return nil
}

// abort rolls txn back after cause; a failed rollback is reported as a
// non-retryable error.
func (d *driver) abort(txn *core.Txn, cause error) error {
	var err error
	if d.tr != nil {
		k := d.tr.coreBegin(d.idx, opAbort)
		err = txn.Abort()
		d.tr.coreEnd(d.idx, k)
	} else {
		err = txn.Abort()
	}
	if err != nil {
		return fmt.Errorf("abort after %v: %v", cause, err)
	}
	return cause
}

func (d *driver) begin() (*core.Txn, error) {
	if d.tr == nil {
		return d.c.Begin()
	}
	k := d.tr.coreBegin(d.idx, opBegin)
	txn, err := d.c.Begin()
	d.tr.coreEnd(d.idx, k)
	return txn, err
}

func (d *driver) read(txn *core.Txn, obj page.ObjectID) error {
	if d.tr == nil {
		_, err := txn.Read(obj)
		return err
	}
	k := d.tr.coreBegin(d.idx, opRead)
	_, err := txn.Read(obj)
	d.tr.coreEnd(d.idx, k)
	return err
}

func (d *driver) overwrite(txn *core.Txn, obj page.ObjectID, v []byte) error {
	if d.tr == nil {
		return txn.Overwrite(obj, v)
	}
	k := d.tr.coreBegin(d.idx, opWrite)
	err := txn.Overwrite(obj, v)
	d.tr.coreEnd(d.idx, k)
	return err
}

func (d *driver) commit(txn *core.Txn) error {
	if d.tr == nil {
		return txn.Commit()
	}
	k := d.tr.coreBegin(d.idx, opCommit)
	err := txn.Commit()
	d.tr.coreEnd(d.idx, k)
	return err
}

func (d *driver) index(obj page.ObjectID) int {
	return int(obj.Page-d.base)*d.objs + int(obj.Slot)
}

func (d *driver) markCommitted(seq uint32) {
	w := int(seq / 64)
	for len(d.committed) <= w {
		d.committed = append(d.committed, 0)
	}
	d.committed[w] |= 1 << (seq % 64)
}

func (d *driver) isCommitted(seq uint32) bool {
	w := int(seq / 64)
	return w < len(d.committed) && d.committed[w]&(1<<(seq%64)) != 0
}

// valueMark tags bytes the benchmark wrote; seeded objects are zero.
const valueMark = 0xB7

// value is the object's content for a write by attempt seq: the
// object id, the driver, the attempt and a pad derived from the seed,
// so the final-state check can tell who wrote a value and whether that
// attempt committed.  The buffer is reused; the engine copies it.
func (d *driver) value(obj page.ObjectID, seq uint32) []byte {
	v := d.val
	encodeValue(v, d.seed, obj, d.idx, seq)
	return v
}

func encodeValue(v []byte, seed uint64, obj page.ObjectID, drv int, seq uint32) {
	binary.LittleEndian.PutUint64(v[0:], uint64(obj.Page))
	binary.LittleEndian.PutUint16(v[8:], obj.Slot)
	v[10] = byte(drv)
	v[11] = valueMark
	binary.LittleEndian.PutUint32(v[12:], seq)
	x := seed ^ uint64(obj.Page)<<24 ^ uint64(obj.Slot)<<8 ^ uint64(drv) ^ uint64(seq)<<40
	for i := 16; i < len(v); i += 8 {
		x = splitmix(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[i:], w[:])
	}
}

// decodeValue reverses encodeValue; ok is false for bytes encodeValue
// could not have produced.
func decodeValue(v []byte, seed uint64) (obj page.ObjectID, drv int, seq uint32, ok bool) {
	if len(v) < 16 || v[11] != valueMark {
		return obj, 0, 0, false
	}
	obj = page.ObjectID{Page: page.ID(binary.LittleEndian.Uint64(v[0:])), Slot: binary.LittleEndian.Uint16(v[8:])}
	drv, seq = int(v[10]), binary.LittleEndian.Uint32(v[12:])
	want := make([]byte, len(v))
	encodeValue(want, seed, obj, drv, seq)
	return obj, drv, seq, string(want) == string(v)
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
