package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// op names one traced call.  Every op belongs to one layer.
type op uint8

const (
	opBegin op = iota
	opRead
	opWrite
	opCommit
	opAbort
	opLock
	opLockBatch
	opUnlock
	opFetch
	opFetchBatch
	opShip
	opForce
	opRPCOther
	opCallback
	opDeesc
	opNotify
	opCallbackOther
	opClientAppend
	opClientFlush
	opClientLogOther
	opServerAppend
	opServerFlush
	opServerLogOther
	opStoreRead
	opStoreWrite
	opStoreOther
	numOps
)

var opNames = [numOps]string{
	"core.begin", "core.read", "core.write", "core.commit", "core.abort",
	"msg.lock", "msg.lock_batch", "msg.unlock", "msg.fetch", "msg.fetch_batch",
	"msg.ship", "msg.force", "msg.other",
	"lock.callback", "lock.deescalate", "msg.notify", "lock.callback_other",
	"wal.client_append", "wal.client_flush", "wal.client_other",
	"wal.server_append", "wal.server_flush", "wal.server_other",
	"storage.read", "storage.write", "storage.other",
}

// layer groups ops for self-time accounting.
type layer uint8

const (
	layerCore      layer = iota // the driver's Begin/Read/Overwrite/Commit/Abort
	layerMsg                    // client→server RPCs (in-process: includes the server engine)
	layerCallback               // server→client calls
	layerClientLog              // each client's private log device
	layerServerLog              // the server's log device
	layerStorage                // the server's page store
	numLayers
)

func (o op) layer() layer {
	switch {
	case o <= opAbort:
		return layerCore
	case o <= opRPCOther:
		return layerMsg
	case o <= opCallbackOther:
		return layerCallback
	case o <= opClientLogOther:
		return layerClientLog
	case o <= opServerLogOther:
		return layerServerLog
	default:
		return layerStorage
	}
}

// span is one traced call.  parent indexes the span that caused it (-1
// for none: driver calls and calls into the shared server stores); txn
// is the attempt number of the causing driver's transaction.
type span struct {
	start  int64 // ns since the tracer's epoch
	dur    uint32
	parent int32
	txn    uint32
	op     op
	drv    int8
}

// maxDrivers bounds the per-driver state the tracer keeps.
const maxDrivers = 8

// driverState tells wrappers which of a driver's spans is open, so a
// call on that driver's conn or log can name its parent.  Padded to a
// cache line so two drivers do not share one.
type driverState struct {
	openCore atomic.Int32
	openMsg  atomic.Int32
	txn      atomic.Uint32
	_        [52]byte
}

// tracer records spans into a preallocated buffer and counts every call
// at the layer boundaries the program exposes for substitution.  It
// records only between start and stop (the timed phase).
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64

	calls      [numOps]atomic.Uint64
	lockItems  atomic.Uint64 // Lock calls plus LockBatch items
	fetchPages atomic.Uint64 // Fetch calls plus FetchBatch pages
	clientLogB atomic.Uint64 // framed bytes appended to client logs
	serverLogB atomic.Uint64 // framed bytes appended to the server log

	drv [maxDrivers]driverState
	ids map[ident.ClientID]int // written during set-up only
}

// spanCapacity bounds the span buffer (24 B a span).
const spanCapacity = 1 << 22

func newTracer(capacity int) *tracer {
	t := &tracer{buf: make([]span, capacity), ids: make(map[ident.ClientID]int)}
	for i := range t.drv {
		t.drv[i].openCore.Store(-1)
		t.drv[i].openMsg.Store(-1)
	}
	return t
}

// bind records which driver owns a client id.  Call before the timed
// phase starts.
func (t *tracer) bind(id ident.ClientID, driver int) { t.ids[id] = driver }

func (t *tracer) driverOf(id ident.ClientID) int {
	if d, ok := t.ids[id]; ok {
		return d
	}
	return -1
}

func (t *tracer) start() {
	t.epoch = time.Now()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// tok is an open span: its buffer index (-1 when not recorded), its
// start time, and whether the call was counted (tracer on).
type tok struct {
	i  int32
	t0 int64
	on bool
}

var noTok = tok{i: -1}

// begin counts a call and, while the buffer has room, opens its span.
func (t *tracer) begin(o op, drv int, parent int32, txn uint32) tok {
	if !t.on.Load() {
		return noTok
	}
	t.calls[o].Add(1)
	now := int64(time.Since(t.epoch))
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return tok{i: -1, t0: now, on: true}
	}
	t.buf[i] = span{start: now, parent: parent, txn: txn, op: o, drv: int8(drv)}
	return tok{i: int32(i), t0: now, on: true}
}

func (t *tracer) end(k tok) {
	if k.i >= 0 {
		t.buf[k.i].dur = uint32(int64(time.Since(t.epoch)) - k.t0)
	}
}

// coreBegin opens a driver call; wrappers see it as the parent of the
// driver's conn and log calls until coreEnd.
func (t *tracer) coreBegin(d int, o op) tok {
	s := &t.drv[d]
	k := t.begin(o, d, -1, s.txn.Load())
	s.openCore.Store(k.i)
	return k
}

func (t *tracer) coreEnd(d int, k tok) {
	t.end(k)
	t.drv[d].openCore.Store(-1)
}

// setTxn names the driver's current transaction attempt.
func (t *tracer) setTxn(d int, seq uint32) { t.drv[d].txn.Store(seq) }

// rpc is an open client→server call: its span and the driver's
// previously open RPC span.
type rpc struct {
	k    tok
	prev int32
}

func (t *tracer) rpcBegin(d int, o op) rpc {
	s := &t.drv[d]
	k := t.begin(o, d, s.openCore.Load(), s.txn.Load())
	return rpc{k: k, prev: s.openMsg.Swap(k.i)}
}

func (t *tracer) rpcEnd(d int, r rpc) {
	t.end(r.k)
	t.drv[d].openMsg.Store(r.prev)
}

// callbackBegin opens a server→client call caused by requester's open
// RPC.
func (t *tracer) callbackBegin(o op, requester ident.ClientID) tok {
	rd := t.driverOf(requester)
	if rd < 0 {
		return t.begin(o, -1, -1, 0)
	}
	s := &t.drv[rd]
	return t.begin(o, rd, s.openMsg.Load(), s.txn.Load())
}

// layerReport is what the traced phase derives from the span buffer.
type layerReport struct {
	durs     [numOps][]uint32
	selfNs   [numLayers]int64
	commits  int // core.commit spans recorded
	recorded int
	dropped  int64
}

// analyze sorts each op's durations and computes every layer's self
// time: its span time minus the part covered by its child spans.  A
// child is clipped to its parent's interval; the children of one span
// are one driver's sequential calls, so they are summed without an
// overlap check.
func (t *tracer) analyze() layerReport {
	n := int(t.n.Load())
	if n > len(t.buf) {
		n = len(t.buf)
	}
	spans := t.buf[:n]
	var r layerReport
	r.recorded, r.dropped = n, t.dropped.Load()
	for _, s := range spans {
		r.durs[s.op] = append(r.durs[s.op], s.dur)
		r.selfNs[s.op.layer()] += int64(s.dur)
		if s.op == opCommit {
			r.commits++
		}
		if s.parent < 0 || int(s.parent) >= n {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.start+int64(s.dur), p.start+int64(p.dur))
		if hi > lo {
			r.selfNs[p.op.layer()] -= hi - lo
		}
	}
	for o := range r.durs {
		d := r.durs[o]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return r
}

// writeSpans dumps the recorded spans: a text header naming the ops,
// then one 24-byte little-endian record per span (start ns int64, dur
// ns uint32, parent int32, txn uint32, op uint8, driver int8, 2 pad).
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := min(int(t.n.Load()), len(t.buf))
	fmt.Fprintf(w, "perfbench spans v1 count=%d ops=", n)
	for o, name := range opNames {
		if o > 0 {
			w.WriteByte(',')
		}
		w.WriteString(name)
	}
	w.WriteByte('\n')
	var rec [24]byte
	for _, s := range t.buf[:n] {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint32(rec[8:], s.dur)
		binary.LittleEndian.PutUint32(rec[12:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[16:], s.txn)
		rec[20], rec[21] = byte(s.op), byte(s.drv)
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverConn wraps one client's view of the server.
type serverConn struct {
	t     *tracer
	d     int
	inner msg.Server
}

func (w *serverConn) Register(r msg.RegisterReq) (msg.RegisterReply, error) {
	c := w.t.rpcBegin(w.d, opRPCOther)
	rep, err := w.inner.Register(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) Lock(r msg.LockReq) (msg.LockReply, error) {
	c := w.t.rpcBegin(w.d, opLock)
	if c.k.on {
		w.t.lockItems.Add(1)
	}
	rep, err := w.inner.Lock(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) LockBatch(r msg.LockBatchReq) (msg.LockBatchReply, error) {
	c := w.t.rpcBegin(w.d, opLockBatch)
	if c.k.on {
		w.t.lockItems.Add(uint64(len(r.Items)))
	}
	rep, err := w.inner.LockBatch(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) Unlock(r msg.UnlockReq) error {
	c := w.t.rpcBegin(w.d, opUnlock)
	err := w.inner.Unlock(r)
	w.t.rpcEnd(w.d, c)
	return err
}

func (w *serverConn) Fetch(r msg.FetchReq) (msg.FetchReply, error) {
	c := w.t.rpcBegin(w.d, opFetch)
	if c.k.on {
		w.t.fetchPages.Add(1)
	}
	rep, err := w.inner.Fetch(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) FetchBatch(r msg.FetchBatchReq) (msg.FetchBatchReply, error) {
	c := w.t.rpcBegin(w.d, opFetchBatch)
	if c.k.on {
		w.t.fetchPages.Add(uint64(len(r.Pages)))
	}
	rep, err := w.inner.FetchBatch(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) Ship(r msg.ShipReq) error {
	c := w.t.rpcBegin(w.d, opShip)
	err := w.inner.Ship(r)
	w.t.rpcEnd(w.d, c)
	return err
}

func (w *serverConn) Force(r msg.ForceReq) (msg.ForceReply, error) {
	c := w.t.rpcBegin(w.d, opForce)
	rep, err := w.inner.Force(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) Alloc(r msg.AllocReq) (msg.FetchReply, error) {
	c := w.t.rpcBegin(w.d, opRPCOther)
	rep, err := w.inner.Alloc(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) Free(r msg.FreeReq) error {
	c := w.t.rpcBegin(w.d, opRPCOther)
	err := w.inner.Free(r)
	w.t.rpcEnd(w.d, c)
	return err
}

func (w *serverConn) CommitShip(r msg.CommitShipReq) error {
	c := w.t.rpcBegin(w.d, opRPCOther)
	err := w.inner.CommitShip(r)
	w.t.rpcEnd(w.d, c)
	return err
}

func (w *serverConn) Token(r msg.TokenReq) (msg.TokenReply, error) {
	c := w.t.rpcBegin(w.d, opRPCOther)
	rep, err := w.inner.Token(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) RecoveryFetch(r msg.RecoveryFetchReq) (msg.FetchReply, error) {
	c := w.t.rpcBegin(w.d, opRPCOther)
	rep, err := w.inner.RecoveryFetch(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) Reinstall(id ident.ClientID, holds []lock.Holding) error {
	c := w.t.rpcBegin(w.d, opRPCOther)
	err := w.inner.Reinstall(id, holds)
	w.t.rpcEnd(w.d, c)
	return err
}

func (w *serverConn) RecoverQuery(id ident.ClientID, pages []page.ID) ([]msg.DCTRow, error) {
	c := w.t.rpcBegin(w.d, opRPCOther)
	rows, err := w.inner.RecoverQuery(id, pages)
	w.t.rpcEnd(w.d, c)
	return rows, err
}

func (w *serverConn) LogOp(r msg.LogReq) (msg.LogReply, error) {
	c := w.t.rpcBegin(w.d, opRPCOther)
	rep, err := w.inner.LogOp(r)
	w.t.rpcEnd(w.d, c)
	return rep, err
}

func (w *serverConn) RecoverEnd(id ident.ClientID) error {
	c := w.t.rpcBegin(w.d, opRPCOther)
	err := w.inner.RecoverEnd(id)
	w.t.rpcEnd(w.d, c)
	return err
}

func (w *serverConn) Disconnect(id ident.ClientID) error {
	c := w.t.rpcBegin(w.d, opRPCOther)
	err := w.inner.Disconnect(id)
	w.t.rpcEnd(w.d, c)
	return err
}

// clientConn wraps the server's view of one client.  Callback spans
// are attributed to the requester's open RPC.
type clientConn struct {
	t     *tracer
	inner msg.Client
}

func (w *clientConn) CallbackObject(r msg.CallbackReq) (msg.CallbackReply, error) {
	k := w.t.callbackBegin(opCallback, r.Requester)
	rep, err := w.inner.CallbackObject(r)
	w.t.end(k)
	return rep, err
}

func (w *clientConn) DeescalatePage(r msg.DeescReq) (msg.DeescReply, error) {
	k := w.t.callbackBegin(opDeesc, r.Requester)
	rep, err := w.inner.DeescalatePage(r)
	w.t.end(k)
	return rep, err
}

func (w *clientConn) RecallToken(p page.ID) (msg.TokenReply, error) {
	k := w.t.begin(opCallbackOther, -1, -1, 0)
	rep, err := w.inner.RecallToken(p)
	w.t.end(k)
	return rep, err
}

func (w *clientConn) RecoveryShipUpTo(p page.ID, psn page.PSN) error {
	k := w.t.begin(opCallbackOther, -1, -1, 0)
	err := w.inner.RecoveryShipUpTo(p, psn)
	w.t.end(k)
	return err
}

func (w *clientConn) NotifyFlushed(p page.ID, psn page.PSN) {
	k := w.t.begin(opNotify, -1, -1, 0)
	w.inner.NotifyFlushed(p, psn)
	w.t.end(k)
}

func (w *clientConn) RecoveryInfo() (msg.RecoveryInfoReply, error) {
	k := w.t.begin(opCallbackOther, -1, -1, 0)
	rep, err := w.inner.RecoveryInfo()
	w.t.end(k)
	return rep, err
}

func (w *clientConn) FetchCached(ids []page.ID) ([][]byte, error) {
	k := w.t.begin(opCallbackOther, -1, -1, 0)
	imgs, err := w.inner.FetchCached(ids)
	w.t.end(k)
	return imgs, err
}

func (w *clientConn) CallbackList(r msg.CallbackListReq) (msg.CallbackListReply, error) {
	k := w.t.begin(opCallbackOther, -1, -1, 0)
	rep, err := w.inner.CallbackList(r)
	w.t.end(k)
	return rep, err
}

func (w *clientConn) RecoverPage(r msg.RecoverPageReq) error {
	k := w.t.begin(opCallbackOther, -1, -1, 0)
	err := w.inner.RecoverPage(r)
	w.t.end(k)
	return err
}

// logStore wraps a log device: a client's private log (d >= 0, calls
// parented by the driver's open call) or the server's log (d < 0).  It
// forwards wal.HeadroomAppender, which wal.Log type-asserts for the
// client's undo reservation.
type logStore struct {
	t     *tracer
	d     int
	inner wal.Store
}

func (w *logStore) ops() (appendOp, flushOp, otherOp op, bytes *atomic.Uint64) {
	if w.d < 0 {
		return opServerAppend, opServerFlush, opServerLogOther, &w.t.serverLogB
	}
	return opClientAppend, opClientFlush, opClientLogOther, &w.t.clientLogB
}

func (w *logStore) begin(o op) tok {
	if w.d < 0 {
		return w.t.begin(o, -1, -1, 0)
	}
	s := &w.t.drv[w.d]
	return w.t.begin(o, w.d, s.openCore.Load(), s.txn.Load())
}

func (w *logStore) Append(payload []byte) (wal.LSN, error) {
	return w.AppendHeadroom(payload, 0)
}

func (w *logStore) AppendHeadroom(payload []byte, headroom uint64) (wal.LSN, error) {
	appendOp, _, _, bytes := w.ops()
	k := w.begin(appendOp)
	var lsn wal.LSN
	var err error
	if ha, ok := w.inner.(wal.HeadroomAppender); ok {
		lsn, err = ha.AppendHeadroom(payload, headroom)
	} else {
		lsn, err = w.inner.Append(payload)
	}
	w.t.end(k)
	if err == nil && k.on {
		bytes.Add(uint64(len(payload)) + 8) // framed, as wal.Log counts it
	}
	return lsn, err
}

func (w *logStore) Flush(upTo wal.LSN) error {
	_, flushOp, _, _ := w.ops()
	k := w.begin(flushOp)
	err := w.inner.Flush(upTo)
	w.t.end(k)
	return err
}

func (w *logStore) ReadAt(lsn wal.LSN) ([]byte, wal.LSN, error) {
	_, _, otherOp, _ := w.ops()
	k := w.begin(otherOp)
	p, next, err := w.inner.ReadAt(lsn)
	w.t.end(k)
	return p, next, err
}

func (w *logStore) Reclaim(upTo wal.LSN) error {
	_, _, otherOp, _ := w.ops()
	k := w.begin(otherOp)
	err := w.inner.Reclaim(upTo)
	w.t.end(k)
	return err
}

// Durable, End and Horizon are bookkeeping reads the log makes around
// every force; they pass through untraced.
func (w *logStore) Durable() wal.LSN { return w.inner.Durable() }
func (w *logStore) End() wal.LSN     { return w.inner.End() }
func (w *logStore) Horizon() wal.LSN { return w.inner.Horizon() }
func (w *logStore) Close() error     { return w.inner.Close() }

// pageStore wraps the server's stable storage.  It forwards
// SetAllocStride, which core.Cluster type-asserts for fleets.
type pageStore struct {
	t     *tracer
	inner storage.Store
}

func (w *pageStore) Allocate() (*page.Page, error) {
	k := w.t.begin(opStoreOther, -1, -1, 0)
	p, err := w.inner.Allocate()
	w.t.end(k)
	return p, err
}

func (w *pageStore) Free(id page.ID) error {
	k := w.t.begin(opStoreOther, -1, -1, 0)
	err := w.inner.Free(id)
	w.t.end(k)
	return err
}

func (w *pageStore) Read(id page.ID) (*page.Page, error) {
	k := w.t.begin(opStoreRead, -1, -1, 0)
	p, err := w.inner.Read(id)
	w.t.end(k)
	return p, err
}

func (w *pageStore) Write(p *page.Page) error {
	k := w.t.begin(opStoreWrite, -1, -1, 0)
	err := w.inner.Write(p)
	w.t.end(k)
	return err
}

func (w *pageStore) Allocated() []page.ID { return w.inner.Allocated() }
func (w *pageStore) PageSize() int        { return w.inner.PageSize() }
func (w *pageStore) Stats() storage.Stats { return w.inner.Stats() }
func (w *pageStore) Close() error         { return w.inner.Close() }
func (w *pageStore) SetAllocStride(n, i int) {
	if s, ok := w.inner.(interface{ SetAllocStride(int, int) }); ok {
		s.SetAllocStride(n, i)
	}
}
