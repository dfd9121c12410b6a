package core

import (
	"errors"
	"fmt"
	"sync"

	"clientlog/internal/buffer"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// ErrCrashed reports an operation on a crashed client engine.
var ErrCrashed = errors.New("core: client crashed")

// ErrNoLogSpace reports that the §3.6 log space manager could not free
// enough private log space to continue.
var ErrNoLogSpace = errors.New("core: private log full and nothing reclaimable")

// ClientMetrics counts client-side events for the experiments.
type ClientMetrics struct {
	Commits         obs.Counter
	Aborts          obs.Counter
	PagesFetched    obs.Counter
	PagesShipped    obs.Counter
	CallbackRecords obs.Counter // callback log records written (§3.1)
	ForceRequests   obs.Counter // §3.6 force-page requests sent
	LogFullEvents   obs.Counter // times the private log filled
	Checkpoints     obs.Counter
	ClientMerges    obs.Counter // client-side page merges (§2)
	LogReclaims     obs.Counter // §3.6 freeLogSpace attempts
	LogReclaimFails obs.Counter // attempts that freed nothing (ErrNoLogSpace)
	ForcedShips     obs.Counter // dirty pages shipped by the §3.6 replace-and-force path

	// CommitNanos is the end-to-end Commit latency distribution.
	CommitNanos obs.Histogram
}

// dptEntry is one dirty page table row (§3.2) plus the §3.6 log-space
// bookkeeping: the end-of-log LSN remembered when the page was last
// shipped, and whether it was re-dirtied since.
type dptEntry struct {
	redoLSN        wal.LSN
	rememberedEnd  wal.LSN
	lastShipPSN    page.PSN // PSN of the copy last sent to the server
	dirtySinceShip bool
}

// txnState tracks one active transaction.
type txnState struct {
	id       ident.TxnID
	firstLSN wal.LSN
	lastLSN  wal.LSN
	// buffered holds encoded log records for the ship-at-commit
	// baselines; dirtyPages the pages to ship in LogShipPages mode, in
	// first-update order (kept only in that mode).
	buffered   [][]byte
	dirtyPages []page.ID
	// tr is the transaction's causal span recorder (nil when tracing
	// is off; every method on it tolerates nil).
	tr *span.TxnTrace
	// undoNeed is the transaction's undo reservation on a bounded log:
	// the bytes its CLRs plus an abort record could still require.
	// Forward appends must leave this much capacity free (summed over
	// all active transactions) so rollback can always log.
	undoNeed uint64
}

// noteDirtyPage adds pid to the pages to ship at commit.
func (st *txnState) noteDirtyPage(pid page.ID) {
	for _, p := range st.dirtyPages {
		if p == pid {
			return
		}
	}
	st.dirtyPages = append(st.dirtyPages, pid)
}

// Undo reservation sizing: a CLR compensating an update is at most the
// update's encoded size plus the UndoNext field and framing (clrSlack
// over-approximates that), and abortRecCost over-approximates a framed
// Abort record.
const (
	clrSlack     = 32
	abortRecCost = 64
)

// undoReserveLocked sums the undo reservations of every active
// transaction except skip (pass the transaction whose own rollback the
// append being sized belongs to, or nil).  Called with c.mu held.
func (c *Client) undoReserveLocked(skip *txnState) uint64 {
	var sum uint64
	for _, t := range c.txns {
		if t == skip {
			continue
		}
		sum += t.undoNeed
	}
	return sum
}

// Client is a client engine: it runs transactions entirely locally with
// a private write-ahead log, a local cache, a local lock manager, its
// own dirty page table, independent fuzzy checkpoints, local rollback
// and local restart recovery.
type Client struct {
	id  ident.ClientID
	cfg Config
	srv msg.Server
	llm *lock.LLM
	log *wal.Log

	mu        sync.Mutex
	pool      *buffer.Pool
	dpt       map[page.ID]*dptEntry
	txns      map[ident.TxnID]*txnState
	nextSeq   uint32
	tokens    map[page.ID]bool
	lastCkpt  wal.LSN
	commitsCk int // commits since last checkpoint
	crashed   bool

	// rec holds state only used while participating in server restart
	// recovery (§3.4); see client_recovery.go.
	rec recoveryState

	Metrics ClientMetrics
}

// NewClient registers a fresh client with the server.  logStore is the
// client's private log device.
func NewClient(cfg Config, srv msg.Server, logStore wal.Store) (*Client, error) {
	reply, err := srv.Register(msg.RegisterReq{})
	if err != nil {
		return nil, err
	}
	return NewClientWithID(cfg, srv, logStore, reply.ID)
}

// NewClientWithID assembles a client engine for an already-registered
// id.  The diskless path uses it: the remote log device needs the
// registered id before the engine can be built.
func NewClientWithID(cfg Config, srv msg.Server, logStore wal.Store, id ident.ClientID) (*Client, error) {
	c := &Client{
		id:     id,
		cfg:    cfg,
		srv:    srv,
		llm:    lock.NewLLMSharded(cfg.LockTimeout, cfg.lockShards()),
		log:    wal.NewLog(logStore),
		pool:   buffer.New(cfg.ClientPool),
		dpt:    make(map[page.ID]*dptEntry),
		txns:   make(map[ident.TxnID]*txnState),
		tokens: make(map[page.ID]bool),
	}
	return c, nil
}

// RegisterObs binds the client's metrics — its protocol counters, the
// commit-latency histogram, its private log and its cache — into reg
// under scope=client:<id>.  Like Server.RegisterObs, rebinding after a
// restart keeps the registry series monotone.
func (c *Client) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sc := obs.T("scope", "client:"+c.id.String())
	reg.BindCounter(&c.Metrics.Commits, "client_commits_total", sc)
	reg.BindCounter(&c.Metrics.Aborts, "client_aborts_total", sc)
	reg.BindCounter(&c.Metrics.PagesFetched, "client_pages_fetched_total", sc)
	reg.BindCounter(&c.Metrics.PagesShipped, "client_pages_shipped_total", sc)
	reg.BindCounter(&c.Metrics.CallbackRecords, "client_callback_records_total", sc)
	reg.BindCounter(&c.Metrics.ForceRequests, "client_force_requests_total", sc)
	reg.BindCounter(&c.Metrics.LogFullEvents, "client_log_full_total", sc)
	reg.BindCounter(&c.Metrics.Checkpoints, "client_checkpoints_total", sc)
	reg.BindCounter(&c.Metrics.ClientMerges, "client_merges_total", sc)
	reg.BindCounter(&c.Metrics.LogReclaims, "client_log_reclaim_total", sc)
	reg.BindCounter(&c.Metrics.LogReclaimFails, "client_log_reclaim_fail_total", sc)
	reg.BindCounter(&c.Metrics.ForcedShips, "client_forced_ships_total", sc)
	reg.BindHistogram(&c.Metrics.CommitNanos, "client_commit_nanos", sc)
	c.log.RegisterObs(reg, sc)
	c.pool.RegisterObs(reg, sc)
}

// ID returns the server-assigned client id.
func (c *Client) ID() ident.ClientID { return c.id }

// Log exposes the private log (experiments read its counters).
func (c *Client) Log() *wal.Log { return c.log }

// LLM exposes the local lock manager (tests inspect it).
func (c *Client) LLM() *lock.LLM { return c.llm }

// checkAlive returns ErrCrashed once the engine crashed.
func (c *Client) checkAlive() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return nil
}

// acquire obtains name@mode for transaction t, consulting the cache
// first and the server's GLM on a miss.  It writes callback log records
// for the callback origins the grant reports (§3.1) and refreshes the
// cached copy of the page after a global grant (the lock alone does not
// make a stale cached copy current).
func (c *Client) acquire(t *txnState, name lock.Name, mode lock.Mode) error {
	if c.cfg.Granularity == GranPage && !name.IsPage {
		name = lock.PageName(name.Page)
	}
	for {
		res, err := c.llm.AcquireLocal(t.id, name, mode)
		if err != nil {
			return err
		}
		if res == lock.Granted {
			if mode == lock.X {
				c.noteExclusive(name.Page)
			}
			return nil
		}
		req := msg.LockReq{
			Client:     c.id,
			Name:       name,
			Mode:       mode,
			PreferPage: c.cfg.Granularity == GranAdaptive,
			Upgrade:    c.llm.CachesAny(name),
		}
		if mode == lock.X {
			c.mu.Lock()
			if p, ok := c.pool.Get(name.Page); ok {
				req.HasCached, req.CachedPSN = true, p.PSN()
			}
			c.mu.Unlock()
		}
		sp := t.tr.Start(span.CatLockWait, name.String())
		req.Trace = t.tr.Context(sp)
		reply, err := c.srv.Lock(req)
		t.tr.End(sp)
		if err != nil {
			return err
		}
		c.llm.InstallCached(reply.Name, reply.Mode)
		for _, o := range reply.Origins {
			c.mu.Lock()
			_, aerr := c.appendLocked(&wal.Callback{Object: o.Object, Responder: o.Responder, PSN: o.PSN}, c.undoReserveLocked(nil))
			c.mu.Unlock()
			if aerr != nil {
				return aerr
			}
			c.Metrics.CallbackRecords.Add(1)
		}
		// Coherence: a cached copy of the page may be stale for objects
		// this client held no lock on; merge in the server's copy.
		if c.pool.Contains(name.Page) {
			if err := c.refreshPage(t.tr, name.Page); err != nil {
				return err
			}
		}
	}
}

// noteExclusive inserts the DPT entry the first time the client obtains
// an exclusive lock touching the page (§3.2); the current end of the
// log is conservatively used as the RedoLSN.
func (c *Client) noteExclusive(pid page.ID) {
	c.mu.Lock()
	if _, ok := c.dpt[pid]; !ok {
		c.dpt[pid] = &dptEntry{redoLSN: c.log.End()}
	}
	c.mu.Unlock()
}

// refreshPage fetches the server's current copy and merges it into the
// cached one (§2 client merge procedure).
func (c *Client) refreshPage(tr *span.TxnTrace, pid page.ID) error {
	sp := tr.Start(span.CatFetch, "refresh")
	reply, err := c.srv.Fetch(msg.FetchReq{Client: c.id, Page: pid, Trace: tr.Context(sp)})
	tr.End(sp)
	if err != nil {
		return err
	}
	incoming := new(page.Page)
	if err := incoming.UnmarshalBinary(reply.Image); err != nil {
		return err
	}
	c.Metrics.PagesFetched.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.pool.Get(pid)
	if !ok {
		c.pool.Put(incoming, false)
		return nil
	}
	merged := page.Merge(cur, incoming)
	c.Metrics.ClientMerges.Add(1)
	c.pool.Put(merged, c.pool.IsDirty(pid))
	return nil
}

// withPage runs fn on the cached page under the client mutex, fetching
// the page from the server first if needed.  tr attributes the fetch
// to the calling transaction's trace (nil outside transactions).
func (c *Client) withPage(tr *span.TxnTrace, pid page.ID, fn func(p *page.Page) error) error {
	for {
		c.mu.Lock()
		if c.crashed {
			c.mu.Unlock()
			return ErrCrashed
		}
		if p, ok := c.pool.Get(pid); ok {
			err := fn(p)
			victims := c.collectVictimsLocked()
			c.mu.Unlock()
			c.shipVictims(victims)
			return err
		}
		c.mu.Unlock()
		if err := c.fetchPage(tr, pid); err != nil {
			return err
		}
	}
}

// fetchPage pulls a page from the server into the cache.
func (c *Client) fetchPage(tr *span.TxnTrace, pid page.ID) error {
	sp := tr.Start(span.CatFetch, "fetch")
	reply, err := c.srv.Fetch(msg.FetchReq{Client: c.id, Page: pid, Trace: tr.Context(sp)})
	tr.End(sp)
	if err != nil {
		return err
	}
	p := new(page.Page)
	if err := p.UnmarshalBinary(reply.Image); err != nil {
		return err
	}
	c.Metrics.PagesFetched.Add(1)
	c.mu.Lock()
	if !c.pool.Contains(pid) {
		c.pool.Put(p, false)
	}
	victims := c.collectVictimsLocked()
	c.mu.Unlock()
	c.shipVictims(victims)
	return nil
}

// shipment is a dirty page on its way to the server.
type shipment struct {
	image  []byte
	reason msg.ShipReason
}

// collectVictimsLocked evicts over-capacity pages, preparing dirty ones
// for shipment: WAL (force the log first), remember the current end of
// the log for the §3.6 RedoLSN advance, and clear the re-dirty flag.
// Called with c.mu held.
func (c *Client) collectVictimsLocked() []shipment {
	var out []shipment
	for c.pool.NeedsEviction() {
		victim, dirty, err := c.pool.EvictVictim()
		if err != nil {
			return out
		}
		if !dirty {
			continue
		}
		sh, err := c.prepareShipLocked(victim)
		if err != nil {
			continue // the page stays lost from cache; recovery covers it
		}
		out = append(out, shipment{image: sh, reason: msg.ShipReplace})
	}
	return out
}

// prepareShipLocked makes a dirty page ready to leave the client: the
// log is forced through its updates (WAL) and the DPT entry remembers
// the current end of the log (§3.6).  Called with c.mu held.
func (c *Client) prepareShipLocked(p *page.Page) ([]byte, error) {
	if err := c.log.ForceAll(); err != nil {
		return nil, err
	}
	img, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if e, ok := c.dpt[p.ID()]; ok {
		e.rememberedEnd = c.log.End()
		e.lastShipPSN = p.PSN()
		e.dirtySinceShip = false
	}
	return img, nil
}

func (c *Client) shipVictims(victims []shipment) {
	for _, v := range victims {
		if err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: v.reason, Image: v.image}); err == nil {
			c.Metrics.PagesShipped.Add(1)
		}
	}
}

// appendLocked appends a log record, running the §3.6 log space
// protocol on ErrLogFull.  headroom is the undo reservation the append
// must leave free (zero for records allowed to consume the reserve:
// CLRs and abort records spend the space reserved for them).  Called
// with c.mu held; may briefly release it while talking to the server.
func (c *Client) appendLocked(rec wal.Record, headroom uint64) (wal.LSN, error) {
	for attempt := 0; ; attempt++ {
		lsn, err := c.log.AppendWithHeadroom(rec, headroom)
		if err == nil {
			return lsn, nil
		}
		if !errors.Is(err, wal.ErrLogFull) || attempt > 64 {
			return wal.NilLSN, err
		}
		c.Metrics.LogFullEvents.Add(1)
		before := c.log.Horizon()
		c.mu.Unlock()
		ferr := c.freeLogSpace()
		c.mu.Lock()
		// Callback processing appends on this client concurrently with
		// the transaction, so two freeLogSpace calls can race: ours may
		// report no progress because the other one already reclaimed the
		// space it was after.  As long as the horizon moved while we were
		// out, the verdict is stale — retry the append.
		if ferr != nil && c.log.Horizon() <= before {
			return wal.NilLSN, ferr
		}
	}
}

// freeLogSpace implements §3.6: replace (ship) the page with the
// minimum RedoLSN from the cache, ask the server to force it, advance
// that entry's RedoLSN to the remembered end of the log, and reclaim
// the log prefix below the new minimum.
func (c *Client) freeLogSpace() error {
	c.Metrics.LogReclaims.Add(1)
	c.mu.Lock()
	// All progress verdicts below compare against the horizon as of
	// entry: a concurrent freeLogSpace (callback processing appends on
	// this client too) advancing it counts as progress for us as well.
	horizon0 := c.log.Horizon()
	dpt0 := len(c.dpt)
	var victim page.ID
	var min wal.LSN
	found := false
	for pid, e := range c.dpt {
		if !found || e.redoLSN < min {
			victim, min, found = pid, e.redoLSN, true
		}
	}
	if !found {
		// No dirty pages: the log is pinned by active transactions or
		// the checkpoint.  The prefix below the pin may still be
		// reclaimable — records of aborted transactions are never
		// covered by a commit force, and the store only reuses durable
		// space — so force up to the pin and retry the reclaim before
		// giving up.  A stale checkpoint (restart recovery leaves one
		// behind and nothing else renews it) is rewritten first so the
		// pin travels to the end of the log.
		c.refreshCheckpointLocked()
		target := c.minRedoLocked()
		c.mu.Unlock()
		if target > horizon0 {
			if err := c.log.Force(target); err != nil {
				return err
			}
		}
		c.mu.Lock()
		c.reclaimLocked()
		progress := c.log.Horizon() > horizon0
		c.mu.Unlock()
		if progress {
			return nil
		}
		c.Metrics.LogReclaimFails.Add(1)
		return ErrNoLogSpace
	}
	var ship []byte
	if p, ok := c.pool.Get(victim); ok && c.pool.IsDirty(victim) {
		img, err := c.prepareShipLocked(p)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		ship = img
		c.pool.Clean(victim)
	}
	c.mu.Unlock()

	if ship != nil {
		if err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: msg.ShipReplace, Image: ship}); err != nil {
			return err
		}
		c.Metrics.PagesShipped.Add(1)
		c.Metrics.ForcedShips.Add(1)
	}
	// Ask the server to force the page (§3.6: "asks the server to force
	// the page to disk", also when the page is not cached locally).
	freply, err := c.srv.Force(msg.ForceReq{Client: c.id, Page: victim})
	if err != nil {
		return err
	}
	c.Metrics.ForceRequests.Add(1)

	c.mu.Lock()
	// The Force reply acknowledges the flush; apply the same transition
	// the asynchronous flush notification would.
	c.applyFlushedLocked(victim, freply.PSN)
	c.refreshCheckpointLocked()
	target := c.minRedoLocked()
	c.mu.Unlock()
	// The reclaim below only reuses durable space; force through the
	// reclaim point first so records no one will ever read again
	// (aborted transactions especially) actually free their bytes.
	if target > c.log.Durable() {
		if err := c.log.Force(target); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.reclaimLocked()
	// Progress is anything that moves the protocol forward, not only an
	// immediate horizon advance: when several DPT entries tie at the
	// minimum RedoLSN, each round retires one of them and the horizon
	// only moves once the last tie is gone — that retirement must count,
	// or the append's retry loop gives up with work still to do.
	ve, vok := c.dpt[victim]
	progress := len(c.dpt) == 0 || len(c.dpt) < dpt0 || !vok || ve.redoLSN > min ||
		c.minRedoLocked() > min || c.log.Horizon() > horizon0
	c.mu.Unlock()
	if !progress {
		c.Metrics.LogReclaimFails.Add(1)
		return ErrNoLogSpace
	}
	return nil
}

// applyFlushedLocked advances the DPT after the server confirmed a
// force whose copy had the given PSN.  The acknowledgment only covers
// this client's latest ship when psn >= the PSN of that shipped copy
// (merging only raises PSNs); a late ack for an older force must
// change nothing, or updates living only in the server's volatile pool
// would lose their DPT entry — and with it their log records' reclaim
// protection and their place in §3.4 server recovery.  Called with
// c.mu held.
func (c *Client) applyFlushedLocked(pid page.ID, psn page.PSN) {
	e, ok := c.dpt[pid]
	if !ok {
		return
	}
	if psn < e.lastShipPSN {
		return // stale acknowledgment
	}
	if !e.dirtySinceShip {
		delete(c.dpt, pid)
		return
	}
	if e.rememberedEnd > e.redoLSN {
		e.redoLSN = e.rememberedEnd
	}
}

// minRedoLocked computes the lowest LSN the private log still needs:
// the minimum DPT RedoLSN, the first LSN of every active transaction
// (undo) and the last checkpoint (restart analysis).  Called with c.mu
// held.
func (c *Client) minRedoLocked() wal.LSN {
	min := c.log.End()
	for _, e := range c.dpt {
		if e.redoLSN < min {
			min = e.redoLSN
		}
	}
	for _, t := range c.txns {
		if t.firstLSN != wal.NilLSN && t.firstLSN < min {
			min = t.firstLSN
		}
	}
	if c.lastCkpt != wal.NilLSN && c.lastCkpt < min {
		min = c.lastCkpt
	}
	return min
}

// reclaimLocked releases reusable log space.  Called with c.mu held.
func (c *Client) reclaimLocked() {
	c.log.Reclaim(c.minRedoLocked())
}

// refreshCheckpointLocked rewrites the fuzzy checkpoint at the current
// end of the log when the old checkpoint record has become the reclaim
// pin: the checkpoint exists for restart analysis, so it can travel —
// rewriting it frees every log byte it was holding down (§3.6).
// Returns true if a new checkpoint record was written.  Called with
// c.mu held.
func (c *Client) refreshCheckpointLocked() bool {
	if c.lastCkpt == wal.NilLSN || c.minRedoLocked() != c.lastCkpt {
		return false
	}
	rec := &wal.Checkpoint{}
	for _, t := range c.txns {
		rec.Active = append(rec.Active, wal.TxnInfo{ID: t.id, FirstLSN: t.firstLSN, LastLSN: t.lastLSN})
	}
	for pid, e := range c.dpt {
		rec.DPT = append(rec.DPT, wal.DPTEntry{Page: pid, RedoLSN: e.redoLSN})
	}
	lsn, err := c.log.AppendWithHeadroom(rec, c.undoReserveLocked(nil))
	if err != nil {
		return false
	}
	c.lastCkpt = lsn
	c.commitsCk = 0
	c.Metrics.Checkpoints.Add(1)
	return true
}

// ensureToken acquires the page's update token (update-privilege
// baseline); the freshest copy of the page travels with it.
func (c *Client) ensureToken(tr *span.TxnTrace, pid page.ID) error {
	c.mu.Lock()
	owned := c.tokens[pid]
	c.mu.Unlock()
	if owned {
		return nil
	}
	sp := tr.Start(span.CatLockWait, "token")
	reply, err := c.srv.Token(msg.TokenReq{Client: c.id, Page: pid, Trace: tr.Context(sp)})
	tr.End(sp)
	if err != nil {
		return err
	}
	incoming := new(page.Page)
	if err := incoming.UnmarshalBinary(reply.Image); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.pool.Get(pid); ok {
		merged := page.Merge(cur, incoming)
		c.pool.Put(merged, c.pool.IsDirty(pid))
	} else {
		c.pool.Put(incoming, false)
	}
	c.tokens[pid] = true
	return nil
}

// ReplacePage deterministically exercises the steal path: the cached
// page is shipped to the server if dirty (honouring the WAL rule) and
// dropped from the cache, exactly as LRU replacement would.
func (c *Client) ReplacePage(pid page.ID) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.mu.Lock()
	p, ok := c.pool.Get(pid)
	if !ok {
		c.mu.Unlock()
		return nil
	}
	var img []byte
	if c.pool.IsDirty(pid) {
		var err error
		img, err = c.prepareShipLocked(p)
		if err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.pool.Drop(pid)
	c.mu.Unlock()
	if img != nil {
		if err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: msg.ShipReplace, Image: img}); err != nil {
			return err
		}
		c.Metrics.PagesShipped.Add(1)
	}
	return nil
}

// FreePage deallocates a page: cached locks and buffered state for it
// are dropped and the server frees it in stable storage.  The caller is
// responsible for not freeing pages other clients still use.
func (c *Client) FreePage(pid page.ID) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	// Ship our copy first so the server frees the page knowing its
	// latest PSN (the reincarnation seed must exceed it).
	c.mu.Lock()
	var img []byte
	if p, ok := c.pool.Get(pid); ok {
		if i, err := c.prepareShipLocked(p); err == nil {
			img = i
		}
	}
	c.pool.Drop(pid)
	delete(c.dpt, pid)
	delete(c.tokens, pid)
	c.mu.Unlock()
	if img != nil {
		if err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: msg.ShipCallback, Image: img}); err != nil {
			return err
		}
	}
	c.llm.DropCached(lock.PageName(pid))
	if err := c.srv.Free(msg.FreeReq{Client: c.id, Page: pid}); err != nil {
		return err
	}
	return c.srv.Unlock(msg.UnlockReq{Client: c.id, Action: msg.ActionRelease, Name: lock.PageName(pid)})
}

// Checkpoint takes an independent fuzzy checkpoint: the active
// transaction table and the DPT go to the private log; no coordination
// with the server or other clients (paper advantage 6).
func (c *Client) Checkpoint() error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.mu.Lock()
	rec := &wal.Checkpoint{}
	for _, t := range c.txns {
		rec.Active = append(rec.Active, wal.TxnInfo{ID: t.id, FirstLSN: t.firstLSN, LastLSN: t.lastLSN})
	}
	for pid, e := range c.dpt {
		rec.DPT = append(rec.DPT, wal.DPTEntry{Page: pid, RedoLSN: e.redoLSN})
	}
	// The checkpoint record is a forward append like any other: it must
	// respect the undo reservation (appendLocked also runs the §3.6
	// retry protocol on a full log).
	lsn, err := c.appendLocked(rec, c.undoReserveLocked(nil))
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if err := c.log.Force(lsn); err != nil {
		return err
	}
	c.mu.Lock()
	c.lastCkpt = lsn
	c.commitsCk = 0
	c.reclaimLocked()
	c.mu.Unlock()
	c.Metrics.Checkpoints.Add(1)
	return nil
}

// FlushCache ships every dirty page to the server (orderly shutdown).
func (c *Client) FlushCache() error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.mu.Lock()
	var ships []shipment
	for _, pid := range c.pool.DirtyIDs() {
		p, _ := c.pool.Get(pid)
		img, err := c.prepareShipLocked(p)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		c.pool.Clean(pid)
		ships = append(ships, shipment{image: img, reason: msg.ShipReplace})
	}
	c.mu.Unlock()
	c.shipVictims(ships)
	return nil
}

// Disconnect leaves the cluster cleanly: dirty pages are shipped, every
// page still covered by this client's log is forced to server disk, and
// all locks released.  The forces are what make departure safe: server
// crash recovery (§3.4) replays lost pages from client logs, and a
// departed client's log is no longer available — so nothing on the
// server may depend on it.  The DPT is exactly the set of pages with
// that dependence.
func (c *Client) Disconnect() error {
	if err := c.FlushCache(); err != nil {
		return err
	}
	c.mu.Lock()
	pids := make([]page.ID, 0, len(c.dpt))
	for pid := range c.dpt {
		pids = append(pids, pid)
	}
	c.mu.Unlock()
	for _, pid := range pids {
		freply, err := c.srv.Force(msg.ForceReq{Client: c.id, Page: pid})
		if err != nil {
			return err
		}
		c.Metrics.ForceRequests.Add(1)
		c.mu.Lock()
		c.applyFlushedLocked(pid, freply.PSN)
		c.mu.Unlock()
	}
	return c.srv.Disconnect(c.id)
}

// Crash simulates a client crash: lock tables and cache contents are
// lost (§3.3), as is the unforced tail of the private log.  The server
// must be told separately (Server.ClientCrashed), as a real server
// learns from a broken connection.
func (c *Client) Crash() {
	c.mu.Lock()
	c.crashed = true
	c.pool.Clear()
	c.dpt = make(map[page.ID]*dptEntry)
	c.txns = make(map[ident.TxnID]*txnState)
	c.tokens = make(map[page.ID]bool)
	c.lastCkpt = wal.NilLSN
	c.mu.Unlock()
	c.llm.Clear()
	switch st := c.log.Store().(type) {
	case *wal.MemStore:
		st.Crash()
	case *RemoteLogStore:
		st.DropVolatile()
	}
}

// DPTSnapshot returns the dirty page table (tests and §3.4 recovery).
func (c *Client) DPTSnapshot() []wal.DPTEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wal.DPTEntry, 0, len(c.dpt))
	for pid, e := range c.dpt {
		out = append(out, wal.DPTEntry{Page: pid, RedoLSN: e.redoLSN})
	}
	return out
}

// --- msg.Client handlers (the server talking to us) ---

// CallbackObject implements msg.Client: §3.2 object-level conflict
// handling.  The handler waits until no local transaction uses the
// object in a conflicting mode, ships the page if it holds updates, and
// releases or downgrades the cached lock.
func (c *Client) CallbackObject(req msg.CallbackReq) (msg.CallbackReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.CallbackReply{}, err
	}
	name := req.Object
	if c.llm.CachedMode(name) == lock.None {
		// Already released (racing callbacks are idempotent).
		return msg.CallbackReply{Released: true}, nil
	}
	c.llm.SetFence(name, req.Wanted)
	defer c.llm.ClearFence(name)
	if err := c.llm.WaitObjectFree(name, req.Wanted); err != nil {
		return msg.CallbackReply{}, err
	}
	var reply msg.CallbackReply
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return msg.CallbackReply{}, ErrCrashed
	}
	pid := name.Page
	if p, ok := c.pool.Get(pid); ok && c.pool.IsDirty(pid) {
		img, err := c.prepareShipLocked(p)
		if err != nil {
			c.mu.Unlock()
			return msg.CallbackReply{}, err
		}
		reply.Image, reply.HadPage = img, true
		c.pool.Clean(pid)
	}
	if req.Wanted == lock.X {
		c.llm.DropCached(name)
		reply.Released = true
		if !c.llm.HoldsAnyOnPage(pid) {
			// §3.2: drop P from the cache if no other locks are held on
			// objects residing on the page.
			c.pool.Drop(pid)
		}
	} else {
		c.llm.DowngradeCached(name)
		reply.Downgraded = true
	}
	c.reclaimTokenLocked(pid)
	c.mu.Unlock()
	return reply, nil
}

// reclaimTokenLocked drops the update token when the page leaves our
// control (token baseline bookkeeping).  Called with c.mu held.
func (c *Client) reclaimTokenLocked(pid page.ID) {
	if c.cfg.Update == UpdateToken && !c.llm.HoldsAnyOnPage(pid) {
		delete(c.tokens, pid)
	}
}

// DeescalatePage implements msg.Client: §3.2 page-level conflict
// handling.  The client waits for structural operations to finish,
// replaces its page lock with object locks for the objects its
// transactions accessed, and ships the page if it holds updates.
func (c *Client) DeescalatePage(req msg.DeescReq) (msg.DeescReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.DeescReply{}, err
	}
	pgName := lock.PageName(req.Page)
	if c.llm.CachedMode(pgName) == lock.None {
		// Stale or repeated de-escalation: the page lock is already
		// gone here, but the GLM is about to remove its (phantom) page
		// lock entry — it must install the object locks we actually
		// hold, or another client could take objects we still own.
		return msg.DeescReply{Objs: c.llm.CachedObjLocks(req.Page)}, nil
	}
	c.llm.SetFence(pgName, lock.X)
	defer c.llm.ClearFence(pgName)
	if err := c.llm.WaitPageQuiesced(req.Page); err != nil {
		return msg.DeescReply{}, err
	}
	var reply msg.DeescReply
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return msg.DeescReply{}, ErrCrashed
	}
	if p, ok := c.pool.Get(req.Page); ok && c.pool.IsDirty(req.Page) {
		img, err := c.prepareShipLocked(p)
		if err != nil {
			c.mu.Unlock()
			return msg.DeescReply{}, err
		}
		reply.Image, reply.HadPage = img, true
		c.pool.Clean(req.Page)
	}
	// Retain object locks for everything local transactions accessed
	// plus any object locks already cached (from an earlier
	// de-escalation).
	reply.Objs = mergeObjLocks(c.llm.AccessedObjects(req.Page), c.llm.CachedObjLocks(req.Page))
	c.llm.Deescalate(req.Page, reply.Objs)
	c.mu.Unlock()
	return reply, nil
}

// mergeObjLocks unions two object-lock lists, keeping the stronger mode
// per slot.
func mergeObjLocks(a, b []lock.ObjLock) []lock.ObjLock {
	best := make(map[uint16]lock.Mode, len(a)+len(b))
	for _, ol := range a {
		best[ol.Slot] = lock.Max(best[ol.Slot], ol.Mode)
	}
	for _, ol := range b {
		best[ol.Slot] = lock.Max(best[ol.Slot], ol.Mode)
	}
	out := make([]lock.ObjLock, 0, len(best))
	for slot, m := range best {
		out = append(out, lock.ObjLock{Slot: slot, Mode: m})
	}
	return out
}

// RecallToken implements msg.Client (update-privilege baseline): the
// token leaves with the current copy of the page.
func (c *Client) RecallToken(pid page.ID) (msg.TokenReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.TokenReply{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tokens, pid)
	var reply msg.TokenReply
	if p, ok := c.pool.Get(pid); ok && c.pool.IsDirty(pid) {
		img, err := c.prepareShipLocked(p)
		if err != nil {
			return msg.TokenReply{}, err
		}
		reply.Image = img
		c.pool.Clean(pid)
	}
	return reply, nil
}

// NotifyFlushed implements msg.Client: the server flushed a page this
// client had replaced (§3.2 DPT maintenance, §3.6 RedoLSN advance).
func (c *Client) NotifyFlushed(pid page.ID, psn page.PSN) {
	c.mu.Lock()
	if !c.crashed {
		c.applyFlushedLocked(pid, psn)
		c.reclaimLocked()
	}
	c.mu.Unlock()
}

func (c *Client) String() string { return fmt.Sprintf("client(%s)", c.id) }

// DebugPage renders the cached copy of a page (debug tooling).
func (c *Client) DebugPage(pid page.ID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pool.Get(pid)
	if !ok {
		return fmt.Sprintf("%v: page %d not cached", c.id, pid)
	}
	out := fmt.Sprintf("%v: page %d psn=%d dirty=%v slots:", c.id, pid, p.PSN(), c.pool.IsDirty(pid))
	for _, s := range p.UsedSlotIDs() {
		d, _ := p.Read(s)
		out += fmt.Sprintf(" %d@%d=%x", s, p.SlotPSN(s), d[:minInt(4, len(d))])
	}
	if e, ok := c.dpt[pid]; ok {
		out += fmt.Sprintf(" [dpt redo=%v shipPSN=%d dirtySince=%v]", e.redoLSN, e.lastShipPSN, e.dirtySinceShip)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
