package lock

import (
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// LocalResult is the outcome of an LLM acquisition attempt.
type LocalResult int

const (
	// Granted means the lock was granted from the client's cache.
	Granted LocalResult = iota
	// NeedGlobal means the cache does not cover the request; the client
	// must ask the server's GLM and then InstallCached the grant.
	NeedGlobal
)

// DefaultLLMShards is the shard count NewLLM uses.  A client touches
// far fewer pages than the server, so fewer shards suffice.
const DefaultLLMShards = 8

// llmShard is one independently mutexed slice of a client's lock
// tables: the cached locks, transaction uses, access history and
// callback fences for the pages hashing to it, plus the retry-wakeup
// channels of blocked local acquisitions on those pages.
type llmShard struct {
	mu sync.Mutex
	// cached are the client-level locks granted by the GLM.
	cached map[Name]Mode
	// use records active transactions' lock usage.  Object accesses are
	// recorded under the object name even when covered by a cached page
	// lock; structural page operations are recorded under the page name.
	use map[Name]map[ident.TxnID]Mode
	// spare holds emptied owner maps of use for reuse, so a name's
	// first use in a transaction allocates nothing in steady state.
	spare []map[ident.TxnID]Mode
	// users holds the transactions with at least one use here.
	users map[ident.TxnID]struct{}
	// bit is this shard's bit in LLM.usedShards masks.
	bit uint64
	// accessed remembers, per object, the strongest mode any local
	// transaction ever used it with while the client held covering
	// locks; de-escalation retains object locks for these (the paper's
	// "list of the objects accessed by local transactions", which spans
	// committed transactions under inter-transaction caching).
	accessed map[Name]Mode
	// fences mark names with a pending callback: new conflicting local
	// acquisitions wait until the callback completes.
	fences map[Name]Mode

	waiters []chan struct{}
}

// LLM is a client's local lock manager.  It caches the locks the GLM
// granted to this client across transaction boundaries
// (inter-transaction lock caching) and grants them to local transactions
// under strict two-phase locking.  It also keeps, per page, the list of
// objects accessed by local transactions, which drives de-escalation
// (§3.2).
//
// The tables are sharded by page ID, mirroring the GLM: every conflict
// and coverage rule relates a name only to names on the same page, so
// the hot path touches exactly one shard mutex.  The transaction-level
// waits-for graph spans pages and lives under the graphMu leaf (taken
// while holding one shard mutex, never the reverse).
type LLM struct {
	shards  []llmShard
	stopped atomic.Bool

	// graphMu guards waitsLocal, the transaction-level waits-for graph
	// for local deadlock detection.
	graphMu    sync.Mutex
	waitsLocal map[ident.TxnID]map[ident.TxnID]bool

	// usedMu guards usedShards: per active transaction, a mask of the
	// shards holding its uses (bit i%64 for shard i), so ReleaseTxn
	// visits only those.  A leaf taken under a shard mutex.
	usedMu     sync.Mutex
	usedShards map[ident.TxnID]uint64

	timeout time.Duration
}

// NewLLM returns an empty local lock manager whose blocking operations
// give up after timeout (0 means a generous default), with the default
// shard count.
func NewLLM(timeout time.Duration) *LLM {
	return NewLLMSharded(timeout, DefaultLLMShards)
}

// NewLLMSharded is NewLLM with an explicit shard count (1 reproduces
// the old single-mutex behavior; the E12 big-lock baseline uses it).
func NewLLMSharded(timeout time.Duration, shards int) *LLM {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if shards <= 0 {
		shards = DefaultLLMShards
	}
	l := &LLM{
		shards:     make([]llmShard, shards),
		waitsLocal: make(map[ident.TxnID]map[ident.TxnID]bool),
		usedShards: make(map[ident.TxnID]uint64),
		timeout:    timeout,
	}
	for i := range l.shards {
		l.shards[i].bit = 1 << (uint(i) % 64)
		l.shards[i].reset()
	}
	return l
}

// reset empties the shard's tables.  Called with sh.mu held (or
// before the LLM is shared).
func (sh *llmShard) reset() {
	sh.cached = make(map[Name]Mode)
	sh.use = make(map[Name]map[ident.TxnID]Mode)
	sh.spare = nil
	sh.users = make(map[ident.TxnID]struct{})
	sh.accessed = make(map[Name]Mode)
	sh.fences = make(map[Name]Mode)
}

// shard maps a page to its shard.
func (l *LLM) shard(p page.ID) *llmShard {
	return &l.shards[int(uint64(p)%uint64(len(l.shards)))]
}

// notifyAll wakes blocked acquisitions on this shard.  Called with
// sh.mu held.
func (sh *llmShard) notifyAll() {
	for _, ch := range sh.waiters {
		close(ch)
	}
	sh.waiters = nil
}

// wait sleeps until the shard's tables change or the deadline passes.
// Called with sh.mu held; returns with sh.mu held.
func (sh *llmShard) wait(deadline time.Time) error {
	ch := make(chan struct{})
	sh.waiters = append(sh.waiters, ch)
	sh.mu.Unlock()
	timer := time.NewTimer(time.Until(deadline))
	select {
	case <-ch:
		timer.Stop()
		sh.mu.Lock()
		return nil
	case <-timer.C:
		sh.mu.Lock()
		return ErrTimeout
	}
}

// fenceBlocks reports whether a pending callback on name forbids a new
// local acquisition with the given mode.  A fence in X takes the lock
// away entirely; a fence in S leaves shared access.
func fenceBlocks(fence Mode, mode Mode) bool {
	if fence == X {
		return true
	}
	return mode == X // fence == S keeps S available
}

// AcquireLocal grants name@mode to transaction t from the cache, blocks
// while other local transactions or pending callbacks conflict, or
// reports NeedGlobal when the server must be consulted.
func (l *LLM) AcquireLocal(t ident.TxnID, name Name, mode Mode) (LocalResult, error) {
	var deadline time.Time // set on the first wait; the fast path never reads the clock
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if l.stopped.Load() {
			return 0, ErrStopped
		}
		// Reentrant: the transaction already holds a sufficient use.
		if Covers(sh.use[name][t], mode) {
			return Granted, nil
		}
		// Pending callbacks fence new conflicting acquisitions so the
		// callback cannot be starved.  A transaction that already uses
		// the name (or the covering page) bypasses the fence: the
		// callback must wait for that transaction's end regardless, so
		// letting it upgrade cannot extend the wait — while blocking it
		// would deadlock the callback against its own holder.
		ownUse := sh.use[name][t] != None
		if !name.IsPage && sh.use[PageName(name.Page)][t] != None {
			ownUse = true
		}
		if !ownUse {
			if f, ok := sh.fences[name]; ok && fenceBlocks(f, mode) {
				if err := sh.wait(l.deadline(&deadline)); err != nil {
					return 0, err
				}
				continue
			}
			if !name.IsPage {
				if f, ok := sh.fences[PageName(name.Page)]; ok && fenceBlocks(f, mode) {
					if err := sh.wait(l.deadline(&deadline)); err != nil {
						return 0, err
					}
					continue
				}
			}
		}
		// Conflicts with other local transactions (strict 2PL).
		blockers := sh.localConflicts(t, name, mode)
		if len(blockers) > 0 {
			if l.setWaitLocalAndCheck(t, blockers) {
				return 0, ErrDeadlock
			}
			err := sh.wait(l.deadline(&deadline))
			l.clearWaitLocal(t)
			if err != nil {
				return 0, err
			}
			continue
		}
		// Cache coverage.
		if sh.cacheCovers(name, mode) {
			l.recordUse(sh, t, name, mode)
			return Granted, nil
		}
		return NeedGlobal, nil
	}
}

// deadline returns *d, first setting it to the timeout from now if it
// is still zero.
func (l *LLM) deadline(d *time.Time) time.Time {
	if d.IsZero() {
		*d = time.Now().Add(l.timeout)
	}
	return *d
}

// setWaitLocalAndCheck records t's blockers in the cross-shard
// waits-for graph and runs cycle detection; on a cycle the edges are
// removed again and true returned.  graphMu is a leaf under the shard
// mutex, so cycles spanning pages in different shards are still caught.
func (l *LLM) setWaitLocalAndCheck(t ident.TxnID, blockers map[ident.TxnID]bool) bool {
	l.graphMu.Lock()
	defer l.graphMu.Unlock()
	l.waitsLocal[t] = blockers
	if l.localCycleLocked(t) {
		delete(l.waitsLocal, t)
		return true
	}
	return false
}

func (l *LLM) clearWaitLocal(t ident.TxnID) {
	l.graphMu.Lock()
	delete(l.waitsLocal, t)
	l.graphMu.Unlock()
}

// maxSpareOwners bounds each shard's pool of emptied owner maps.
const maxSpareOwners = 64

// recordUse registers a transaction's use of a lock that was just
// installed from a GLM grant (the caller re-ran AcquireLocal, so the
// use may already exist; recordUse is idempotent).  Called with sh.mu
// held.
func (l *LLM) recordUse(sh *llmShard, t ident.TxnID, name Name, mode Mode) {
	owners := sh.use[name]
	if owners == nil {
		if n := len(sh.spare); n > 0 {
			owners = sh.spare[n-1]
			sh.spare = sh.spare[:n-1]
		} else {
			owners = make(map[ident.TxnID]Mode)
		}
		sh.use[name] = owners
	}
	owners[t] = Max(owners[t], mode)
	if !name.IsPage {
		sh.accessed[name] = Max(sh.accessed[name], mode)
	}
	if _, ok := sh.users[t]; !ok {
		sh.users[t] = struct{}{}
		l.usedMu.Lock()
		l.usedShards[t] |= sh.bit
		l.usedMu.Unlock()
	}
}

// localConflicts returns the transactions blocking t's request, or nil
// (without allocating) when nothing blocks it.  All conflicting uses
// are on the request's page, hence in this shard.  Called with sh.mu
// held.
func (sh *llmShard) localConflicts(t ident.TxnID, name Name, mode Mode) map[ident.TxnID]bool {
	var blockers map[ident.TxnID]bool
	block := func(o ident.TxnID) {
		if blockers == nil {
			blockers = make(map[ident.TxnID]bool)
		}
		blockers[o] = true
	}
	scan := func(n Name) {
		for o, m := range sh.use[n] {
			if o != t && !Compatible(m, mode) {
				block(o)
			}
		}
	}
	scan(name)
	if name.IsPage {
		// A page request conflicts with other transactions' object uses
		// on the page.
		for n, owners := range sh.use {
			if n.IsPage || n.Page != name.Page {
				continue
			}
			for o, m := range owners {
				if o != t && !Compatible(m, mode) {
					block(o)
				}
			}
		}
	} else {
		// An object request conflicts with other transactions' page-level
		// uses (structural operations in progress).
		scan(PageName(name.Page))
	}
	return blockers
}

// localCycleLocked walks the transaction waits-for graph from t.
// Called with graphMu held.
func (l *LLM) localCycleLocked(t ident.TxnID) bool {
	seen := make(map[ident.TxnID]bool)
	var dfs func(n ident.TxnID) bool
	dfs = func(n ident.TxnID) bool {
		for b := range l.waitsLocal[n] {
			if b == t {
				return true
			}
			if !seen[b] {
				seen[b] = true
				if dfs(b) {
					return true
				}
			}
		}
		return false
	}
	return dfs(t)
}

// cacheCovers reports whether the cached locks cover name@mode.  Called
// with sh.mu held.
func (sh *llmShard) cacheCovers(name Name, mode Mode) bool {
	if Covers(sh.cached[name], mode) {
		return true
	}
	if !name.IsPage && Covers(sh.cached[PageName(name.Page)], mode) {
		return true
	}
	return false
}

// CachesAny reports whether the client caches any lock on the name (or
// the page covering it); such a request is an upgrade.
func (l *LLM) CachesAny(name Name) bool {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cached[name] != None {
		return true
	}
	return !name.IsPage && sh.cached[PageName(name.Page)] != None
}

// CacheCovers reports whether the cached locks cover name@mode.
func (l *LLM) CacheCovers(name Name, mode Mode) bool {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cacheCovers(name, mode)
}

// InstallCached records a lock granted by the GLM.
func (l *LLM) InstallCached(name Name, mode Mode) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	sh.cached[name] = Max(sh.cached[name], mode)
	sh.notifyAll()
	sh.mu.Unlock()
}

// CachedMode returns the cached mode for name (None if absent).
func (l *LLM) CachedMode(name Name) Mode {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cached[name]
}

// ReleaseTxn drops every use of a terminated transaction; cached locks
// are retained per inter-transaction caching.  Only the shards holding
// the transaction's uses are visited, in ascending order, one mutex at
// a time.
func (l *LLM) ReleaseTxn(t ident.TxnID) {
	l.usedMu.Lock()
	mask := l.usedShards[t]
	delete(l.usedShards, t)
	l.usedMu.Unlock()
	for i := 0; mask != 0 && i < len(l.shards); i++ {
		sh := &l.shards[i]
		if mask&sh.bit == 0 {
			continue
		}
		sh.mu.Lock()
		if _, ok := sh.users[t]; ok {
			delete(sh.users, t)
			for n, owners := range sh.use {
				if _, ok := owners[t]; ok {
					delete(owners, t)
					if len(owners) == 0 {
						delete(sh.use, n)
						if len(sh.spare) < maxSpareOwners {
							sh.spare = append(sh.spare, owners)
						}
					}
				}
			}
			sh.notifyAll()
		}
		sh.mu.Unlock()
	}
	l.clearWaitLocal(t)
}

// TxnUses returns the names t currently uses with their modes.
func (l *LLM) TxnUses(t ident.TxnID) []Holding {
	var out []Holding
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for n, owners := range sh.use {
			if m, ok := owners[t]; ok {
				out = append(out, Holding{Name: n, Mode: m})
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// UseMode returns the mode transaction t holds on name (None if none).
func (l *LLM) UseMode(t ident.TxnID, name Name) Mode {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.use[name][t]
}

// CachedLocks snapshots the client-level cached locks; server restart
// recovery collects them to rebuild the GLM tables (§3.4).
func (l *LLM) CachedLocks() []Holding {
	var out []Holding
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for n, m := range sh.cached {
			out = append(out, Holding{Name: n, Mode: m})
		}
		sh.mu.Unlock()
	}
	return out
}

// SetFence marks a pending callback on name so that new conflicting
// local acquisitions wait for its completion.
func (l *LLM) SetFence(name Name, wanted Mode) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	sh.fences[name] = Max(sh.fences[name], wanted)
	sh.mu.Unlock()
}

// ClearFence removes the fence and wakes blocked acquisitions.
func (l *LLM) ClearFence(name Name) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	delete(sh.fences, name)
	sh.notifyAll()
	sh.mu.Unlock()
}

// WaitObjectFree blocks until no active transaction holds a use on obj
// (or, for wanted==S, no exclusive use) and no structural page use
// covers it; the callback handler then mutates the cache.
func (l *LLM) WaitObjectFree(obj Name, wanted Mode) error {
	deadline := time.Now().Add(l.timeout)
	sh := l.shard(obj.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if l.stopped.Load() {
			return ErrStopped
		}
		if sh.objectFree(obj, wanted) {
			return nil
		}
		if err := sh.wait(deadline); err != nil {
			return err
		}
	}
}

// objectFree is WaitObjectFree's predicate.  Called with sh.mu held.
func (sh *llmShard) objectFree(obj Name, wanted Mode) bool {
	check := func(n Name) bool {
		for _, m := range sh.use[n] {
			if !Compatible(m, wanted) {
				return false
			}
		}
		return true
	}
	return check(obj) && check(PageName(obj.Page))
}

// WaitPageQuiesced blocks until no active transaction holds a
// structural (page-name) use on pg; de-escalation then proceeds.
func (l *LLM) WaitPageQuiesced(pg page.ID) error {
	deadline := time.Now().Add(l.timeout)
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if l.stopped.Load() {
			return ErrStopped
		}
		if len(sh.use[PageName(pg)]) == 0 {
			return nil
		}
		if err := sh.wait(deadline); err != nil {
			return err
		}
	}
}

// AccessedObjects returns the objects on pg that local transactions
// accessed (active or committed, per inter-transaction caching) with
// their strongest modes: the object locks to obtain when de-escalating
// the page lock (§3.2).
func (l *LLM) AccessedObjects(pg page.ID) []ObjLock {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []ObjLock
	for n, m := range sh.accessed {
		if n.Page != pg || m == None {
			continue
		}
		out = append(out, ObjLock{Slot: n.Slot, Mode: m})
	}
	return out
}

// DropCached removes a cached lock (callback in exclusive mode).
func (l *LLM) DropCached(name Name) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	delete(sh.cached, name)
	if name.IsPage {
		// Access history under the page lock dies with it unless object
		// locks were installed by de-escalation first.
		for n := range sh.accessed {
			if n.Page == name.Page {
				if _, held := sh.cached[n]; !held {
					delete(sh.accessed, n)
				}
			}
		}
	} else {
		delete(sh.accessed, name)
	}
	sh.notifyAll()
	sh.mu.Unlock()
}

// DowngradeCached demotes a cached exclusive lock to shared (callback in
// shared mode).
func (l *LLM) DowngradeCached(name Name) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	if sh.cached[name] == X {
		sh.cached[name] = S
	}
	if !name.IsPage && sh.accessed[name] == X {
		sh.accessed[name] = S
	}
	sh.notifyAll()
	sh.mu.Unlock()
}

// Deescalate replaces the cached page lock with the given object locks.
func (l *LLM) Deescalate(pg page.ID, objs []ObjLock) {
	sh := l.shard(pg)
	sh.mu.Lock()
	delete(sh.cached, PageName(pg))
	for _, ol := range objs {
		n := Name{Page: pg, Slot: ol.Slot}
		sh.cached[n] = Max(sh.cached[n], ol.Mode)
	}
	sh.notifyAll()
	sh.mu.Unlock()
}

// CachedObjLocks returns the object locks the cache holds on the page
// (used by de-escalation replies so the GLM never drops a page lock
// without installing the object locks that replace it, even when the
// callback is stale or repeated).
func (l *LLM) CachedObjLocks(pg page.ID) []ObjLock {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []ObjLock
	for n, m := range sh.cached {
		if !n.IsPage && n.Page == pg && m != None {
			out = append(out, ObjLock{Slot: n.Slot, Mode: m})
		}
	}
	return out
}

// HoldsAnyOnPage reports whether the cache holds the page lock or any
// object lock on pg; the client drops a page from its buffer only when
// this is false (§3.2 object-level conflict handling).
func (l *LLM) HoldsAnyOnPage(pg page.ID) bool {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.cached[PageName(pg)]; ok {
		return true
	}
	for n := range sh.cached {
		if !n.IsPage && n.Page == pg {
			return true
		}
	}
	return false
}

// Clear wipes all state (client crash loses lock tables).
func (l *LLM) Clear() {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.notifyAll()
		sh.mu.Unlock()
	}
	l.usedMu.Lock()
	l.usedShards = make(map[ident.TxnID]uint64)
	l.usedMu.Unlock()
	l.graphMu.Lock()
	l.waitsLocal = make(map[ident.TxnID]map[ident.TxnID]bool)
	l.graphMu.Unlock()
}

// Stop aborts all blocked operations.
func (l *LLM) Stop() {
	l.stopped.Store(true)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.notifyAll()
		sh.mu.Unlock()
	}
}
