package core

import (
	"testing"

	"clientlog/internal/page"
)

// commitPathAllocBudget bounds the heap allocations of one steady-state
// transaction: Begin, eight overwrites under cached object locks, and a
// commit that forces only the private log.  It takes 19: the page's
// copy of each new value (8), one encoded record per update and for the
// commit (9, kept by the log store), and the transaction handle and
// state (2).
const commitPathAllocBudget = 22

// TestCommitPathAllocs is the allocation gate for the paper's headline
// path (§2-§3): a commit that sends no message, so the client's own
// lock, log and page work is the whole cost of a transaction.
// Skipped under the race detector, whose instrumentation allocates.
func TestCommitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	cfg := DefaultConfig()
	cl := NewCluster(cfg)
	defer cl.Close()
	ids, err := cl.SeedPages(1, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 32)
	txn := func() {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for s := uint16(0); s < 8; s++ {
			val[0]++
			if err := tx.Overwrite(page.ObjectID{Page: ids[0], Slot: s}, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: fetch the page, cache the object locks, and let the
	// lock and log tables reach their steady-state size.
	for i := 0; i < 64; i++ {
		txn()
	}
	if rpcs := c.Metrics.PagesFetched.Load(); rpcs != 1 {
		t.Fatalf("warm-up fetched %d pages, want 1", rpcs)
	}
	got := testing.AllocsPerRun(200, txn)
	t.Logf("%.1f allocs per transaction (budget %d)", got, commitPathAllocBudget)
	if got > commitPathAllocBudget {
		t.Fatalf("commit path: %.1f allocs per transaction, budget %d", got, commitPathAllocBudget)
	}
}
