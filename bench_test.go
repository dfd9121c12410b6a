// Benchmarks: one per experiment in DESIGN.md §4 (E1..E10) plus
// microbenchmarks of the hot primitives.  The experiment benches run a
// reduced-size configuration per iteration and report the headline
// metric of the corresponding table via b.ReportMetric; run
// `go run ./cmd/bench` for the full tables.
package clientlog_test

import (
	"fmt"
	"testing"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/sim"
	"clientlog/internal/wal"
)

const benchTxns = 30

// runScheme runs one workload batch and reports throughput and message
// metrics.
func runScheme(b *testing.B, cfg core.Config, kind sim.Kind, clients int) {
	b.Helper()
	w := sim.DefaultWorkload(kind)
	var commits, msgs uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, w, clients, benchTxns, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		commits += res.Commits
		msgs += res.Msgs
		elapsed += res.Elapsed
	}
	if elapsed > 0 {
		b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
	}
	if commits > 0 {
		b.ReportMetric(float64(msgs)/float64(commits), "msgs/commit")
	}
}

// BenchmarkE1Throughput regenerates experiment E1: throughput of the
// paper's scheme vs page locking vs update tokens under contention.
func BenchmarkE1Throughput(b *testing.B) {
	schemes := sim.Schemes(core.DefaultConfig())
	for _, name := range []string{"paper", "page-lock", "token"} {
		cfg := schemes[name]
		b.Run("HICON/"+name, func(b *testing.B) { runScheme(b, cfg, sim.HiCon, 4) })
	}
}

// BenchmarkE2Messages regenerates experiment E2: synchronization
// messages per commit.
func BenchmarkE2Messages(b *testing.B) {
	schemes := sim.Schemes(core.DefaultConfig())
	for _, name := range []string{"paper", "page-lock", "token"} {
		cfg := schemes[name]
		b.Run("HOTCOLD/"+name, func(b *testing.B) { runScheme(b, cfg, sim.HotCold, 4) })
	}
}

// BenchmarkE3CommitPath regenerates experiment E3: commit latency with
// client-local logging vs commit-time shipping under network latency.
func BenchmarkE3CommitPath(b *testing.B) {
	base := core.DefaultConfig()
	base.Latency = 200 * time.Microsecond
	schemes := sim.Schemes(base)
	w := sim.DefaultWorkload(sim.Private)
	for _, name := range []string{"paper", "ship-log", "ship-pages"} {
		cfg := schemes[name]
		b.Run(name, func(b *testing.B) {
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg, w, 2, 10, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				lat += res.CommitLat
			}
			b.ReportMetric(float64(lat.Microseconds())/float64(b.N), "µs/commit")
		})
	}
}

// BenchmarkE4ServerLoad regenerates experiment E4: server log volume
// with client-based vs server-based logging.
func BenchmarkE4ServerLoad(b *testing.B) {
	schemes := sim.Schemes(core.DefaultConfig())
	w := sim.DefaultWorkload(sim.HotCold)
	for _, name := range []string{"paper", "ship-log"} {
		cfg := schemes[name]
		b.Run(name, func(b *testing.B) {
			var srvBytes, commits uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg, w, 4, benchTxns, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				srvBytes += res.ServerLogBytes
				commits += res.Commits
			}
			if commits > 0 {
				b.ReportMetric(float64(srvBytes)/float64(commits), "srv-log-B/commit")
			}
		})
	}
}

// BenchmarkE5ClientRecovery regenerates experiment E5: §3.3 restart
// recovery time.
func BenchmarkE5ClientRecovery(b *testing.B) {
	for _, updates := range []int{50, 200} {
		b.Run(fmt.Sprintf("updates=%d", updates), func(b *testing.B) {
			var rec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.RunClientCrashRecovery(core.DefaultConfig(), 16, updates, 0, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				rec += res.RecoveryTime
			}
			b.ReportMetric(float64(rec.Microseconds())/float64(b.N), "µs/recovery")
		})
	}
}

// BenchmarkE6ServerRecovery regenerates experiment E6: §3.4 restart
// with the redo work parallelized over the clients.
func BenchmarkE6ServerRecovery(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			var rec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.RunServerCrashRecovery(core.DefaultConfig(), n, 16/n, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				rec += res.RecoveryTime
			}
			b.ReportMetric(float64(rec.Microseconds())/float64(b.N), "µs/recovery")
		})
	}
}

// BenchmarkE7ComplexCrash regenerates experiment E7: §3.5.
func BenchmarkE7ComplexCrash(b *testing.B) {
	for _, k := range []int{0, 2} {
		b.Run(fmt.Sprintf("down=%d", k), func(b *testing.B) {
			var rec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.RunComplexCrash(core.DefaultConfig(), 4, k, 4, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				rec += res.RecoveryTime
			}
			b.ReportMetric(float64(rec.Microseconds())/float64(b.N), "µs/recovery")
		})
	}
}

// BenchmarkE8LogSpace regenerates experiment E8: bounded private logs
// with §3.6 space management.
func BenchmarkE8LogSpace(b *testing.B) {
	w := sim.DefaultWorkload(sim.Uniform)
	for _, capacity := range []uint64{16 << 10, 0} {
		name := "unbounded"
		if capacity > 0 {
			name = fmt.Sprintf("%dKiB", capacity/1024)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ClientLogCapacity = capacity
			var commits, forces uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg, w, 2, benchTxns, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				commits += res.Commits
				forces += res.ForceRequests
				elapsed += res.Elapsed
			}
			if elapsed > 0 {
				b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
			}
			b.ReportMetric(float64(forces)/float64(b.N), "force-reqs/run")
		})
	}
}

// BenchmarkE9Checkpoints regenerates experiment E9: fuzzy checkpoints
// under concurrent load.
func BenchmarkE9Checkpoints(b *testing.B) {
	for _, ckpts := range []int{0, 200} {
		b.Run(fmt.Sprintf("ckpts=%d", ckpts), func(b *testing.B) {
			var commits uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.RunCheckpointDuringLoad(core.DefaultConfig(), 3, benchTxns, ckpts, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				commits += res.Commits
				elapsed += res.Elapsed
			}
			if elapsed > 0 {
				b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
			}
		})
	}
}

// BenchmarkE10Ablations regenerates experiment E10's lock-granularity
// ablation (the merge microbench is BenchmarkPageMerge below).
func BenchmarkE10Ablations(b *testing.B) {
	for _, gran := range []core.Granularity{core.GranAdaptive, core.GranObject} {
		b.Run("PRIVATE/"+gran.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Granularity = gran
			runScheme(b, cfg, sim.Private, 4)
		})
	}
}

// --- microbenchmarks of the primitives ---

// BenchmarkCommitPath measures the latency of a minimal
// update-and-commit on a warm cache: the paper's zero-message commit.
func BenchmarkCommitPath(b *testing.B) {
	cfg := core.DefaultConfig()
	cl := core.NewCluster(cfg)
	ids, err := cl.SeedPages(1, 8, 32)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		b.Fatal(err)
	}
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	buf := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn, _ := c.Begin()
		if err := txn.Overwrite(obj, buf); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingOverhead measures what span tracing adds to the
// zero-message commit path — the path most sensitive to per-operation
// overhead, since it does no network work to hide behind.  "off" is
// the default (no store), "sampled" the live default of 1-in-64 head
// sampling, "every" the worst case of retaining every trace.
func BenchmarkTracingOverhead(b *testing.B) {
	for _, mode := range []struct {
		name  string
		every int
	}{{"off", 0}, {"sampled", 64}, {"every", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			if mode.every > 0 {
				cfg.Spans = span.NewStore(span.Options{SampleEvery: mode.every})
			}
			cl := core.NewCluster(cfg)
			ids, err := cl.SeedPages(1, 8, 32)
			if err != nil {
				b.Fatal(err)
			}
			c, err := cl.AddClient()
			if err != nil {
				b.Fatal(err)
			}
			obj := page.ObjectID{Page: ids[0], Slot: 0}
			buf := make([]byte, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn, _ := c.Begin()
				if err := txn.Overwrite(obj, buf); err != nil {
					b.Fatal(err)
				}
				if err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageMerge measures the §2 merge procedure (experiment E10a).
func BenchmarkPageMerge(b *testing.B) {
	for _, slots := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			base := page.New(1, 8192)
			for i := 0; i < slots; i++ {
				if _, _, err := base.Insert(make([]byte, 32)); err != nil {
					b.Fatal(err)
				}
			}
			x, y := base.Clone(), base.Clone()
			for i := 0; i+1 < slots; i += 2 {
				x.Overwrite(uint16(i), make([]byte, 32))
				y.Overwrite(uint16(i+1), make([]byte, 32))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page.Merge(x, y)
			}
		})
	}
}

// BenchmarkWALAppend measures private-log append throughput.
func BenchmarkWALAppend(b *testing.B) {
	l := wal.NewLog(wal.NewMemStore(0))
	rec := &wal.Update{TxnID: ident.MakeTxnID(1, 1), Page: 1, Slot: 0, PSN: 1,
		Op: wal.OpOverwrite, Before: make([]byte, 32), After: make([]byte, 32)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(wal.Encode(rec)) + 8))
}

// BenchmarkLockAcquireCached measures the LLM fast path: a lock served
// from the client's cache without touching the server.
func BenchmarkLockAcquireCached(b *testing.B) {
	llm := lock.NewLLM(time.Second)
	llm.InstallCached(lock.PageName(1), lock.X)
	t1 := ident.MakeTxnID(1, 1)
	name := lock.ObjName(page.ObjectID{Page: 1, Slot: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := llm.AcquireLocal(t1, name, lock.X); err != nil || res != lock.Granted {
			b.Fatal(res, err)
		}
	}
}

// BenchmarkPageCodec measures page image (de)serialization.
func BenchmarkPageCodec(b *testing.B) {
	p := page.New(1, 4096)
	for i := 0; i < 32; i++ {
		if _, _, err := p.Insert(make([]byte, 64)); err != nil {
			b.Fatal(err)
		}
	}
	img, err := p.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var q page.Page
		if err := q.UnmarshalBinary(out); err != nil {
			b.Fatal(err)
		}
	}
}
