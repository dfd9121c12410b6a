package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clientlog/internal/netrpc"
)

// resources are process and program counters sampled around a phase.
type resources struct {
	cpu        time.Duration // user+sys of the whole process
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
	merges     uint64
	frames     uint64 // TCP frames sent by either side
	wireBytes  uint64
}

// processCPU is the user+sys time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is a sample of each driver's commit count and the process CPU
// time, taken every 1/nWindows of a timed phase.
type window struct {
	done []uint64
	cpu  time.Duration
	at   time.Time
}

// rssEvery is how often the resident set is sampled in a timed phase.
const rssEvery = 50 * time.Millisecond

// sampleWindows samples the drivers every interval, and the resident
// set every rssEvery, until stop closes.
func sampleWindows(ds []*driver, every time.Duration, stop <-chan struct{}) ([]window, []float64) {
	take := func() window {
		w := window{cpu: processCPU(), at: time.Now()}
		for _, d := range ds {
			w.done = append(w.done, d.done.Load())
		}
		return w
	}
	ws := []window{take()}
	var rss []float64
	tick, rssTick := time.NewTicker(every), time.NewTicker(rssEvery)
	defer tick.Stop()
	defer rssTick.Stop()
	for {
		select {
		case <-tick.C:
			ws = append(ws, take())
		case <-rssTick.C:
			rss = append(rss, procStatusMiB("VmRSS:"))
		case <-stop:
			return ws, rss
		}
	}
}

// windowed holds the medians over a phase's windows.
type windowed struct {
	perSec, p50, p99, cpuPerCommit float64 // 1/s, ns, ns, ns
	n                              int
}

// windowMedians takes, for every window of the phase, the commit rate,
// the p50 and p99 latency of the transactions that committed in it and
// the CPU time per commit, and returns the median of each over the
// windows.  Medians keep a short stall of the host (another tenant
// taking the CPU) from moving the figures.
func windowMedians(ph phase) windowed {
	var rates, p50s, p99s, cpus []float64
	ws := ph.windows
	for i := 1; i < len(ws); i++ {
		var n uint64
		for d := range ws[i].done {
			n += ws[i].done[d] - ws[i-1].done[d]
		}
		rates = append(rates, float64(n)/ws[i].at.Sub(ws[i-1].at).Seconds())
		if n > 0 {
			cpus = append(cpus, float64(ws[i].cpu-ws[i-1].cpu)/float64(n))
		}
	}
	for w := 0; w < len(ph.lat)-1; w++ {
		if ph.lat[w].n > 0 {
			p50s = append(p50s, ph.lat[w].quantile(0.5))
			p99s = append(p99s, ph.lat[w].quantile(0.99))
		}
	}
	if len(cpus) == 0 || len(p50s) == 0 {
		return windowed{}
	}
	return windowed{median(rates), median(p50s), median(p99s), median(cpus), len(rates)}
}

func sample(sys *system) resources {
	r := resources{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.allocBytes = ms.Mallocs, ms.TotalAlloc
	rm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(rm)
	if rm[0].Value.Kind() == metrics.KindFloat64 && rm[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU, r.totalCPU = rm[0].Value.Float64(), rm[1].Value.Float64()
	}
	r.merges = sys.server.Metrics.Merges.Load()
	r.frames = netrpc.Metrics.FramesSent.Load()
	r.wireBytes = netrpc.Metrics.BytesSent.Load()
	return r
}

func (a resources) minus(b resources) resources {
	return resources{
		cpu:        a.cpu - b.cpu,
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		merges:     a.merges - b.merges,
		frames:     a.frames - b.frames,
		wireBytes:  a.wireBytes - b.wireBytes,
	}
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is a run's output: human-readable notes and the metrics of the
// final JSON line.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   []metric
	notes     []string
}

func (r *result) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// json renders the result line the benchmark contract asks for.
func (r result) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// account folds a phase's failures and check verdict into the result.
func (r *result) account(label string, ph phase) {
	misses := uint64(len(ph.check.misses))
	r.attempted += ph.st.txns
	r.failed += ph.st.failed + misses
	verdict := "PASS"
	if misses > 0 || ph.st.failed > 0 {
		verdict = "FAIL"
	}
	r.notes = append(r.notes, fmt.Sprintf("%sfinal-state check %s: %d written objects verified, %d wrong; %d of %d transactions failed",
		label, verdict, ph.check.objects, misses, ph.st.failed, ph.st.txns))
	for _, m := range ph.check.misses {
		r.notes = append(r.notes, label+"check: "+m)
	}
}

func e2eResult(s spec, ph phase, setups []float64) result {
	r := result{}
	r.account("", ph)
	r.correct = r.failed == 0
	commits := float64(ph.st.commits)
	var lat hist
	for w := range ph.lat {
		lat.merge(&ph.lat[w])
	}
	wm := windowMedians(ph)
	r.add("txn_per_s", wm.perSec, "1/s")
	r.add("txn_p50_us", wm.p50/1e3, "us")
	r.add("txn_p99_us", wm.p99/1e3, "us")
	r.add("cpu_us_per_txn", wm.cpuPerCommit/1e3, "us")
	r.add("rss_peak_mib", percentile(ph.rss, 0.9), "MiB")
	r.add("setup_s", median(setups), "s")
	tailQ, tailName := tailPercentile(int(lat.n))
	r.notes = append(r.notes,
		fmt.Sprintf("workload %s: %d drivers, %.2f s timed; %d transactions, %d commits, %d aborted attempts of %d",
			s.name, s.clients, ph.elapsed.Seconds(), ph.st.txns, ph.st.commits, ph.st.aborts, ph.st.attempts),
		fmt.Sprintf("the metrics are medians over %d windows; whole phase: %.1f txn/s, %.2f us CPU per txn",
			wm.n, commits/ph.elapsed.Seconds(), float64(ph.res.cpu.Microseconds())/commits),
		fmt.Sprintf("whole-phase txn latency over %d samples: p50 %.1f us, p99 %.1f us, %s %.1f us (highest percentile with >= 10 samples beyond it)",
			lat.n, lat.quantile(0.5)/1e3, lat.quantile(0.99)/1e3, tailName, lat.quantile(tailQ)/1e3),
		fmt.Sprintf("resident set over %d samples: p90 %.1f MiB, max %.1f MiB; process peak (VmHWM) %.1f MiB",
			len(ph.rss), percentile(ph.rss, 0.9), percentile(ph.rss, 1), procStatusMiB("VmHWM:")),
		fmt.Sprintf("failed_share %.6g (failed %d / attempted %d)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted),
		fmt.Sprintf("setup_s samples %v", setups))
	return r
}

// layerResult derives the per-layer metrics: driver, runtime and
// public-counter metrics from the untraced phase, wrapper counts and
// span timings from the traced one.
func layerResult(s spec, plain, traced phase, lr layerReport, tr *tracer) result {
	r := result{}
	r.account("untraced phase: ", plain)
	r.account("traced phase: ", traced)
	r.correct = r.failed == 0
	pc, tc := float64(plain.st.commits), float64(traced.st.commits)
	calls := func(ops ...op) float64 {
		var n uint64
		for _, o := range ops {
			n += tr.calls[o].Load()
		}
		return float64(n)
	}
	q := func(p float64, ops ...op) float64 {
		var d []uint32
		for _, o := range ops {
			d = append(d, lr.durs[o]...)
		}
		if len(ops) > 1 {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		}
		return float64(quantile(d, p))
	}
	self := func(l layer) float64 { return float64(lr.selfNs[l]) / float64(lr.commits) }
	msgOps := []op{opLock, opLockBatch, opUnlock, opFetch, opFetchBatch, opShip, opForce, opRPCOther}
	cbOps := []op{opCallback, opDeesc, opNotify, opCallbackOther}

	r.add("core.begin_p50_ns", q(0.5, opBegin), "ns")
	r.add("core.read_p50_ns", q(0.5, opRead), "ns")
	r.add("core.write_p50_ns", q(0.5, opWrite), "ns")
	r.add("core.commit_p50_ns", q(0.5, opCommit), "ns")
	r.add("core.commit_p99_ns", q(0.99, opCommit), "ns")
	r.add("core.self_ns_per_txn", self(layerCore), "ns/txn")

	r.add("wal.client_appends_per_txn", calls(opClientAppend)/tc, "1/txn")
	r.add("wal.client_bytes_per_txn", float64(tr.clientLogB.Load())/tc, "B/txn")
	r.add("wal.client_flushes_per_txn", calls(opClientFlush)/tc, "1/txn")
	r.add("wal.client_append_p50_ns", q(0.5, opClientAppend), "ns")
	r.add("wal.client_flush_p50_ns", q(0.5, opClientFlush), "ns")
	r.add("wal.client_self_ns_per_txn", self(layerClientLog), "ns/txn")
	r.add("wal.server_bytes_per_txn", float64(tr.serverLogB.Load())/tc, "B/txn")
	r.add("wal.server_flushes_per_txn", calls(opServerFlush)/tc, "1/txn")
	r.add("wal.server_self_ns_per_txn", self(layerServerLog), "ns/txn")

	r.add("lock.rpc_per_txn", calls(opLock, opLockBatch, opUnlock)/tc, "1/txn")
	r.add("lock.cache_hit_ratio", 1-float64(tr.lockItems.Load())/float64(traced.st.dataOps), "ratio")
	r.add("lock.callbacks_per_txn", calls(opCallback, opDeesc)/tc, "1/txn")
	r.add("lock.callback_p50_ns", q(0.5, opCallback, opDeesc), "ns")
	r.add("lock.callback_self_ns_per_txn", self(layerCallback), "ns/txn")
	r.add("lock.abort_share", float64(plain.st.aborts)/float64(plain.st.attempts), "ratio")

	r.add("page.merges_per_txn", float64(plain.res.merges)/pc, "1/txn")
	r.add("msg.ship_p50_ns", q(0.5, opShip), "ns")

	r.add("buffer.client_fetches_per_txn", float64(tr.fetchPages.Load())/tc, "1/txn")
	r.add("buffer.client_ships_per_txn", calls(opShip)/tc, "1/txn")

	r.add("storage.reads_per_txn", calls(opStoreRead)/tc, "1/txn")
	r.add("storage.writes_per_txn", calls(opStoreWrite)/tc, "1/txn")
	r.add("storage.read_p50_ns", q(0.5, opStoreRead), "ns")
	r.add("storage.self_ns_per_txn", self(layerStorage), "ns/txn")

	r.add("msg.rpc_per_txn", (calls(msgOps...)+calls(cbOps...))/tc, "1/txn")
	r.add("msg.lock_p50_ns", q(0.5, opLock, opLockBatch), "ns")
	r.add("msg.fetch_p50_ns", q(0.5, opFetch, opFetchBatch), "ns")
	r.add("msg.force_p50_ns", q(0.5, opForce), "ns")
	r.add("msg.rpc_p99_ns", q(0.99, msgOps...), "ns")
	r.add("msg.self_ns_per_txn", self(layerMsg), "ns/txn")

	r.add("netrpc.frames_per_txn", float64(plain.res.frames)/pc, "1/txn")
	r.add("netrpc.bytes_per_txn", float64(plain.res.wireBytes)/pc, "B/txn")
	rtt := 0.0
	if s.tcp {
		rtt = q(0.5, msgOps...)
	}
	r.add("netrpc.rpc_p50_ns", rtt, "ns")

	r.add("runtime.allocs_per_txn", float64(plain.res.mallocs)/pc, "1/txn")
	r.add("runtime.alloc_bytes_per_txn", float64(plain.res.allocBytes)/pc, "B/txn")
	r.add("runtime.gc_cpu_share", plain.res.gcCPU/plain.res.totalCPU, "ratio")

	r.add("driver.backoff_share", plain.st.backoff.Seconds()/(float64(s.clients)*plain.elapsed.Seconds()), "ratio")
	plainTPS, tracedTPS := pc/plain.elapsed.Seconds(), tc/traced.elapsed.Seconds()
	r.add("driver.trace_overhead", tracedTPS/plainTPS-1, "ratio")
	r.add("driver.spans_dropped", float64(lr.dropped), "count")
	r.add("failed_share", float64(r.failed)/float64(r.attempted), "ratio")

	r.notes = append(r.notes,
		fmt.Sprintf("workload %s: untraced %.0f txn/s over %.2f s, traced %.0f txn/s over %.2f s; %d spans recorded, %d dropped",
			s.name, plainTPS, plain.elapsed.Seconds(), tracedTPS, traced.elapsed.Seconds(), lr.recorded, lr.dropped))
	return r
}

// quantile is the nearest-rank q-quantile of ascending samples (0 when
// there are none).
func quantile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// tailPercentile picks the highest of p99, p99.9, ... that still has at
// least ten samples beyond it.
func tailPercentile(n int) (float64, string) {
	q, name := 0.99, "p99"
	for _, c := range []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.9999, "p99.99"}, {0.99999, "p99.999"}} {
		if n-rank(c.q, n) >= 10 {
			q, name = c.q, c.name
		}
	}
	return q, name
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// procStatusMiB reads a kB field of /proc/self/status, such as VmRSS
// or VmHWM, in MiB (0 when it cannot).
func procStatusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// percentile is the nearest-rank q-quantile of v (0 when v is empty).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// metaJSON stamps a result with what makes two results comparable.
func metaJSON(s spec, seed int64, seconds, trace int) string {
	// Only a repository rooted here counts; a checkout without history
	// may sit inside an unrelated one.
	commit := "unknown"
	wd, _ := os.Getwd()
	if out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		if f := strings.Fields(string(out)); len(f) == 2 && f[0] == wd {
			commit = f[1]
		}
	}
	b, _ := json.Marshal(map[string]any{
		"workload":       s.name,
		"git_commit":     commit,
		"source_sha256":  sourceDigest(),
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"seed":           seed,
		"seconds":        seconds,
		"trace":          trace,
		"drivers":        s.clients,
		"pages":          s.w.Pages,
		"page_size":      s.cfg.PageSize,
		"objs_per_page":  s.w.ObjsPerPage,
		"obj_size":       s.w.ObjSize,
		"server_pool":    s.cfg.ServerPool,
		"client_pool":    s.cfg.ClientPool,
		"client_log_cap": s.cfg.ClientLogCapacity,
		"transport":      map[bool]string{false: "loopback", true: "tcp"}[s.tcp],
	})
	return string(b)
}

// sourceDigest hashes the Go sources and module files under the
// working directory, so results from a checkout without git history
// still name the code they measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || e.Name() == "go.mod" || e.Name() == "go.sum" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
