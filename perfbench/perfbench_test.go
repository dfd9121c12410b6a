package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// programCounts are counters the program keeps itself; wrapping its
// interfaces must not change any of them.
type programCounts struct {
	msgs, clientLogBytes, serverLogBytes, merges, reads, writes uint64
}

func countsAfterWarmUp(t *testing.T, s spec, tr *tracer) programCounts {
	t.Helper()
	if tr != nil {
		tr.start() // record during the warm-up, so the wrappers do their full work
		defer tr.stop()
	}
	sys, _, err := setUp(s, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	c := programCounts{
		msgs:           sys.stats.Messages(),
		serverLogBytes: sys.server.Log().BytesAppended(),
		merges:         sys.server.Metrics.Merges.Load(),
	}
	for _, cl := range sys.clients {
		c.clientLogBytes += cl.Log().BytesAppended()
	}
	st := sys.store.Stats()
	c.reads, c.writes = st.Reads, st.Writes
	return c
}

// TestWrappersKeepProgramCounts runs a seeded one-client hotcold load
// with and without the tracing wrappers; the program-side counts must
// be identical.
func TestWrappersKeepProgramCounts(t *testing.T) {
	s, err := lookupSpec("hotcold")
	if err != nil {
		t.Fatal(err)
	}
	s.clients, s.warmTxns = 1, 3000
	plain := countsAfterWarmUp(t, s, nil)
	tr := newTracer(1 << 16)
	traced := countsAfterWarmUp(t, s, tr)
	if plain != traced {
		t.Fatalf("program counts differ:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if plain.msgs == 0 || plain.clientLogBytes == 0 || plain.merges == 0 || plain.reads == 0 {
		t.Fatalf("load exercised too little: %+v", plain)
	}
	if tr.calls[opShip].Load() == 0 || tr.calls[opFetch].Load()+tr.calls[opFetchBatch].Load() == 0 ||
		tr.calls[opClientAppend].Load() == 0 || tr.calls[opStoreRead].Load() == 0 {
		t.Fatal("wrappers saw no traffic")
	}
}

// TestWrappersForwardOptionalInterfaces checks the capabilities the
// program type-asserts on its stores.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(16)
	var ls wal.Store = &logStore{t: tr, d: 0, inner: wal.NewMemStore(100)}
	ha, ok := ls.(wal.HeadroomAppender)
	if !ok {
		t.Fatal("log wrapper does not implement wal.HeadroomAppender")
	}
	if _, err := ha.AppendHeadroom(make([]byte, 40), 60); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("headroom not forwarded: got %v, want ErrLogFull", err)
	}
	var ps storage.Store = &pageStore{t: tr, inner: storage.NewMemStore(4096)}
	strider, ok := ps.(interface{ SetAllocStride(int, int) })
	if !ok {
		t.Fatal("page store wrapper does not implement SetAllocStride")
	}
	strider.SetAllocStride(2, 0)
	p, err := ps.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p.ID()%2 != 0 {
		t.Fatalf("stride not forwarded: allocated page %d", p.ID())
	}
}

// TestCheckCatchesCorruptModel corrupts the model after a clean run:
// the final-state check must report the object.
func TestCheckCatchesCorruptModel(t *testing.T) {
	s, err := lookupSpec("hicon")
	if err != nil {
		t.Fatal(err)
	}
	s.warmTxns = 300
	sys, ds, err := setUp(s, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	res, err := checkFinalState(sys, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.objects == 0 || len(res.misses) != 0 {
		t.Fatalf("clean run: %d objects, misses %v", res.objects, res.misses)
	}
	i := -1
	for j, seq := range ds[0].last {
		if seq != 0 {
			i = j
			break
		}
	}
	if i < 0 {
		t.Fatal("driver 0 wrote nothing")
	}
	obj := page.ObjectID{Page: sys.ids[i/ds[0].objs], Slot: uint16(i % ds[0].objs)}
	name := fmt.Sprintf("object %d.%d ", obj.Page, obj.Slot)

	seq := ds[0].last[i]
	ds[0].last[i] = seq - 1 // the model now expects an older value
	res, err = checkFinalState(sys, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.misses) != 1 || !strings.Contains(res.misses[0], name) || !strings.Contains(res.misses[0], "stale") {
		t.Fatalf("stale model entry: misses %v, want one naming %s", res.misses, name)
	}

	ds[0].last[i] = seq
	ds[0].committed[seq/64] &^= 1 << (seq % 64) // the model now says that attempt aborted
	res, err = checkFinalState(sys, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.misses) == 0 || !strings.Contains(strings.Join(res.misses, "\n"), name+"holds driver 0's value from aborted") {
		t.Fatalf("aborted attempt: misses %v, want one naming %s", res.misses, name)
	}
}

func TestValueRoundTrip(t *testing.T) {
	obj := page.ObjectID{Page: 42, Slot: 7}
	v := make([]byte, 32)
	encodeValue(v, 99, obj, 1, 12345)
	got, drv, seq, ok := decodeValue(v, 99)
	if !ok || got != obj || drv != 1 || seq != 12345 {
		t.Fatalf("decode = %v %d %d %v", got, drv, seq, ok)
	}
	v[20] ^= 1
	if _, _, _, ok := decodeValue(v, 99); ok {
		t.Fatal("corrupted value decoded")
	}
	if _, _, _, ok := decodeValue(make([]byte, 32), 99); ok {
		t.Fatal("seeded (zero) value decoded")
	}
}

// TestSelfTime checks the span arithmetic on a hand-built trace.
func TestSelfTime(t *testing.T) {
	tr := newTracer(8)
	tr.buf[0] = span{start: 0, dur: 100, parent: -1, op: opCommit}
	tr.buf[1] = span{start: 10, dur: 30, parent: 0, op: opClientAppend}
	tr.buf[2] = span{start: 50, dur: 80, parent: 0, op: opLock} // runs past its parent
	tr.buf[3] = span{start: 60, dur: 20, parent: 2, op: opCallback}
	tr.buf[4] = span{start: 70, dur: 5, parent: -1, op: opStoreRead}
	tr.n.Store(5)
	r := tr.analyze()
	want := map[layer]int64{
		layerCore:      100 - 30 - 50,
		layerClientLog: 30,
		layerMsg:       80 - 20,
		layerCallback:  20,
		layerStorage:   5,
	}
	for l, w := range want {
		if r.selfNs[l] != w {
			t.Errorf("layer %d self = %d, want %d", l, r.selfNs[l], w)
		}
	}
	if r.commits != 1 || quantile(r.durs[opLock], 0.5) != 80 {
		t.Errorf("commits %d, lock p50 %d", r.commits, quantile(r.durs[opLock], 0.5))
	}
}

func TestQuantile(t *testing.T) {
	s := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var h hist
	for _, v := range s {
		h.add(int64(v))
	}
	for _, c := range []struct {
		q    float64
		want uint32
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
		if got := h.quantile(c.q); got != float64(c.want) {
			t.Errorf("hist quantile(%v) = %v, want %d", c.q, got, c.want)
		}
	}
	var big hist
	for v := int64(1); v <= 1000000; v++ {
		big.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 1e9
		if got := big.quantile(q); got < want*0.996 || got > want*1.004 {
			t.Errorf("hist quantile(%v) = %v, want %v within 0.4%%", q, got, want)
		}
	}
	if q, name := tailPercentile(100000); q != 0.9999 || name != "p99.99" {
		t.Errorf("tailPercentile(100000) = %v %s", q, name)
	}
}

// TestRunsReportTheDeclaredMetrics runs every workload briefly in both
// modes and checks the result against BENCHMARK.json: the same metric
// names and units, and a passing final-state check.
func TestRunsReportTheDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(got []metric, want []decl) error {
		if len(got) != len(want) {
			return fmt.Errorf("%d metrics, declared %d", len(got), len(want))
		}
		for i, m := range got {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				return fmt.Errorf("metric %d is %s (%s), declared %s (%s)", i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
		}
		return nil
	}
	for _, w := range bench.Workloads {
		s, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		s.warmTxns = 20
		res, err := endToEnd(s, 1, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := same(res.metrics, bench.EndToEnd); err != nil || !res.correct {
			t.Errorf("%s end-to-end: %v, correct %v, notes %v", w.Name, err, res.correct, res.notes)
		}
		res, _, err = perLayer(s, 1, 600*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := same(res.metrics, bench.PerLayer); err != nil || !res.correct {
			t.Errorf("%s per-layer: %v, correct %v, notes %v", w.Name, err, res.correct, res.notes)
		}
	}
}
