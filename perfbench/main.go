// Command perfbench is the repository benchmark: closed-loop workloads
// driven through the public client API, end-to-end metrics from an
// untraced run, per-layer metrics from a traced run, and a final-state
// correctness check after every timed phase.  See README.md.
//
//	bash perfbench/run.sh --workload hicon --seed 1 --seconds 10 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// nSetups is how many times a run builds and warms its cluster; setup_s
// is the median, and the last cluster is the one timed.
const nSetups = 5

// watchdog bounds a whole run.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: hicon, hotcold or zipf-tcp")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced phase")
	flag.Parse()
	s, err := lookupSpec(*workload)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	dur := time.Duration(*seconds) * time.Second
	var res result
	var tr *tracer
	if *trace == 0 {
		res, err = endToEnd(s, *seed, dur)
	} else {
		res, tr, err = perLayer(s, *seed, dur)
	}
	if err == nil && tr != nil {
		path := ".bench_build/spans-" + s.name + ".bin"
		if err = writeSpans(tr, path); err == nil {
			res.notes = append(res.notes, "spans written to "+path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench: meta %s\n", metaJSON(s, *seed, *seconds, *trace))
	for _, line := range res.notes {
		fmt.Println("perfbench:", line)
	}
	for _, m := range res.metrics {
		fmt.Printf("perfbench: %-32s %.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Println(res.json())
	return 0
}

// setUp builds the cluster, joins the clients and runs the warm-up.
func setUp(s spec, seed int64, tr *tracer) (*system, []*driver, error) {
	sys, err := build(s, tr)
	if err != nil {
		return nil, nil, err
	}
	ds := newDrivers(s, sys, seed, tr)
	for _, d := range ds {
		d.resetStats(time.Now(), 0, time.Hour)
	}
	runAll(ds, func(d *driver) { d.runN(s.warmTxns) })
	for _, d := range ds {
		if d.st.failed > 0 {
			sys.close()
			return nil, nil, fmt.Errorf("warm-up: driver %d: %d transactions failed", d.idx, d.st.failed)
		}
	}
	return sys, ds, nil
}

// endToEnd sets up nSetups times, times the last cluster untraced and
// checks its final state.
func endToEnd(s spec, seed int64, dur time.Duration) (result, error) {
	var sys *system
	var ds []*driver
	setups := make([]float64, 0, nSetups)
	for i := 0; i < nSetups; i++ {
		if sys != nil {
			sys.close()
			sys, ds = nil, nil
			debug.FreeOSMemory() // so rss_peak_mib reflects one cluster, not the discarded ones
		}
		t0 := time.Now()
		var err error
		if sys, ds, err = setUp(s, seed, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	ph, err := runPhase(sys, ds, dur, nil)
	if err != nil {
		return result{}, err
	}
	return e2eResult(s, ph, setups), nil
}

// perLayer times one cluster untraced and a second one traced, half
// the run each, and reports the per-layer metrics.
func perLayer(s spec, seed int64, dur time.Duration) (result, *tracer, error) {
	sys, ds, err := setUp(s, seed, nil)
	if err != nil {
		return result{}, nil, err
	}
	plain, err := runPhase(sys, ds, dur/2, nil)
	sys.close()
	if err != nil {
		return result{}, nil, err
	}
	debug.FreeOSMemory()
	tr := newTracer(spanCapacity)
	if sys, ds, err = setUp(s, seed, tr); err != nil {
		return result{}, nil, err
	}
	defer sys.close()
	traced, err := runPhase(sys, ds, dur/2, tr)
	if err != nil {
		return result{}, nil, err
	}
	return layerResult(s, plain, traced, tr.analyze(), tr), tr, nil
}

// writeSpans dumps the traced phase's spans.
func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.writeSpans(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	elapsed time.Duration
	st      driverStats // summed over drivers, without lat
	lat     []hist      // per window, merged over drivers
	res     resources
	windows []window
	rss     []float64 // resident set samples, MiB
	check   checkResult
}

// nWindows splits a timed phase for the windowed rates.
const nWindows = 20

// runPhase runs every driver's closed loop for dur, then checks the
// final state.
func runPhase(sys *system, ds []*driver, dur time.Duration, tr *tracer) (phase, error) {
	var ph phase
	runtime.GC()
	before := sample(sys)
	if tr != nil {
		tr.start()
	}
	start := time.Now()
	deadline := start.Add(dur)
	for _, d := range ds {
		d.resetStats(start, nWindows, dur/nWindows)
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		ph.windows, ph.rss = sampleWindows(ds, dur/nWindows, stop)
	}()
	runAll(ds, func(d *driver) { d.runFor(deadline) })
	ph.elapsed = time.Since(start)
	if tr != nil {
		tr.stop()
	}
	close(stop)
	<-sampled
	ph.res = sample(sys).minus(before)
	ph.lat = make([]hist, nWindows+1)
	for _, d := range ds {
		for w := range ph.lat {
			ph.lat[w].merge(&d.st.lat[w])
		}
		ph.st.txns += d.st.txns
		ph.st.commits += d.st.commits
		ph.st.failed += d.st.failed
		ph.st.attempts += d.st.attempts
		ph.st.aborts += d.st.aborts
		ph.st.dataOps += d.st.dataOps
		ph.st.backoff += d.st.backoff
	}
	if ph.st.commits == 0 {
		return ph, errors.New("no transaction committed in the timed phase")
	}
	var err error
	ph.check, err = checkFinalState(sys, ds)
	return ph, err
}
