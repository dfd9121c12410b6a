package main

import (
	"fmt"
	"net"

	"clientlog/internal/core"
	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/page"
	"clientlog/internal/sim"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// nDrivers is the closed-loop client count: one driver goroutine per
// client engine, one transaction at a time.
const nDrivers = 2

// clientLogCapacity bounds each client's private log so memory stays
// flat over a run; §3.6 log-space management (ship, force, reclaim)
// engages when it fills.
const clientLogCapacity = 4 << 20

// spec fixes one workload: its access pattern, the engine
// configuration, the transport, and the warm-up that fills the caches
// before timing.
type spec struct {
	name     string
	w        sim.Workload
	cfg      core.Config
	tcp      bool
	clients  int // one driver per client
	warmTxns int // per driver, during set-up
}

func lookupSpec(name string) (spec, error) {
	// 4 KiB pages, server pool 256 pages, client pool 64 pages, 10 s
	// lock timeout; no simulated network, fsync or disk latency.
	cfg := core.DefaultConfig()
	cfg.ClientLogCapacity = clientLogCapacity
	s := spec{name: name, cfg: cfg, clients: nDrivers}
	switch name {
	case "hicon":
		s.w = sim.DefaultWorkload(sim.HiCon)
		s.warmTxns = 8000
	case "hotcold":
		s.w = sim.DefaultWorkload(sim.HotCold)
		s.w.Pages = cfg.ServerPool
		s.warmTxns = 2500
	case "zipf-tcp":
		s.w = sim.DefaultWorkload(sim.Zipf)
		s.w.Pages = 4096
		s.w.ReadFrac = 0.8
		s.tcp = true
		s.warmTxns = 200
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want hicon, hotcold or zipf-tcp)", name)
	}
	return s, nil
}

// system is one running cluster: the client engines the drivers use,
// the server engine, and the program-side counters the benchmark reads.
type system struct {
	clients []*core.Client
	server  *core.Server
	store   *storage.MemStore // stable storage, unwrapped
	stats   *msg.Stats        // loopback traffic; nil over TCP
	ids     []page.ID
	closers []func()
}

// build assembles the workload's cluster.  With tr non-nil every
// client→server conn, server→client conn, client log, server log and
// the page store is wrapped for tracing.
func build(s spec, tr *tracer) (*system, error) {
	store := storage.NewMemStore(s.cfg.PageSize)
	ids, err := seedPages(store, s.w)
	if err != nil {
		return nil, err
	}
	var ps storage.Store = store
	var slog wal.Store = wal.NewMemStore(0)
	if tr != nil {
		ps = &pageStore{t: tr, inner: ps}
		slog = &logStore{t: tr, d: -1, inner: slog}
	}
	sys := &system{store: store, ids: ids}
	if s.tcp {
		err = sys.joinTCP(s, ps, slog, tr)
	} else {
		err = sys.joinLoopback(s, ps, slog, tr)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// clientLog builds driver d's private log device.
func clientLog(cfg core.Config, tr *tracer, d int) wal.Store {
	var ls wal.Store = wal.NewMemStore(cfg.ClientLogCapacity)
	if tr != nil {
		ls = &logStore{t: tr, d: d, inner: ls}
	}
	return ls
}

func (sys *system) joinLoopback(s spec, ps storage.Store, slog wal.Store, tr *tracer) error {
	cfg := s.cfg
	cl := core.NewClusterWithStoresIn(cfg, ps, slog, nil)
	sys.closers = append(sys.closers, cl.Close)
	sys.server, sys.stats = cl.Server(), cl.Stats
	if tr != nil {
		// n counts client conns from 1, one per join, in driver order.
		cl.WrapConns(
			func(_, n int, conn msg.Server) msg.Server { return &serverConn{t: tr, d: n - 1, inner: conn} },
			func(_ ident.ClientID, conn msg.Client) msg.Client { return &clientConn{t: tr, inner: conn} })
	}
	for d := 0; d < s.clients; d++ {
		c, err := cl.AddClientWithLog(clientLog(cfg, tr, d))
		if err != nil {
			return fmt.Errorf("join client %d: %w", d, err)
		}
		if tr != nil {
			tr.bind(c.ID(), d)
		}
		sys.clients = append(sys.clients, c)
	}
	return nil
}

func (sys *system) joinTCP(s spec, ps storage.Store, slog wal.Store, tr *tracer) error {
	cfg := s.cfg
	sys.server = core.NewServer(cfg, ps, slog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := netrpc.Serve(sys.server, ln)
	sys.closers = append(sys.closers, func() { srv.Close() })
	for d := 0; d < s.clients; d++ {
		t, err := netrpc.Dial(srv.Addr().String())
		if err != nil {
			return fmt.Errorf("dial client %d: %w", d, err)
		}
		sys.closers = append(sys.closers, func() { t.Close() })
		var conn msg.Server = t
		if tr != nil {
			conn = &serverConn{t: tr, d: d, inner: t}
		}
		c, err := core.NewClient(cfg, conn, clientLog(cfg, tr, d))
		if err != nil {
			return fmt.Errorf("register client %d: %w", d, err)
		}
		var local msg.Client = c
		if tr != nil {
			tr.bind(c.ID(), d)
			local = &clientConn{t: tr, inner: c}
		}
		t.SetLocal(local)
		sys.clients = append(sys.clients, c)
	}
	return nil
}

// close tears the cluster down, transports before the server.
func (sys *system) close() {
	for i := len(sys.closers) - 1; i >= 0; i-- {
		sys.closers[i]()
	}
	sys.closers = nil
}

// seedPages creates the database directly in stable storage: w.Pages
// pages of w.ObjsPerPage zeroed objects of w.ObjSize bytes.  The ids
// must be contiguous; the drivers index their models by them.
func seedPages(st *storage.MemStore, w sim.Workload) ([]page.ID, error) {
	ids := make([]page.ID, 0, w.Pages)
	for i := 0; i < w.Pages; i++ {
		p, err := st.Allocate()
		if err != nil {
			return nil, err
		}
		for s := 0; s < w.ObjsPerPage; s++ {
			if _, _, err := p.Insert(make([]byte, w.ObjSize)); err != nil {
				return nil, fmt.Errorf("seed page %d: %w", p.ID(), err)
			}
		}
		if err := st.Write(p); err != nil {
			return nil, err
		}
		if i > 0 && p.ID() != ids[0]+page.ID(i) {
			return nil, fmt.Errorf("seeded page ids not contiguous: %d after %d", p.ID(), ids[i-1])
		}
		ids = append(ids, p.ID())
	}
	return ids, nil
}
