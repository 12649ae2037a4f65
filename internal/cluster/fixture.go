package cluster

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"dualbank/internal/explore/store"
	"dualbank/internal/serve"
)

// LocalOptions configures StartLocal.
type LocalOptions struct {
	// N is the node count (default 3).
	N int
	// Replication is each key's replica-set size (default 2).
	Replication int
	// StoreDir, when non-empty, is the shared L2 result-store directory;
	// every node opens its own store handle over it. Empty disables the
	// L2 — each node keeps only its in-memory memo cache.
	StoreDir string
	// Serve is the base per-node server config, copied to every node.
	Serve serve.Config
	// HotK, HotThreshold, HotWindow tune hot-key detection (see Config).
	HotK         int
	HotThreshold int
	HotWindow    time.Duration
	// Configure, when non-nil, edits node i's config after the defaults
	// are applied — the seam for per-node fault injectors, transports,
	// and engine defaults.
	Configure func(i int, cfg *Config)
}

// LocalCluster is an in-process fleet: N nodes, each a real HTTP
// server on its own 127.0.0.1 port, fully meshed through a static
// peer list. It is the fixture behind the cluster tests and
// dsploadgen's self-contained mode; one process stands in for N
// machines, which shares CPU — in-process scaling numbers measure the
// routing tier, not N machines' compute.
type LocalCluster struct {
	nodes []*localNode
}

type localNode struct {
	node    *Node
	httpSrv *http.Server
	ln      net.Listener
	addr    string
	store   *store.Store
	closed  bool
}

// StartLocal boots an N-node cluster on loopback ports. Callers must
// Close it.
func StartLocal(opts LocalOptions) (*LocalCluster, error) {
	if opts.N < 1 {
		opts.N = 3
	}
	lc := &LocalCluster{}
	addrs := make([]string, opts.N)
	lns := make([]net.Listener, opts.N)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		peers := make([]string, 0, opts.N-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{
			Self:         addrs[i],
			Peers:        peers,
			Replication:  opts.Replication,
			HotK:         opts.HotK,
			HotThreshold: opts.HotThreshold,
			HotWindow:    opts.HotWindow,
			Serve:        opts.Serve,
		}
		var st *store.Store
		if opts.StoreDir != "" {
			var err error
			if st, err = store.Open(opts.StoreDir); err != nil {
				lc.Close()
				return nil, fmt.Errorf("cluster: store: %w", err)
			}
			cfg.Serve.ResultCache = NewStoreCache(st)
		}
		if opts.Configure != nil {
			opts.Configure(i, &cfg)
		}
		node := New(cfg)
		hs := &http.Server{Handler: node.Handler()}
		ln := &localNode{node: node, httpSrv: hs, ln: lns[i], addr: addrs[i], store: st}
		lc.nodes = append(lc.nodes, ln)
		go hs.Serve(lns[i])
	}
	return lc, nil
}

// N returns the node count.
func (lc *LocalCluster) N() int { return len(lc.nodes) }

// Addr returns node i's address.
func (lc *LocalCluster) Addr(i int) string { return lc.nodes[i].addr }

// URL returns node i's base URL.
func (lc *LocalCluster) URL(i int) string { return "http://" + lc.nodes[i].addr }

// Addrs returns every node's address.
func (lc *LocalCluster) Addrs() []string {
	out := make([]string, len(lc.nodes))
	for i, n := range lc.nodes {
		out[i] = n.addr
	}
	return out
}

// Node returns node i.
func (lc *LocalCluster) Node(i int) *Node { return lc.nodes[i].node }

// Store returns node i's handle on the shared store (nil without one).
func (lc *LocalCluster) Store(i int) *store.Store { return lc.nodes[i].store }

// Kill abruptly stops node i: open connections are torn down and
// in-flight work is cancelled, as a crashed process would. The node
// announces nothing — peers discover the death through forward
// failures and their cooldown cache.
func (lc *LocalCluster) Kill(i int) {
	n := lc.nodes[i]
	if n.closed {
		return
	}
	n.closed = true
	n.httpSrv.Close()
	n.node.Close()
}

// Close tears down every remaining node.
func (lc *LocalCluster) Close() {
	for i := range lc.nodes {
		lc.Kill(i)
	}
}
